#include "clc/vm.h"

#include <atomic>
#include <cmath>
#include <cstring>

#include "clc/builtins.h"
#include "clc/eval.h"

namespace clc {

namespace {

// Scalar semantics (slot helpers, canon, convert, arithmetic, compare)
// live in clc/eval.h so the optimizer folds with the VM's exact behavior.
using namespace clc::eval;

// --- per-launch immutable context ---------------------------------------------

struct LaunchContext {
  const Program* program = nullptr;
  const std::vector<Segment>* segments = nullptr;
  const FunctionInfo* kernelFunc = nullptr;
  const KernelInfo* kernel = nullptr;
  const std::vector<KernelArgValue>* args = nullptr;
  std::vector<std::uint32_t> localArgOffsets; // for LocalPtr args
  std::uint32_t totalLocalSize = 0;
  NDRange range;
  std::size_t groupCount[3] = {1, 1, 1};
  /// Per-instruction cycle costs (Program::chargedCosts).
  const std::uint32_t* costs = nullptr;
  /// Barrier-free kernels take the straight-line group runner.
  bool hasBarrier = true;
};

struct Frame {
  std::uint32_t funcIndex = 0;
  std::uint32_t returnPc = 0;
  std::uint32_t frameBase = 0; // base of *this* frame in the private arena
  std::uint32_t prevBase = 0;
};

enum class ItemStatus { Running, AtBarrier, Done };

constexpr std::size_t kMaxPrivateArena = 1 << 20;  // 1 MiB per work-item
constexpr std::size_t kMaxCallDepth = 64;
/// Device cycles a work-item may run without returning or reaching a
/// barrier (about 0.2 s of T10 time) before it traps, as a GPU
/// watchdog kills a runaway kernel. Verification proves a program safe,
/// not terminating; every non-terminating run takes jumps, so the check
/// sits on taken jumps only.
constexpr std::uint64_t kWatchdogCycles = std::uint64_t(1) << 28;

// --- fixed-width slot access -------------------------------------------------

template <typename T>
T loadAs(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void storeAs(std::uint8_t* p, std::uint64_t v) noexcept {
  const T narrow = T(v);
  std::memcpy(p, &narrow, sizeof narrow);
}

/// Loads a `tag`-typed value as a canonical slot (what canon() of the
/// zero-padded bytes gives): one fixed-width load per tag.
inline std::uint64_t loadSlot(const std::uint8_t* p, TypeTag tag) noexcept {
  switch (tag) {
    case TypeTag::I8: return std::uint64_t(std::int64_t(loadAs<std::int8_t>(p)));
    case TypeTag::U8: return loadAs<std::uint8_t>(p);
    case TypeTag::I16: return std::uint64_t(std::int64_t(loadAs<std::int16_t>(p)));
    case TypeTag::U16: return loadAs<std::uint16_t>(p);
    case TypeTag::I32: return std::uint64_t(std::int64_t(loadAs<std::int32_t>(p)));
    case TypeTag::U32:
    case TypeTag::F32: return loadAs<std::uint32_t>(p);
    default: return loadAs<std::uint64_t>(p);
  }
}

/// Stores the low typeTagSize(tag) bytes of a slot.
inline void storeSlot(std::uint8_t* p, TypeTag tag, std::uint64_t v) noexcept {
  switch (tag) {
    case TypeTag::I8:
    case TypeTag::U8: storeAs<std::uint8_t>(p, v); return;
    case TypeTag::I16:
    case TypeTag::U16: storeAs<std::uint16_t>(p, v); return;
    case TypeTag::I32:
    case TypeTag::U32:
    case TypeTag::F32: storeAs<std::uint32_t>(p, v); return;
    default: storeAs<std::uint64_t>(p, v); return;
  }
}

// The opcodes in Op order: the dispatch table below is built from this
// list, and kOpOrderMatches proves the order against the enum.
#define CLC_VM_OPS(X)                                                          \
  X(Nop) X(PushConst) X(PushFrameAddr) X(PushLocalAddr) X(Dup) X(Pop)          \
  X(Swap) X(Rot3) X(Load) X(Store) X(StoreKeep) X(MemCopy) X(Add) X(Sub)       \
  X(Mul) X(Div) X(Rem) X(Neg) X(Shl) X(Shr) X(BitAnd) X(BitOr) X(BitXor)       \
  X(BitNot) X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe) X(LogNot)    \
  X(Conv) X(Jmp) X(Jz) X(Jnz) X(Call) X(CallBuiltin) X(Barrier) X(Ret)         \
  X(RetVal) X(RetStruct) X(Trap) X(LoadFrame) X(StoreFrame) X(BinConst)        \
  X(FrameBin) X(LoadBin) X(CmpJz) X(CmpJnz) X(MulAdd) X(FrameBin2)

constexpr bool opOrderMatches() {
#define CLC_VM_OP_ENUM(name) Op::name,
  constexpr Op order[] = {CLC_VM_OPS(CLC_VM_OP_ENUM)};
#undef CLC_VM_OP_ENUM
  if (sizeof order / sizeof order[0] != std::size_t(kMaxOp) + 1) {
    return false;
  }
  for (std::size_t i = 0; i < sizeof order / sizeof order[0]; ++i) {
    if (order[i] != Op(i)) {
      return false;
    }
  }
  return true;
}
static_assert(opOrderMatches(), "CLC_VM_OPS must list every Op in order");

/// One work-item's execution state: a resumable interpreter.
///
/// It runs verified programs only (verify.h), and relies on what the
/// verifier proved instead of checking at run time: the operand stack is
/// a fixed array of the kernel's verified peak depth and push/pop/top
/// never check it, every opcode, tag and operand index is in range, and
/// pc never leaves the function it belongs to.
class ItemVM {
public:
  void init(const LaunchContext& ctx, std::uint8_t* localBase,
            std::size_t localSize, const std::size_t globalId[3],
            const std::size_t localId[3], const std::size_t groupId[3]) {
    ctx_ = &ctx;
    localBase_ = localBase;
    localSize_ = localSize;
    for (int d = 0; d < 3; ++d) {
      globalId_[d] = globalId[d];
      localId_[d] = localId[d];
      groupId_[d] = groupId[d];
    }
    stack_.resize(ctx.kernel->maxOperands);
    sp_ = stack_.data();
    frames_.clear();
    cycles_ = 0;
    instructions_ = 0;
    bytesRead_ = 0;
    bytesWritten_ = 0;
    atomics_ = 0;
    cachedSeg_ = ~0u;
    status_ = ItemStatus::Running;

    const FunctionInfo& f = *ctx.kernelFunc;
    arena_.assign(f.frameSize, 0);
    Frame frame;
    frame.funcIndex = ctx.kernel->functionIndex;
    frame.returnPc = ~0u;
    frame.frameBase = 0;
    frame.prevBase = 0;
    frames_.push_back(frame);
    pc_ = f.codeStart;
    fillKernelArgs();
  }

  ItemStatus status() const noexcept { return status_; }
  std::uint64_t cycles() const noexcept { return cycles_; }
  std::uint64_t instructions() const noexcept { return instructions_; }
  std::uint64_t bytesRead() const noexcept { return bytesRead_; }
  std::uint64_t bytesWritten() const noexcept { return bytesWritten_; }
  std::uint64_t atomics() const noexcept { return atomics_; }

  /// Runs until completion or the next barrier.
  ///
  /// Threaded dispatch (GCC labels-as-values): every handler ends with
  /// its own indirect jump to the next instruction's handler, looked up
  /// by opcode in a label table; there is no central switch. pc, the
  /// stack pointer and the frame pointer live in locals; they are written
  /// back to the members only around calls, builtins, barriers and
  /// returns, the places that use the members.
  /// Pinned to a 64-byte line start, so that code-size changes elsewhere
  /// in the binary cannot move it relative to the cache lines.
  __attribute__((aligned(64))) void resume() {
    COMMON_CHECK(status_ != ItemStatus::Done);
    status_ = ItemStatus::Running;
    const Instr* const code = ctx_->program->code.data();
    const std::uint32_t* const costs = ctx_->costs;
    const std::uint64_t* const constants = ctx_->program->constants.data();
    std::uint32_t pc = pc_;
    std::uint64_t* sp = sp_;
    std::uint32_t frameBase = frames_.back().frameBase;
    std::uint8_t* frame = arena_.data() + frameBase;
    // Instruction/cycle counters are accumulated in locals and flushed at
    // the (rare) suspension points; resolve()/doBuiltin() still add their
    // dynamic extras (global latency, builtin costs) to cycles_ directly.
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    Instr instr;

#define CLC_VM_LABEL(name) &&op_##name,
    static const void* const kDispatch[] = {CLC_VM_OPS(CLC_VM_LABEL)};
#undef CLC_VM_LABEL

#define VM_PUSH(v) (*sp++ = (v))
#define VM_POP() (*--sp)
#define VM_TOP() (sp[-1])
#define VM_NEXT()                                                              \
  do {                                                                         \
    instr = code[pc];                                                          \
    cycles += costs[pc];                                                       \
    ++pc;                                                                      \
    ++instructions;                                                            \
    goto* kDispatch[std::size_t(instr.op)];                                    \
  } while (false)
#define VM_JUMP(target)                                                        \
  do {                                                                         \
    pc = std::uint32_t(target);                                                \
    if (cycles > kWatchdogCycles) {                                            \
      trap("watchdog: ran more than 2^28 cycles without returning or "         \
           "reaching a barrier");                                              \
    }                                                                          \
  } while (false)
#define VM_SAVE() (pc_ = pc, sp_ = sp)
#define VM_LOAD()                                                              \
  (pc = pc_, sp = sp_, frameBase = frames_.back().frameBase,                   \
   frame = arena_.data() + frameBase)
#define VM_SUSPEND()                                                           \
  do {                                                                         \
    instructions_ += instructions;                                             \
    cycles_ += cycles;                                                         \
    return;                                                                    \
  } while (false)
#define VM_BINARY(name)                                                        \
  op_##name : {                                                                \
    const std::uint64_t rhs = VM_POP();                                        \
    VM_TOP() = arith(Op::name, instr.tag, VM_TOP(), rhs);                      \
    VM_NEXT();                                                                 \
  }
#define VM_COMPARE(name)                                                       \
  op_##name : {                                                                \
    const std::uint64_t rhs = VM_POP();                                        \
    VM_TOP() = compare(Op::name, instr.tag, VM_TOP(), rhs) ? 1 : 0;            \
    VM_NEXT();                                                                 \
  }

    VM_NEXT();

  op_Nop:
    VM_NEXT();
  op_PushConst:
    VM_PUSH(constants[std::size_t(instr.a)]);
    VM_NEXT();
  op_PushFrameAddr:
    VM_PUSH(packPointer(MemSpace::Private, 0,
                        frameBase + std::uint64_t(instr.a)));
    VM_NEXT();
  op_PushLocalAddr:
    VM_PUSH(packPointer(MemSpace::Local, 0, std::uint64_t(instr.a)));
    VM_NEXT();
  op_Dup: {
    const std::uint64_t v = VM_TOP();
    VM_PUSH(v);
    VM_NEXT();
  }
  op_Pop:
    --sp;
    VM_NEXT();
  op_Swap:
    std::swap(sp[-1], sp[-2]);
    VM_NEXT();
  op_Rot3: {
    const std::uint64_t a = sp[-3];
    sp[-3] = sp[-2];
    sp[-2] = sp[-1];
    sp[-1] = a;
    VM_NEXT();
  }
  op_Load:
    VM_TOP() = loadSlot(resolve(VM_TOP(), typeTagSize(instr.tag), false),
                        instr.tag);
    VM_NEXT();
  op_Store: {
    const std::uint64_t v = VM_POP();
    const std::uint64_t ptr = VM_POP();
    storeSlot(resolve(ptr, typeTagSize(instr.tag), true), instr.tag, v);
    VM_NEXT();
  }
  op_StoreKeep: {
    const std::uint64_t v = VM_POP();
    storeSlot(resolve(VM_TOP(), typeTagSize(instr.tag), true), instr.tag, v);
    VM_TOP() = v;
    VM_NEXT();
  }
  op_MemCopy: {
    const std::uint64_t src = VM_POP();
    const std::uint64_t dst = VM_POP();
    const auto size = std::size_t(instr.a);
    const std::uint8_t* s = resolve(src, size, /*write=*/false);
    std::uint8_t* d = resolve(dst, size, /*write=*/true);
    std::memmove(d, s, size);
    VM_NEXT();
  }
  VM_BINARY(Add)
  VM_BINARY(Sub)
  VM_BINARY(Mul)
  VM_BINARY(Div)
  VM_BINARY(Rem)
  VM_BINARY(Shl)
  VM_BINARY(Shr)
  VM_BINARY(BitAnd)
  VM_BINARY(BitOr)
  VM_BINARY(BitXor)
  op_Neg:
    VM_TOP() = evalNeg(instr.tag, VM_TOP());
    VM_NEXT();
  op_BitNot:
    VM_TOP() = canon(~VM_TOP(), instr.tag);
    VM_NEXT();
  VM_COMPARE(CmpEq)
  VM_COMPARE(CmpNe)
  VM_COMPARE(CmpLt)
  VM_COMPARE(CmpLe)
  VM_COMPARE(CmpGt)
  VM_COMPARE(CmpGe)
  op_LogNot:
    VM_TOP() = VM_TOP() == 0 ? 1 : 0;
    VM_NEXT();
  op_Conv:
    VM_TOP() = convert(VM_TOP(), TypeTag((instr.a >> 8) & 0xff),
                       TypeTag(instr.a & 0xff));
    VM_NEXT();
  op_Jmp:
    VM_JUMP(instr.a);
    VM_NEXT();
  op_Jz:
    if (VM_POP() == 0) {
      VM_JUMP(instr.a);
    }
    VM_NEXT();
  op_Jnz:
    if (VM_POP() != 0) {
      VM_JUMP(instr.a);
    }
    VM_NEXT();
  op_Call:
    VM_SAVE();
    doCall(std::uint32_t(instr.a));
    VM_LOAD();
    VM_NEXT();
  op_CallBuiltin:
    VM_SAVE();
    doBuiltin(Builtin(instr.a), instr.tag);
    sp = sp_;
    VM_NEXT();
  op_Barrier:
    VM_SAVE();
    status_ = ItemStatus::AtBarrier;
    VM_SUSPEND();
  op_Ret:
    VM_SAVE();
    if (doReturn()) {
      VM_SUSPEND();
    }
    VM_LOAD();
    VM_NEXT();
  op_RetVal: {
    const std::uint64_t v = VM_POP();
    VM_SAVE();
    const bool done = doReturn();
    push(v);
    if (done) {
      VM_SUSPEND();
    }
    VM_LOAD();
    VM_NEXT();
  }
  op_RetStruct: {
    const std::uint64_t src = VM_POP();
    VM_SAVE();
    const std::uint64_t sret = loadAs<std::uint64_t>(
        resolve(packPointer(MemSpace::Private, 0, frameBase), 8,
                /*write=*/false));
    const auto size = std::size_t(instr.a);
    const std::uint8_t* s = resolve(src, size, /*write=*/false);
    std::uint8_t* d = resolve(sret, size, /*write=*/true);
    std::memmove(d, s, size);
    if (doReturn()) {
      VM_SUSPEND();
    }
    VM_LOAD();
    VM_NEXT();
  }
  op_Trap:
    trap(instr.a == 1 ? "control reached the end of a non-void function"
                      : "kernel trap");
  op_LoadFrame:
    VM_PUSH(loadSlot(frame + std::uint32_t(instr.a), instr.tag));
    VM_NEXT();
  op_StoreFrame:
    storeSlot(frame + std::uint32_t(instr.a), instr.tag, VM_POP());
    VM_NEXT();
  op_BinConst:
    VM_TOP() = binary(embeddedOp(instr.a), instr.tag, VM_TOP(),
                      constants[std::size_t(embeddedOperand(instr.a))]);
    VM_NEXT();
  op_FrameBin:
    VM_TOP() = binary(
        embeddedOp(instr.a), instr.tag, VM_TOP(),
        loadSlot(frame + std::uint32_t(embeddedOperand(instr.a)), instr.tag));
    VM_NEXT();
  op_LoadBin: {
    const std::uint64_t ptr = VM_POP();
    const std::uint64_t rhs =
        loadSlot(resolve(ptr, typeTagSize(instr.tag), /*write=*/false),
                 instr.tag);
    VM_TOP() = binary(Op(instr.a), instr.tag, VM_TOP(), rhs);
    VM_NEXT();
  }
  op_CmpJz: {
    const std::uint64_t rhs = VM_POP();
    const std::uint64_t lhs = VM_POP();
    if (!compare(cmpFromJump(instr.a), instr.tag, lhs, rhs)) {
      VM_JUMP(cmpJumpTarget(instr.a));
    }
    VM_NEXT();
  }
  op_CmpJnz: {
    const std::uint64_t rhs = VM_POP();
    const std::uint64_t lhs = VM_POP();
    if (compare(cmpFromJump(instr.a), instr.tag, lhs, rhs)) {
      VM_JUMP(cmpJumpTarget(instr.a));
    }
    VM_NEXT();
  }
  op_MulAdd: {
    // Two-step multiply-then-add: bit-identical to the Mul+Add pair it
    // replaces (deliberately *not* a fused fma).
    const std::uint64_t rhs = VM_POP();
    const std::uint64_t lhs = VM_POP();
    VM_TOP() = arith(Op::Add, instr.tag, VM_TOP(),
                     arith(Op::Mul, instr.tag, lhs, rhs));
    VM_NEXT();
  }
  op_FrameBin2:
    VM_PUSH(binary(frame2Op(instr.a), instr.tag,
                   loadSlot(frame + std::uint32_t(frame2X(instr.a)), instr.tag),
                   loadSlot(frame + std::uint32_t(frame2Y(instr.a)),
                            instr.tag)));
    VM_NEXT();

#undef VM_COMPARE
#undef VM_BINARY
#undef VM_SUSPEND
#undef VM_LOAD
#undef VM_SAVE
#undef VM_JUMP
#undef VM_NEXT
#undef VM_TOP
#undef VM_POP
#undef VM_PUSH
  }

private:
  [[noreturn]] void trap(const std::string& message) const {
    throw TrapError("work-item (" + std::to_string(globalId_[0]) + "," +
                    std::to_string(globalId_[1]) + "," +
                    std::to_string(globalId_[2]) + ") in kernel '" +
                    ctx_->kernel->name + "': " + message);
  }

  // The member stack pointer: used by the helpers resume() calls with
  // sp_ written back. Unchecked; the verifier proved the depths.
  void push(std::uint64_t v) noexcept { *sp_++ = v; }
  std::uint64_t pop() noexcept { return *--sp_; }

  /// Resolves a packed pointer to raw host memory, bounds-checking the
  /// access. Also maintains the global traffic counters.
  std::uint8_t* resolve(std::uint64_t ptr, std::size_t size, bool write) {
    const MemSpace space = pointerSpace(ptr);
    const std::uint64_t offset = pointerOffset(ptr);
    switch (space) {
      case MemSpace::Invalid:
        trap(ptr == 0 ? "null pointer dereference"
                      : "wild pointer dereference");
      case MemSpace::Private: {
        if (offset + size > arena_.size()) {
          trap("private memory access out of bounds (offset " +
               std::to_string(offset) + ", size " + std::to_string(size) +
               ", arena " + std::to_string(arena_.size()) + ")");
        }
        return arena_.data() + offset;
      }
      case MemSpace::Local: {
        if (offset + size > localSize_) {
          trap("__local memory access out of bounds (offset " +
               std::to_string(offset) + ", size " + std::to_string(size) +
               ", local " + std::to_string(localSize_) + ")");
        }
        return localBase_ + offset;
      }
      case MemSpace::Global: {
        const std::uint64_t seg = pointerSegment(ptr);
        // One-entry segment cache: kernels overwhelmingly stream through a
        // single buffer, so hoist the table lookup out of the common case.
        if (std::uint32_t(seg) != cachedSeg_) {
          if (seg >= ctx_->segments->size()) {
            trap("invalid __global pointer (null or stale?)");
          }
          const Segment& segment = (*ctx_->segments)[seg];
          cachedSeg_ = std::uint32_t(seg);
          cachedBase_ = segment.base;
          cachedSize_ = segment.size;
        }
        if (offset + size > cachedSize_) {
          trap("__global memory access out of bounds (buffer " +
               std::to_string(seg) + ", offset " + std::to_string(offset) +
               ", size " + std::to_string(size) + ", buffer size " +
               std::to_string(cachedSize_) + ")");
        }
        if (write) {
          bytesWritten_ += size;
        } else {
          bytesRead_ += size;
        }
        cycles_ += 8; // global memory latency beyond the base op cost
        return cachedBase_ + offset;
      }
    }
    trap("wild pointer");
  }

  std::uint64_t arith(Op op, TypeTag tag, std::uint64_t lhs,
                      std::uint64_t rhs) {
    std::uint64_t out = 0;
    switch (evalArith(op, tag, lhs, rhs, out)) {
      case EvalStatus::Ok:
        return out;
      case EvalStatus::DivByZero:
        trap(op == Op::Rem ? "integer remainder by zero"
                           : "integer division by zero");
      case EvalStatus::BadOp:
        break;
    }
    trap(isFloatTag(tag) ? "float bitwise op" : "bad arithmetic op");
  }

  bool compare(Op op, TypeTag tag, std::uint64_t lhs, std::uint64_t rhs) {
    bool out = false;
    if (evalCompare(op, tag, lhs, rhs, out) != EvalStatus::Ok) {
      trap("bad compare op");
    }
    return out;
  }

  /// The op embedded in a superinstruction: arithmetic or compare.
  std::uint64_t binary(Op op, TypeTag tag, std::uint64_t lhs,
                       std::uint64_t rhs) {
    if (isCompareOp(op)) {
      return compare(op, tag, lhs, rhs) ? 1 : 0;
    }
    return arith(op, tag, lhs, rhs);
  }

  void doCall(std::uint32_t funcIndex) {
    if (frames_.size() >= kMaxCallDepth) {
      trap("call stack overflow");
    }
    const FunctionInfo& f = ctx_->program->functions[funcIndex];
    const std::uint32_t newBase =
        std::uint32_t((arena_.size() + 7) / 8 * 8);
    if (newBase + f.frameSize > kMaxPrivateArena) {
      trap("private memory exhausted");
    }
    arena_.resize(newBase + f.frameSize, 0);

    // Pop arguments in reverse into the callee frame.
    for (std::size_t i = f.params.size(); i-- > 0;) {
      const ParamInfo& p = f.params[i];
      const std::uint64_t v = pop();
      if (p.kind == ParamKind::Struct) {
        const std::uint8_t* src = resolve(v, p.size, /*write=*/false);
        std::memcpy(arena_.data() + newBase + p.frameOffset, src, p.size);
      } else {
        std::memcpy(arena_.data() + newBase + p.frameOffset, &v,
                    std::min<std::size_t>(p.size, 8));
      }
    }
    if (f.returnsStruct) {
      const std::uint64_t sret = pop();
      std::memcpy(arena_.data() + newBase, &sret, 8); // slot 0 = sret
    }

    Frame frame;
    frame.funcIndex = funcIndex;
    frame.returnPc = pc_;
    frame.frameBase = newBase;
    frame.prevBase = frames_.back().frameBase;
    frames_.push_back(frame);
    pc_ = f.codeStart;
  }

  /// Returns true when the kernel's top-level function returned.
  bool doReturn() {
    const Frame frame = frames_.back();
    frames_.pop_back();
    if (frames_.empty()) {
      status_ = ItemStatus::Done;
      return true;
    }
    arena_.resize(frame.frameBase);
    pc_ = frame.returnPc;
    return false;
  }

  void doBuiltin(Builtin id, TypeTag tag) {
    cycles_ += builtinCycleCost(id);
    switch (id) {
      case Builtin::GetGlobalId: push(idQuery(globalId_)); return;
      case Builtin::GetLocalId: push(idQuery(localId_)); return;
      case Builtin::GetGroupId: push(idQuery(groupId_)); return;
      case Builtin::GetGlobalSize: {
        const std::uint64_t d = pop();
        push(d < 3 ? ctx_->range.globalSize[d] : 1);
        return;
      }
      case Builtin::GetLocalSize: {
        const std::uint64_t d = pop();
        push(d < 3 ? ctx_->range.localSize[d] : 1);
        return;
      }
      case Builtin::GetNumGroups: {
        const std::uint64_t d = pop();
        push(d < 3 ? ctx_->groupCount[d] : 1);
        return;
      }
      case Builtin::GetWorkDim:
        push(ctx_->range.dims);
        return;
      default:
        break;
    }

    if (id >= Builtin::AtomicAdd && id <= Builtin::AtomicAddFloat) {
      doAtomic(id, tag);
      return;
    }

    const std::uint8_t arity = builtinArity(id);
    std::uint64_t a[3] = {0, 0, 0};
    for (std::size_t i = arity; i-- > 0;) {
      a[i] = pop();
    }
    const bool f64 = tag == TypeTag::F64;
    const auto x = [&](int i) {
      return f64 ? slotF64(a[i]) : double(slotF32(a[i]));
    };
    const auto ret = [&](double d) {
      push(f64 ? f64Slot(d) : f32Slot(float(d)));
    };
    // For f32 operands compute in float precision where it matters
    // (matches what a GPU would produce more closely).
    const auto retf = [&](auto fn) {
      if (f64) {
        push(f64Slot(fn(slotF64(a[0]))));
      } else {
        push(f32Slot(fn(slotF32(a[0]))));
      }
    };
    const auto retf2 = [&](auto fn) {
      if (f64) {
        push(f64Slot(fn(slotF64(a[0]), slotF64(a[1]))));
      } else {
        push(f32Slot(fn(slotF32(a[0]), slotF32(a[1]))));
      }
    };

    switch (id) {
      case Builtin::Sqrt: retf([](auto v) { return std::sqrt(v); }); return;
      case Builtin::Rsqrt:
        retf([](auto v) { return decltype(v)(1) / std::sqrt(v); });
        return;
      case Builtin::Sin: retf([](auto v) { return std::sin(v); }); return;
      case Builtin::Cos: retf([](auto v) { return std::cos(v); }); return;
      case Builtin::Tan: retf([](auto v) { return std::tan(v); }); return;
      case Builtin::Asin: retf([](auto v) { return std::asin(v); }); return;
      case Builtin::Acos: retf([](auto v) { return std::acos(v); }); return;
      case Builtin::Atan: retf([](auto v) { return std::atan(v); }); return;
      case Builtin::Exp: retf([](auto v) { return std::exp(v); }); return;
      case Builtin::Exp2: retf([](auto v) { return std::exp2(v); }); return;
      case Builtin::Log: retf([](auto v) { return std::log(v); }); return;
      case Builtin::Log2: retf([](auto v) { return std::log2(v); }); return;
      case Builtin::Log10: retf([](auto v) { return std::log10(v); }); return;
      case Builtin::Fabs: retf([](auto v) { return std::fabs(v); }); return;
      case Builtin::Floor: retf([](auto v) { return std::floor(v); }); return;
      case Builtin::Ceil: retf([](auto v) { return std::ceil(v); }); return;
      case Builtin::Round: retf([](auto v) { return std::round(v); }); return;
      case Builtin::Trunc: retf([](auto v) { return std::trunc(v); }); return;
      case Builtin::Pow:
        retf2([](auto x_, auto y_) { return std::pow(x_, y_); });
        return;
      case Builtin::Atan2:
        retf2([](auto x_, auto y_) { return std::atan2(x_, y_); });
        return;
      case Builtin::Fmod:
        retf2([](auto x_, auto y_) { return std::fmod(x_, y_); });
        return;
      case Builtin::Fmin:
        retf2([](auto x_, auto y_) { return std::fmin(x_, y_); });
        return;
      case Builtin::Fmax:
        retf2([](auto x_, auto y_) { return std::fmax(x_, y_); });
        return;
      case Builtin::Hypot:
        retf2([](auto x_, auto y_) { return std::hypot(x_, y_); });
        return;
      case Builtin::Copysign:
        retf2([](auto x_, auto y_) { return std::copysign(x_, y_); });
        return;
      case Builtin::Mad:
      case Builtin::Fma:
        if (f64) {
          push(f64Slot(std::fma(slotF64(a[0]), slotF64(a[1]), slotF64(a[2]))));
        } else {
          push(f32Slot(std::fma(slotF32(a[0]), slotF32(a[1]), slotF32(a[2]))));
        }
        return;
      case Builtin::Mix:
        ret(x(0) + (x(1) - x(0)) * x(2));
        return;
      case Builtin::Clamp:
        ret(std::fmin(std::fmax(x(0), x(1)), x(2)));
        return;
      case Builtin::IClamp: {
        const auto v = std::int64_t(a[0]);
        const auto lo = std::int64_t(a[1]);
        const auto hi = std::int64_t(a[2]);
        push(std::uint64_t(std::min(std::max(v, lo), hi)));
        return;
      }
      case Builtin::IMin:
      case Builtin::IMax: {
        const bool wantMin = id == Builtin::IMin;
        if (isSignedTag(tag)) {
          const auto l = std::int64_t(a[0]);
          const auto r = std::int64_t(a[1]);
          push(std::uint64_t(wantMin ? std::min(l, r) : std::max(l, r)));
        } else {
          push(wantMin ? std::min(a[0], a[1]) : std::max(a[0], a[1]));
        }
        return;
      }
      case Builtin::IAbs: {
        const auto v = std::int64_t(a[0]);
        push(canon(std::uint64_t(v < 0 ? -v : v), tag));
        return;
      }
      case Builtin::AsInt:
      case Builtin::AsUInt:
      case Builtin::AsFloat:
        // 32-bit reinterpretation: the slot already holds the bits.
        push(id == Builtin::AsInt ? canon(a[0], TypeTag::I32)
                                  : (a[0] & 0xffffffffULL));
        return;
      case Builtin::ConvertInt:
        push(convert(a[0], tag, TypeTag::I32));
        return;
      case Builtin::ConvertUInt:
        push(convert(a[0], tag, TypeTag::U32));
        return;
      case Builtin::ConvertFloat:
        push(convert(a[0], tag, TypeTag::F32));
        return;
      default:
        trap(std::string("builtin not implemented: ") + builtinName(id));
    }
  }

  void doAtomic(Builtin id, TypeTag tag) {
    ++atomics_;
    const std::uint8_t arity = builtinArity(id);
    std::uint64_t a[3] = {0, 0, 0};
    for (std::size_t i = arity; i-- > 0;) {
      a[i] = pop();
    }
    const std::uint64_t ptr = a[0];
    const MemSpace space = pointerSpace(ptr);
    std::uint8_t* p = resolve(ptr, 4, /*write=*/true);
    if ((reinterpret_cast<std::uintptr_t>(p) & 3) != 0) {
      trap("misaligned atomic access");
    }
    auto* word = reinterpret_cast<std::uint32_t*>(p);

    // Global memory may be touched by several host threads (one per
    // work-group); __local memory is single-threaded within the group.
    const bool needAtomic = space == MemSpace::Global;

    const auto rmw = [&](auto fn) -> std::uint32_t {
      if (needAtomic) {
        std::atomic_ref<std::uint32_t> ref(*word);
        std::uint32_t expected = ref.load(std::memory_order_relaxed);
        for (;;) {
          const std::uint32_t desired = fn(expected);
          if (ref.compare_exchange_weak(expected, desired,
                                        std::memory_order_acq_rel)) {
            return expected;
          }
        }
      }
      const std::uint32_t old = *word;
      *word = fn(old);
      return old;
    };

    const auto operand = std::uint32_t(a[1]);
    std::uint32_t old = 0;
    switch (id) {
      case Builtin::AtomicAdd:
        old = rmw([&](std::uint32_t v) { return v + operand; });
        break;
      case Builtin::AtomicSub:
        old = rmw([&](std::uint32_t v) { return v - operand; });
        break;
      case Builtin::AtomicXchg:
        old = rmw([&](std::uint32_t) { return operand; });
        break;
      case Builtin::AtomicMin:
        if (isSignedTag(tag)) {
          old = rmw([&](std::uint32_t v) {
            return std::uint32_t(
                std::min(std::int32_t(v), std::int32_t(operand)));
          });
        } else {
          old = rmw([&](std::uint32_t v) { return std::min(v, operand); });
        }
        break;
      case Builtin::AtomicMax:
        if (isSignedTag(tag)) {
          old = rmw([&](std::uint32_t v) {
            return std::uint32_t(
                std::max(std::int32_t(v), std::int32_t(operand)));
          });
        } else {
          old = rmw([&](std::uint32_t v) { return std::max(v, operand); });
        }
        break;
      case Builtin::AtomicAnd:
        old = rmw([&](std::uint32_t v) { return v & operand; });
        break;
      case Builtin::AtomicOr:
        old = rmw([&](std::uint32_t v) { return v | operand; });
        break;
      case Builtin::AtomicXor:
        old = rmw([&](std::uint32_t v) { return v ^ operand; });
        break;
      case Builtin::AtomicInc:
        old = rmw([&](std::uint32_t v) { return v + 1; });
        break;
      case Builtin::AtomicDec:
        old = rmw([&](std::uint32_t v) { return v - 1; });
        break;
      case Builtin::AtomicCmpXchg: {
        const auto cmp = std::uint32_t(a[1]);
        const auto val = std::uint32_t(a[2]);
        old = rmw([&](std::uint32_t v) { return v == cmp ? val : v; });
        break;
      }
      case Builtin::AtomicAddFloat: {
        const float add = slotF32(a[1]);
        old = rmw([&](std::uint32_t v) {
          float f;
          std::memcpy(&f, &v, 4);
          f += add;
          std::uint32_t out;
          std::memcpy(&out, &f, 4);
          return out;
        });
        push(old & 0xffffffffULL);
        return;
      }
      default:
        trap("bad atomic builtin");
    }
    push(canon(old, tag == TypeTag::F32 ? TypeTag::U32 : tag));
  }

  std::uint64_t idQuery(const std::size_t ids[3]) {
    const std::uint64_t d = pop();
    return d < 3 ? ids[d] : 0;
  }

  void fillKernelArgs() {
    const FunctionInfo& f = *ctx_->kernelFunc;
    const auto& args = *ctx_->args;
    COMMON_CHECK(args.size() == f.params.size());
    std::size_t localArgIdx = 0;
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      const ParamInfo& p = f.params[i];
      const KernelArgValue& arg = args[i];
      std::uint64_t slot = 0;
      switch (arg.kind) {
        case KernelArgValue::Kind::Buffer:
          slot = packPointer(MemSpace::Global, arg.segmentIndex, 0);
          break;
        case KernelArgValue::Kind::Local:
          slot = packPointer(MemSpace::Local, 0,
                             ctx_->localArgOffsets[localArgIdx++]);
          break;
        case KernelArgValue::Kind::Scalar:
          slot = arg.scalar;
          break;
        case KernelArgValue::Kind::Struct:
          COMMON_CHECK(arg.bytes.size() == p.size);
          std::memcpy(arena_.data() + p.frameOffset, arg.bytes.data(),
                      p.size);
          continue;
      }
      if (p.kind == ParamKind::LocalPtr && arg.kind != KernelArgValue::Kind::Local) {
        // Counting of local args must stay in sync; reaching here is a
        // host-side bug caught earlier by ocl::Kernel::setArg.
        COMMON_CHECK_MSG(false, "local param given non-local arg");
      }
      std::memcpy(arena_.data() + p.frameOffset, &slot,
                  std::min<std::size_t>(p.size == 0 ? 8 : p.size, 8));
    }
  }

  const LaunchContext* ctx_ = nullptr;
  std::uint8_t* localBase_ = nullptr;
  std::size_t localSize_ = 0;
  std::size_t globalId_[3] = {0, 0, 0};
  std::size_t localId_[3] = {0, 0, 0};
  std::size_t groupId_[3] = {0, 0, 0};

  std::vector<std::uint8_t> arena_;
  /// Fixed operand array of the kernel's verified peak depth.
  std::vector<std::uint64_t> stack_;
  std::uint64_t* sp_ = nullptr; // one past the top slot
  std::vector<Frame> frames_;
  std::uint32_t pc_ = 0;
  ItemStatus status_ = ItemStatus::Running;

  // One-entry __global segment cache (see resolve()).
  std::uint32_t cachedSeg_ = ~0u;
  std::uint8_t* cachedBase_ = nullptr;
  std::size_t cachedSize_ = 0;

  std::uint64_t cycles_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t bytesRead_ = 0;
  std::uint64_t bytesWritten_ = 0;
  std::uint64_t atomics_ = 0;
};

/// Per-group counters filled by the group runner.
struct GroupResult {
  GroupCost cost;
  std::uint64_t instructions = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t atomics = 0;
  std::uint64_t barrierWaits = 0;
};

void runGroup(const LaunchContext& ctx, std::size_t groupLinear,
              GroupResult& result) {
  const std::size_t gx = groupLinear % ctx.groupCount[0];
  const std::size_t gy = (groupLinear / ctx.groupCount[0]) % ctx.groupCount[1];
  const std::size_t gz = groupLinear / (ctx.groupCount[0] * ctx.groupCount[1]);
  const std::size_t groupId[3] = {gx, gy, gz};

  std::vector<std::uint8_t> localMem(ctx.totalLocalSize, 0);
  const std::size_t itemCount = ctx.range.totalLocal();

  if (!ctx.hasBarrier) {
    // Fast path: the kernel can never yield, so each work-item runs
    // straight through on one reusable interpreter. Arena/stack capacity
    // carries over between items and there is no fiber bookkeeping.
    ItemVM vm;
    for (std::size_t lz = 0; lz < ctx.range.localSize[2]; ++lz) {
      for (std::size_t ly = 0; ly < ctx.range.localSize[1]; ++ly) {
        for (std::size_t lx = 0; lx < ctx.range.localSize[0]; ++lx) {
          const std::size_t localId[3] = {lx, ly, lz};
          const std::size_t globalId[3] = {
              ctx.range.globalOffset[0] + gx * ctx.range.localSize[0] + lx,
              ctx.range.globalOffset[1] + gy * ctx.range.localSize[1] + ly,
              ctx.range.globalOffset[2] + gz * ctx.range.localSize[2] + lz,
          };
          vm.init(ctx, localMem.data(), localMem.size(), globalId, localId,
                  groupId);
          vm.resume();
          COMMON_CHECK_MSG(vm.status() == ItemStatus::Done,
                           "barrier in a kernel classified barrier-free");
          result.cost.sumCycles += vm.cycles();
          result.cost.maxCycles = std::max(result.cost.maxCycles, vm.cycles());
          result.instructions += vm.instructions();
          result.bytesRead += vm.bytesRead();
          result.bytesWritten += vm.bytesWritten();
          result.atomics += vm.atomics();
        }
      }
    }
    return;
  }

  // Each host thread keeps its interpreters between groups and launches,
  // so their operand stacks, arenas and frame lists are allocated once
  // per thread instead of once per work-item and group; init() resets
  // every item before it runs.
  thread_local std::vector<ItemVM> items;
  items.resize(itemCount);

  std::size_t idx = 0;
  for (std::size_t lz = 0; lz < ctx.range.localSize[2]; ++lz) {
    for (std::size_t ly = 0; ly < ctx.range.localSize[1]; ++ly) {
      for (std::size_t lx = 0; lx < ctx.range.localSize[0]; ++lx) {
        const std::size_t localId[3] = {lx, ly, lz};
        const std::size_t globalId[3] = {
            ctx.range.globalOffset[0] + gx * ctx.range.localSize[0] + lx,
            ctx.range.globalOffset[1] + gy * ctx.range.localSize[1] + ly,
            ctx.range.globalOffset[2] + gz * ctx.range.localSize[2] + lz,
        };
        items[idx++].init(ctx, localMem.data(), localMem.size(), globalId,
                          localId, groupId);
      }
    }
  }

  // Round-robin between barriers.
  for (;;) {
    std::size_t done = 0;
    std::size_t atBarrier = 0;
    for (ItemVM& item : items) {
      if (item.status() == ItemStatus::Done) {
        ++done;
        continue;
      }
      item.resume();
      if (item.status() == ItemStatus::Done) {
        ++done;
      } else {
        ++atBarrier;
      }
    }
    if (atBarrier == 0) {
      break;
    }
    if (done != 0) {
      throw TrapError(
          "barrier divergence in kernel '" + ctx.kernel->name +
          "': some work-items of a group finished while others wait at a "
          "barrier");
    }
    ++result.barrierWaits;
  }

  for (const ItemVM& item : items) {
    result.cost.sumCycles += item.cycles();
    result.cost.maxCycles = std::max(result.cost.maxCycles, item.cycles());
    result.instructions += item.instructions();
    result.bytesRead += item.bytesRead();
    result.bytesWritten += item.bytesWritten();
    result.atomics += item.atomics();
  }
}

} // namespace

std::uint32_t opCycleCost(Op op) noexcept {
  switch (op) {
    case Op::Nop:
    case Op::Dup:
    case Op::Pop:
    case Op::Swap:
    case Op::Rot3:
      return 0; // stack shuffling models register traffic: free
    case Op::PushConst:
    case Op::PushFrameAddr:
    case Op::PushLocalAddr:
      return 1;
    case Op::Load:
    case Op::Store:
    case Op::StoreKeep:
      return 2; // private/local latency; global adds +8 in resolve()
    case Op::MemCopy:
      return 4;
    case Op::Div:
    case Op::Rem:
      return 8;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Neg:
    case Op::Shl:
    case Op::Shr:
    case Op::BitAnd:
    case Op::BitOr:
    case Op::BitXor:
    case Op::BitNot:
    case Op::CmpEq:
    case Op::CmpNe:
    case Op::CmpLt:
    case Op::CmpLe:
    case Op::CmpGt:
    case Op::CmpGe:
    case Op::LogNot:
    case Op::Conv:
      return 1;
    case Op::Jmp:
    case Op::Jz:
    case Op::Jnz:
      return 1;
    case Op::Call:
    case Op::Ret:
    case Op::RetVal:
    case Op::RetStruct:
      return 4;
    case Op::CallBuiltin:
      return 0; // builtinCycleCost covers it
    case Op::Barrier:
      return 16;
    case Op::Trap:
      return 0;
    // Superinstructions: the cost of the canonical sequence they replace.
    // Embedded ops are not visible here; instrCycleCost decodes them.
    case Op::LoadFrame:
    case Op::StoreFrame:
      return 3; // PushFrameAddr (1) + Load/Store (2)
    case Op::BinConst:
      return 2; // PushConst (1) + binop (1)
    case Op::FrameBin:
      return 4; // LoadFrame (3) + binop (1)
    case Op::LoadBin:
      return 3; // Load (2) + binop (1)
    case Op::CmpJz:
    case Op::CmpJnz:
      return 2; // compare (1) + conditional jump (1)
    case Op::MulAdd:
      return 2; // Mul (1) + Add (1)
    case Op::FrameBin2:
      return 7; // LoadFrame (3) + FrameBin without op (3) + binop (1)
  }
  return 1;
}

std::uint32_t instrCycleCost(const Instr& instr) noexcept {
  switch (instr.op) {
    case Op::BinConst:
      return 1 + opCycleCost(embeddedOp(instr.a));
    case Op::FrameBin:
      return 3 + opCycleCost(embeddedOp(instr.a));
    case Op::LoadBin:
      return 2 + opCycleCost(Op(instr.a));
    case Op::FrameBin2:
      return 6 + opCycleCost(frame2Op(instr.a));
    default:
      return opCycleCost(instr.op);
  }
}

LaunchStats executeKernel(const Program& program,
                          const std::string& kernelName, const NDRange& range,
                          const std::vector<KernelArgValue>& args,
                          const std::vector<Segment>& segments,
                          common::ThreadPool* pool) {
  const KernelInfo* kernel = program.findKernel(kernelName);
  if (kernel == nullptr) {
    throw common::InvalidArgument("no kernel named '" + kernelName + "'");
  }

  if (!program.verified || program.chargedCosts.size() != program.code.size()) {
    throw common::InvalidArgument(
        "kernel '" + kernelName +
        "' belongs to a program that has not been verified (clc::verify)");
  }

  LaunchContext ctx;
  ctx.program = &program;
  ctx.segments = &segments;
  ctx.kernel = kernel;
  ctx.kernelFunc = &program.functions[kernel->functionIndex];
  ctx.args = &args;
  ctx.range = range;
  ctx.hasBarrier = kernel->hasBarrier;
  ctx.costs = program.chargedCosts.data();

  if (args.size() != ctx.kernelFunc->params.size()) {
    throw common::InvalidArgument(
        "kernel '" + kernelName + "' expects " +
        std::to_string(ctx.kernelFunc->params.size()) + " arguments, got " +
        std::to_string(args.size()));
  }

  for (std::uint32_t d = 0; d < 3; ++d) {
    if (range.localSize[d] == 0 || range.globalSize[d] == 0) {
      throw common::InvalidArgument("ND-range sizes must be non-zero");
    }
    if (range.globalSize[d] % range.localSize[d] != 0) {
      throw common::InvalidArgument(
          "global size must be divisible by the work-group size "
          "(OpenCL 1.1 rule); dimension " +
          std::to_string(d) + ": " + std::to_string(range.globalSize[d]) +
          " % " + std::to_string(range.localSize[d]) + " != 0");
    }
    ctx.groupCount[d] = range.globalSize[d] / range.localSize[d];
  }

  // Layout of one work-group's local memory: static __local declarations
  // first, then each __local pointer argument's region.
  std::uint32_t localTop = kernel->staticLocalSize;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (ctx.kernelFunc->params[i].kind == ParamKind::LocalPtr) {
      if (args[i].kind != KernelArgValue::Kind::Local) {
        throw common::InvalidArgument(
            "kernel argument " + std::to_string(i) +
            " is a __local pointer; the host must supply a size");
      }
      localTop = (localTop + 7) / 8 * 8;
      ctx.localArgOffsets.push_back(localTop);
      localTop += args[i].localSize;
    }
  }
  ctx.totalLocalSize = localTop;

  const std::size_t numGroups =
      ctx.groupCount[0] * ctx.groupCount[1] * ctx.groupCount[2];
  std::vector<GroupResult> results(numGroups);

  const auto runOne = [&](std::size_t g) { runGroup(ctx, g, results[g]); };
  if (pool != nullptr && numGroups > 1) {
    pool->parallelFor(numGroups, runOne);
  } else {
    for (std::size_t g = 0; g < numGroups; ++g) {
      runOne(g);
    }
  }

  LaunchStats stats;
  stats.groups.reserve(numGroups);
  for (const GroupResult& r : results) {
    stats.groups.push_back(r.cost);
    stats.instructions += r.instructions;
    stats.totalCycles += r.cost.sumCycles;
    stats.globalBytesRead += r.bytesRead;
    stats.globalBytesWritten += r.bytesWritten;
    stats.atomicOps += r.atomics;
    stats.barrierWaits += r.barrierWaits;
  }
  return stats;
}

} // namespace clc
