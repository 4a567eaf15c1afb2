#include "clc/verify.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "clc/builtins.h"
#include "clc/vm.h"

namespace clc {

namespace {

std::string describe(const std::string& function, std::int64_t pc,
                     const std::string& message) {
  std::string out = "bytecode verification failed";
  if (!function.empty()) {
    out += " in function '" + function + "'";
  }
  if (pc != kNoPc) {
    out += " at pc " + std::to_string(pc);
  }
  return out + ": " + message;
}

bool validTag(TypeTag tag) noexcept { return tag <= TypeTag::Ptr; }

/// An op code packed into an immediate (BinConst, FrameBin, LoadBin,
/// FrameBin2) must name a binary arithmetic or compare op.
bool validEmbedded(std::int32_t code) noexcept {
  if (code < 0 || code > std::int32_t(kMaxOp)) {
    return false;
  }
  const Op op = Op(code);
  return isBinaryArithOp(op) || isCompareOp(op);
}

/// Bytes the VM writes into a parameter's frame slot (ItemVM::doCall and
/// the kernel-argument fill).
std::uint64_t paramSlotBytes(const ParamInfo& p) noexcept {
  if (p.kind == ParamKind::Struct) {
    return p.size;
  }
  return std::min<std::uint64_t>(p.size == 0 ? 8 : p.size, 8);
}

/// Operand-stack slots an instruction pops and pushes (Call and
/// CallBuiltin are resolved by the caller).
struct StackEffect {
  std::int32_t pops = 0;
  std::int32_t pushes = 0;
};

StackEffect effectOf(Op op) noexcept {
  switch (op) {
    case Op::Nop:
    case Op::Jmp:
    case Op::Barrier:
    case Op::Ret:
    case Op::Trap:
      return {0, 0};
    case Op::PushConst:
    case Op::PushFrameAddr:
    case Op::PushLocalAddr:
    case Op::LoadFrame:
    case Op::FrameBin2:
      return {0, 1};
    case Op::Dup:
      return {1, 2};
    case Op::Pop:
    case Op::Jz:
    case Op::Jnz:
    case Op::RetVal:
    case Op::RetStruct:
    case Op::StoreFrame:
      return {1, 0};
    case Op::Swap:
      return {2, 2};
    case Op::Rot3:
      return {3, 3};
    case Op::Load:
    case Op::Neg:
    case Op::BitNot:
    case Op::LogNot:
    case Op::Conv:
    case Op::BinConst:
    case Op::FrameBin:
      return {1, 1};
    case Op::Store:
    case Op::MemCopy:
    case Op::CmpJz:
    case Op::CmpJnz:
      return {2, 0};
    case Op::StoreKeep:
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Rem:
    case Op::Shl:
    case Op::Shr:
    case Op::BitAnd:
    case Op::BitOr:
    case Op::BitXor:
    case Op::CmpEq:
    case Op::CmpNe:
    case Op::CmpLt:
    case Op::CmpLe:
    case Op::CmpGt:
    case Op::CmpGe:
    case Op::LoadBin:
      return {2, 1};
    case Op::MulAdd:
      return {3, 1};
    case Op::Call:
    case Op::CallBuiltin:
      break;
  }
  return {0, 0};
}

class Verifier {
public:
  explicit Verifier(Program& program)
      : p_(program), callees_(program.functions.size()),
        maxDepth_(program.functions.size(), 0),
        barrier_(program.functions.size(), false),
        depth_(program.code.size(), -1) {}

  void run() {
    checkProgram();
    for (std::uint32_t fi = 0; fi < p_.functions.size(); ++fi) {
      checkOperands(fi);
    }
    for (const std::uint32_t fi : calleesFirst()) {
      interpret(fi);
    }
    for (KernelInfo& k : p_.kernels) {
      k.maxOperands = maxDepth_[k.functionIndex];
      k.hasBarrier = barrier_[k.functionIndex];
    }
    if (!p_.cycleCosts.empty()) {
      p_.chargedCosts = p_.cycleCosts;
    } else {
      p_.chargedCosts.resize(p_.code.size());
      for (std::size_t pc = 0; pc < p_.code.size(); ++pc) {
        p_.chargedCosts[pc] = instrCycleCost(p_.code[pc]);
      }
    }
    p_.verified = true;
  }

private:
  [[noreturn]] void fail(const FunctionInfo* f, std::int64_t pc,
                         const std::string& message) const {
    throw VerifyError(f != nullptr ? f->name : std::string(), pc, message);
  }

  /// Program-level tables: cost table, function ranges, frames,
  /// parameter slots, kernels.
  void checkProgram() const {
    const std::uint64_t codeSize = p_.code.size();
    if (!p_.cycleCosts.empty() && p_.cycleCosts.size() != codeSize) {
      fail(nullptr, kNoPc,
           "cycle-cost table has " + std::to_string(p_.cycleCosts.size()) +
               " entries for " + std::to_string(codeSize) + " instructions");
    }
    for (const FunctionInfo& f : p_.functions) {
      if (f.codeStart >= f.codeEnd || f.codeEnd > codeSize) {
        fail(&f, kNoPc,
             "code range [" + std::to_string(f.codeStart) + ", " +
                 std::to_string(f.codeEnd) + ") is empty or outside the " +
                 std::to_string(codeSize) + "-instruction program");
      }
      if (f.frameSize > kMaxFrameBytes) {
        fail(&f, kNoPc,
             "frame of " + std::to_string(f.frameSize) +
                 " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                 "-byte limit");
      }
      if (f.returnsValue && f.returnsStruct) {
        fail(&f, kNoPc, "returns both a scalar and a struct");
      }
      if (f.returnsStruct && f.frameSize < 8) {
        fail(&f, kNoPc, "struct return needs an 8-byte sret slot");
      }
      for (const ParamInfo& param : f.params) {
        if (param.kind > ParamKind::Struct || !validTag(param.scalarTag)) {
          fail(&f, kNoPc, "parameter '" + param.name + "' is malformed");
        }
        if (std::uint64_t(param.frameOffset) + paramSlotBytes(param) >
            f.frameSize) {
          fail(&f, kNoPc,
               "parameter '" + param.name + "' lies outside the " +
                   std::to_string(f.frameSize) + "-byte frame");
        }
      }
    }
    for (const KernelInfo& k : p_.kernels) {
      if (k.functionIndex >= p_.functions.size()) {
        fail(nullptr, kNoPc,
             "kernel '" + k.name + "' names function " +
                 std::to_string(k.functionIndex) + " of " +
                 std::to_string(p_.functions.size()));
      }
      if (k.staticLocalSize > kMaxStaticLocalBytes) {
        fail(&p_.functions[k.functionIndex], kNoPc,
             "static __local area of " + std::to_string(k.staticLocalSize) +
                 " bytes exceeds the " +
                 std::to_string(kMaxStaticLocalBytes) + "-byte limit");
      }
    }
  }

  /// Operand checks for every instruction of function `fi`; records its
  /// call edges.
  void checkOperands(std::uint32_t fi) {
    const FunctionInfo& f = p_.functions[fi];
    const auto inFrame = [&](std::int64_t offset, TypeTag tag) {
      return offset >= 0 &&
             std::uint64_t(offset) + typeTagSize(tag) <= f.frameSize;
    };
    const auto inFunction = [&](std::int64_t target) {
      return target >= std::int64_t(f.codeStart) &&
             target < std::int64_t(f.codeEnd);
    };
    for (std::uint32_t pc = f.codeStart; pc < f.codeEnd; ++pc) {
      const Instr& in = p_.code[pc];
      if (in.op > kMaxOp) {
        fail(&f, pc, "unknown opcode " + std::to_string(int(in.op)));
      }
      if (!validTag(in.tag)) {
        fail(&f, pc, "unknown type tag " + std::to_string(int(in.tag)));
      }
      const std::int32_t a = in.a;
      bool ok = true;
      switch (in.op) {
        case Op::PushConst:
          ok = a >= 0 && std::size_t(a) < p_.constants.size();
          break;
        case Op::MemCopy:
        case Op::RetStruct:
          ok = a >= 0;
          break;
        case Op::Conv:
          ok = validTag(TypeTag((a >> 8) & 0xff)) &&
               validTag(TypeTag(a & 0xff));
          break;
        case Op::Jmp:
        case Op::Jz:
        case Op::Jnz:
          if (!inFunction(a)) {
            fail(&f, pc, "jump target " + std::to_string(a) +
                             " is outside the function's code [" +
                             std::to_string(f.codeStart) + ", " +
                             std::to_string(f.codeEnd) + ")");
          }
          break;
        case Op::CmpJz:
        case Op::CmpJnz:
          ok = a >= 0 && isCompareOp(cmpFromJump(a));
          if (ok && !inFunction(cmpJumpTarget(a))) {
            fail(&f, pc, "jump target " + std::to_string(cmpJumpTarget(a)) +
                             " is outside the function's code [" +
                             std::to_string(f.codeStart) + ", " +
                             std::to_string(f.codeEnd) + ")");
          }
          break;
        case Op::Call:
          ok = a >= 0 && std::size_t(a) < p_.functions.size();
          if (ok) {
            callees_[fi].push_back({std::uint32_t(a), pc});
          }
          break;
        case Op::CallBuiltin:
          ok = a >= 0 && a <= std::int32_t(Builtin::AtomicAddFloat) &&
               !isBarrier(Builtin(a));
          break;
        case Op::LoadFrame:
        case Op::StoreFrame:
          ok = inFrame(a, in.tag);
          break;
        case Op::BinConst:
          ok = a >= 0 && validEmbedded(a >> kEmbedOpShift) &&
               std::size_t(embeddedOperand(a)) < p_.constants.size();
          break;
        case Op::FrameBin:
          ok = a >= 0 && validEmbedded(a >> kEmbedOpShift) &&
               inFrame(embeddedOperand(a), in.tag);
          break;
        case Op::LoadBin:
          ok = validEmbedded(a);
          break;
        case Op::FrameBin2:
          ok = a >= 0 && validEmbedded(a >> kFrame2OpShift) &&
               inFrame(frame2X(a), in.tag) && inFrame(frame2Y(a), in.tag);
          break;
        default:
          break;
      }
      if (!ok) {
        fail(&f, pc, std::string("malformed operand ") + std::to_string(a) +
                         " of " + opName(in.op));
      }
    }
  }

  /// Functions in an order where every callee precedes its callers;
  /// rejects call cycles.
  std::vector<std::uint32_t> calleesFirst() const {
    enum class Mark : std::uint8_t { New, Active, Done };
    std::vector<Mark> mark(p_.functions.size(), Mark::New);
    std::vector<std::uint32_t> order;
    order.reserve(p_.functions.size());
    struct Visit {
      std::uint32_t function;
      std::size_t nextEdge;
    };
    std::vector<Visit> stack;
    for (std::uint32_t root = 0; root < p_.functions.size(); ++root) {
      if (mark[root] != Mark::New) {
        continue;
      }
      mark[root] = Mark::Active;
      stack.push_back({root, 0});
      while (!stack.empty()) {
        const std::uint32_t f = stack.back().function;
        if (stack.back().nextEdge == callees_[f].size()) {
          mark[f] = Mark::Done;
          order.push_back(f);
          stack.pop_back();
          continue;
        }
        const CallEdge edge = callees_[f][stack.back().nextEdge++];
        if (mark[edge.callee] == Mark::Active) {
          std::string cycle;
          bool inCycle = false;
          for (const Visit& v : stack) {
            inCycle = inCycle || v.function == edge.callee;
            if (inCycle) {
              cycle += p_.functions[v.function].name + " -> ";
            }
          }
          fail(&p_.functions[f], edge.pc,
               "call cycle " + cycle + p_.functions[edge.callee].name);
        }
        if (mark[edge.callee] == Mark::New) {
          mark[edge.callee] = Mark::Active;
          stack.push_back({edge.callee, 0});
        }
      }
    }
    return order;
  }

  /// Abstract interpretation of operand-stack depth over function `fi`.
  /// Each reachable instruction gets one depth and is visited once.
  void interpret(std::uint32_t fi) {
    const FunctionInfo& f = p_.functions[fi];
    std::fill(depth_.begin() + f.codeStart, depth_.begin() + f.codeEnd, -1);
    std::vector<std::uint32_t> work = {f.codeStart};
    depth_[f.codeStart] = 0;
    std::int32_t peak = 0;
    bool barrier = false;

    const auto reach = [&](std::uint32_t from, std::uint32_t target,
                           std::int32_t d) {
      std::int32_t& slot = depth_[target];
      if (slot < 0) {
        slot = d;
        work.push_back(target);
      } else if (slot != d) {
        fail(&f, target,
             "operand stack depth " + std::to_string(d) + " from pc " +
                 std::to_string(from) + " differs from depth " +
                 std::to_string(slot) + " on another path");
      }
    };

    while (!work.empty()) {
      const std::uint32_t pc = work.back();
      work.pop_back();
      const Instr& in = p_.code[pc];
      const std::int32_t d = depth_[pc];
      StackEffect e = effectOf(in.op);
      std::int32_t calleePeak = 0;
      if (in.op == Op::Call) {
        const FunctionInfo& g = p_.functions[std::size_t(in.a)];
        e.pops = std::int32_t(g.params.size()) + (g.returnsStruct ? 1 : 0);
        e.pushes = g.returnsValue ? 1 : 0;
        calleePeak = std::int32_t(maxDepth_[std::size_t(in.a)]);
        barrier = barrier || barrier_[std::size_t(in.a)];
      } else if (in.op == Op::CallBuiltin) {
        e.pops = builtinArity(Builtin(in.a));
        e.pushes = 1;
      }
      if (d < e.pops) {
        fail(&f, pc,
             std::string(opName(in.op)) + " pops " + std::to_string(e.pops) +
                 " slot(s) but the operand stack holds " + std::to_string(d));
      }
      const std::int32_t after = d - e.pops + e.pushes;
      const std::int32_t high =
          std::max({d, after, d - e.pops + calleePeak});
      if (high > std::int32_t(kMaxOperands)) {
        fail(&f, pc,
             "operand stack depth " + std::to_string(high) +
                 " exceeds kMaxOperands (" + std::to_string(kMaxOperands) +
                 ")");
      }
      peak = std::max(peak, high);

      switch (in.op) {
        case Op::Ret:
        case Op::RetVal:
        case Op::RetStruct: {
          const bool fits = in.op == Op::Ret
                                ? !f.returnsValue && !f.returnsStruct
                                : (in.op == Op::RetVal ? f.returnsValue
                                                       : f.returnsStruct);
          if (!fits) {
            fail(&f, pc,
                 std::string(opName(in.op)) +
                     " does not match the function's return kind");
          }
          if (after != 0) {
            fail(&f, pc,
                 "returns with " + std::to_string(after) +
                     " slot(s) left on the operand stack");
          }
          continue;
        }
        case Op::Trap:
          continue;
        case Op::Jmp:
          reach(pc, std::uint32_t(in.a), after);
          continue;
        case Op::Jz:
        case Op::Jnz:
          reach(pc, std::uint32_t(in.a), after);
          break;
        case Op::CmpJz:
        case Op::CmpJnz:
          reach(pc, std::uint32_t(cmpJumpTarget(in.a)), after);
          break;
        case Op::Barrier:
          barrier = true;
          break;
        default:
          break;
      }
      if (pc + 1 >= f.codeEnd) {
        fail(&f, pc,
             "control falls through past the function's end (codeEnd " +
                 std::to_string(f.codeEnd) + ")");
      }
      reach(pc, pc + 1, after);
    }
    maxDepth_[fi] = std::uint32_t(peak);
    barrier_[fi] = barrier;
  }

  struct CallEdge {
    std::uint32_t callee;
    std::uint32_t pc;
  };

  Program& p_;
  std::vector<std::vector<CallEdge>> callees_;
  std::vector<std::uint32_t> maxDepth_;
  std::vector<bool> barrier_;
  std::vector<std::int32_t> depth_; // per pc, -1 = not reached yet
};

} // namespace

VerifyError::VerifyError(std::string function, std::int64_t pc,
                         const std::string& message)
    : common::Error(describe(function, pc, message)),
      function_(std::move(function)), pc_(pc) {}

void verify(Program& program) {
  program.verified = false;
  Verifier(program).run();
}

} // namespace clc
