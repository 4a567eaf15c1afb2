// Bytecode verifier: one hand-made malformed Program per rule, each
// rejected with a VerifyError that names the function and pc (and by the
// cache-load path with a DeserializeError); the facts recorded for
// well-formed programs; and every example and skeleton kernel verifying
// to the same facts whether built fresh or loaded from its binary.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "clc/builtins.h"
#include "clc/codegen.h"
#include "clc/opt.h"
#include "clc/serialize.h"
#include "clc/verify.h"
#include "clc/vm.h"
#include "common/byte_stream.h"
#include "mandelbrot/mandelbrot.h"
#include "skelcl/detail/runtime.h"
#include "skelcl_test_util.h"

namespace {

using clc::Instr;
using clc::Op;
using clc::TypeTag;

Instr I(Op op, TypeTag tag = TypeTag::I32, std::int32_t a = 0) {
  return Instr{op, tag, a};
}

/// One function of a hand-made program; functions are laid out back to
/// back and the first one is kernel "k".
struct Fn {
  std::string name;
  std::vector<Instr> code;
  std::uint32_t params = 0; // i32 scalars at frame offsets 0, 8, ...
  bool returnsValue = false;
};

clc::Program makeProgram(const std::vector<Fn>& fns) {
  clc::Program p;
  p.constants = {7};
  for (const Fn& fn : fns) {
    clc::FunctionInfo f;
    f.name = fn.name;
    f.codeStart = std::uint32_t(p.code.size());
    p.code.insert(p.code.end(), fn.code.begin(), fn.code.end());
    f.codeEnd = std::uint32_t(p.code.size());
    f.frameSize = 64;
    f.returnsValue = fn.returnsValue;
    for (std::uint32_t i = 0; i < fn.params; ++i) {
      clc::ParamInfo param;
      param.name = "p";
      param.name += std::to_string(i);
      param.size = 4;
      param.frameOffset = 8 * i;
      f.params.push_back(param);
    }
    p.functions.push_back(std::move(f));
  }
  p.functions[0].isKernel = true;
  clc::KernelInfo k;
  k.name = "k";
  p.kernels.push_back(std::move(k));
  return p;
}

/// Both entry points reject `p`: verify() with a VerifyError naming
/// `function` and `pc`, the cache-load path with a DeserializeError.
void expectRejected(clc::Program p, const std::string& function,
                    std::int64_t pc, const std::string& reason) {
  const std::vector<std::uint8_t> binary = clc::serializeProgram(p);
  try {
    clc::verify(p);
    ADD_FAILURE() << "verified a program that should fail: " << reason;
  } catch (const clc::VerifyError& e) {
    EXPECT_EQ(e.function(), function) << e.what();
    EXPECT_EQ(e.pc(), pc) << e.what();
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
    EXPECT_FALSE(p.verified);
  }
  try {
    (void)clc::deserializeProgram(binary);
    ADD_FAILURE() << "loaded a binary that should fail: " << reason;
  } catch (const common::DeserializeError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

// --- one rule per test ------------------------------------------------------

TEST(Verify, RejectsPopOnEmptyStack) {
  expectRejected(makeProgram({{"k", {I(Op::Pop), I(Op::Ret)}}}), "k", 0,
                 "pops 1 slot(s) but the operand stack holds 0");
}

TEST(Verify, RejectsTopOfEmptyStack) {
  // Dup reads the top slot (the VM's unchecked top()).
  expectRejected(makeProgram({{"k", {I(Op::Dup), I(Op::Pop), I(Op::Pop),
                                     I(Op::Ret)}}}),
                 "k", 0, "pops 1 slot(s)");
}

TEST(Verify, RejectsMergeWithDifferentDepths) {
  // pc 1 jumps to pc 4 with depth 0; pc 3 reaches it with depth 1.
  expectRejected(makeProgram({{"k",
                               {I(Op::LoadFrame, TypeTag::I32, 0),
                                I(Op::Jz, TypeTag::I32, 4),
                                I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Jmp, TypeTag::I32, 4), I(Op::Ret)},
                               1}}),
                 "k", 4, "differs from depth 0 on another path");
}

TEST(Verify, RejectsJumpIntoAnotherFunction) {
  expectRejected(makeProgram({{"k", {I(Op::Jmp, TypeTag::I32, 2), I(Op::Ret)}},
                              {"g", {I(Op::Ret)}}}),
                 "k", 0, "jump target 2 is outside the function's code [0, 2)");
}

TEST(Verify, RejectsCompareJumpIntoAnotherFunction) {
  expectRejected(
      makeProgram({{"g", {I(Op::Ret)}},
                   {"h",
                    {I(Op::PushConst, TypeTag::I32, 0),
                     I(Op::PushConst, TypeTag::I32, 0),
                     I(Op::CmpJz, TypeTag::I32,
                       clc::encodeCmpJump(Op::CmpLt, 0)),
                     I(Op::Ret)}}}),
      "h", 3, "jump target 0 is outside");
}

TEST(Verify, RejectsFallThroughPastCodeEnd) {
  expectRejected(
      makeProgram({{"k", {I(Op::PushConst, TypeTag::I32, 0), I(Op::Pop)}},
                   {"g", {I(Op::Ret)}}}),
      "k", 1, "control falls through past the function's end (codeEnd 2)");
}

TEST(Verify, RejectsCallWithMissingArguments) {
  // g takes two parameters; k pushes one.
  expectRejected(makeProgram({{"k",
                               {I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::Call, TypeTag::I32, 1), I(Op::Pop),
                                I(Op::Ret)}},
                              {"g",
                               {I(Op::LoadFrame, TypeTag::I32, 0),
                                I(Op::RetVal)},
                               2,
                               true}}),
                 "k", 1, "call pops 2 slot(s) but the operand stack holds 1");
}

TEST(Verify, RejectsBuiltinWithMissingArguments) {
  // pow pops two operands.
  expectRejected(makeProgram({{"k",
                               {I(Op::PushConst, TypeTag::F32, 0),
                                I(Op::CallBuiltin, TypeTag::F32,
                                  std::int32_t(clc::Builtin::Pow)),
                                I(Op::Pop), I(Op::Ret)}}}),
                 "k", 1, "call_builtin pops 2 slot(s)");
}

TEST(Verify, RejectsCallCycleInForgedBinary) {
  // Sema forbids recursion, so only a forged binary can carry a cycle.
  expectRejected(makeProgram({{"k", {I(Op::Call, TypeTag::I32, 1), I(Op::Ret)}},
                              {"g", {I(Op::Call, TypeTag::I32, 0), I(Op::Ret)}}}),
                 "g", 2, "call cycle k -> g -> k");
}

TEST(Verify, RejectsDepthBeyondMaxOperands) {
  std::vector<Instr> code(clc::kMaxOperands + 1,
                          I(Op::PushConst, TypeTag::I32, 0));
  code.insert(code.end(), clc::kMaxOperands + 1, I(Op::Pop));
  code.push_back(I(Op::Ret));
  expectRejected(makeProgram({{"k", code}}), "k", clc::kMaxOperands,
                 "operand stack depth 4097 exceeds kMaxOperands (4096)");
}

TEST(Verify, RejectsDepthBeyondMaxOperandsThroughCall) {
  // k holds 4000 slots when it calls g, whose own peak is 100.
  std::vector<Instr> k(4000, I(Op::PushConst, TypeTag::I32, 0));
  k.push_back(I(Op::Call, TypeTag::I32, 1));
  k.insert(k.end(), 4000, I(Op::Pop));
  k.push_back(I(Op::Ret));
  std::vector<Instr> g(100, I(Op::PushConst, TypeTag::I32, 0));
  g.insert(g.end(), 100, I(Op::Pop));
  g.push_back(I(Op::Ret));
  expectRejected(makeProgram({{"k", k}, {"g", g}}), "k", 4000,
                 "operand stack depth 4100 exceeds kMaxOperands");
}

TEST(Verify, RejectsLeftoverSlotsAtReturn) {
  expectRejected(
      makeProgram({{"k", {I(Op::PushConst, TypeTag::I32, 0), I(Op::Ret)}}}),
      "k", 1, "returns with 1 slot(s) left on the operand stack");
}

TEST(Verify, RejectsReturnKindMismatch) {
  expectRejected(makeProgram({{"k",
                               {I(Op::PushConst, TypeTag::I32, 0),
                                I(Op::RetVal)}}}),
                 "k", 1, "ret_val does not match the function's return kind");
}

TEST(Verify, RejectsUnknownOpcodeAndTag) {
  expectRejected(makeProgram({{"k", {I(Op(std::uint8_t(clc::kMaxOp) + 1)),
                                     I(Op::Ret)}}}),
                 "k", 0, "unknown opcode");
  expectRejected(makeProgram({{"k", {I(Op::Nop, TypeTag(200)), I(Op::Ret)}}}),
                 "k", 0, "unknown type tag 200");
}

TEST(Verify, RejectsBadOperands) {
  // Constant-pool index, frame offset, builtin id, barrier as a builtin,
  // negative copy size: each operand the VM uses unchecked.
  const std::vector<std::vector<Instr>> bodies = {
      {I(Op::PushConst, TypeTag::I32, 1), I(Op::Pop), I(Op::Ret)},
      {I(Op::LoadFrame, TypeTag::I64, 60), I(Op::Pop), I(Op::Ret)},
      {I(Op::CallBuiltin, TypeTag::I32, 999), I(Op::Pop), I(Op::Ret)},
      {I(Op::CallBuiltin, TypeTag::I32, std::int32_t(clc::Builtin::Barrier)),
       I(Op::Pop), I(Op::Ret)},
      {I(Op::PushFrameAddr, TypeTag::Ptr, 0),
       I(Op::PushFrameAddr, TypeTag::Ptr, 8), I(Op::MemCopy, TypeTag::U8, -1),
       I(Op::Ret)},
      {I(Op::Call, TypeTag::I32, 5), I(Op::Ret)},
  };
  const std::vector<std::int64_t> pcs = {0, 0, 0, 0, 2, 0};
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    SCOPED_TRACE(i);
    expectRejected(makeProgram({{"k", bodies[i]}}), "k", pcs[i],
                   "malformed operand");
  }
}

TEST(Verify, RejectsParameterOutsideFrame) {
  clc::Program p = makeProgram({{"k", {I(Op::Ret)}, 1}});
  p.functions[0].params[0].frameOffset = 62;
  expectRejected(p, "k", clc::kNoPc, "parameter 'p0' lies outside");
}

TEST(Verify, RejectsEmptyFunctionAndBadKernel) {
  clc::Program p = makeProgram({{"k", {I(Op::Ret)}}});
  p.functions[0].codeStart = 1;
  expectRejected(p, "k", clc::kNoPc, "code range [1, 1) is empty");

  clc::Program q = makeProgram({{"k", {I(Op::Ret)}}});
  q.kernels[0].functionIndex = 3;
  expectRejected(q, "", clc::kNoPc, "kernel 'k' names function 3 of 1");
}

TEST(Verify, RejectsMismatchedCycleTable) {
  clc::Program p = makeProgram({{"k", {I(Op::Ret)}}});
  p.cycleCosts = {1, 2};
  expectRejected(p, "", clc::kNoPc, "cycle-cost table has 2 entries");
}

// --- recorded facts ---------------------------------------------------------

TEST(Verify, RecordsPeakDepthOverCallsAndBarrier) {
  // k holds two slots, pops one argument into g, and g peaks at two:
  // the kernel's peak is 1 + 2.
  clc::Program p = makeProgram(
      {{"k",
        {I(Op::PushConst, TypeTag::I32, 0), I(Op::PushConst, TypeTag::I32, 0),
         I(Op::Call, TypeTag::I32, 1), I(Op::Pop), I(Op::Pop), I(Op::Ret)}},
       {"g",
        {I(Op::LoadFrame, TypeTag::I32, 0), I(Op::PushConst, TypeTag::I32, 0),
         I(Op::Add, TypeTag::I32), I(Op::RetVal)},
        1,
        true}});
  clc::verify(p);
  EXPECT_TRUE(p.verified);
  EXPECT_EQ(p.kernels[0].maxOperands, 3u);
  EXPECT_FALSE(p.kernels[0].hasBarrier);
  EXPECT_EQ(p.chargedCosts.size(), p.code.size());
  EXPECT_EQ(p.chargedCosts[2], clc::instrCycleCost(p.code[2]));

  p.code.insert(p.code.begin() + 6, I(Op::Barrier)); // first instr of g
  p.functions[1].codeEnd += 1;
  clc::verify(p);
  EXPECT_TRUE(p.kernels[0].hasBarrier);
}

TEST(Verify, VmRefusesUnverifiedProgram) {
  clc::Program p = makeProgram({{"k", {I(Op::Ret)}}});
  EXPECT_THROW(clc::executeKernel(p, "k", clc::NDRange{}, {}, {}, nullptr),
               common::InvalidArgument);
  clc::verify(p);
  EXPECT_NO_THROW(clc::executeKernel(p, "k", clc::NDRange{}, {}, {}, nullptr));
}

// --- the corpus: fresh build and cache load agree ----------------------------

std::string readRepoFile(const std::string& relative) {
  const std::string path =
      std::string(SKELCL_REPRO_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Builds `source` at O0 and O2; each build must verify to the same
/// facts as its serialize-then-load round trip. Returns the kernel count.
std::size_t expectBothPathsAgree(const std::string& source) {
  std::size_t kernels = 0;
  for (const clc::OptLevel level : {clc::OptLevel::O0, clc::OptLevel::O2}) {
    clc::Program fresh = clc::compile(source);
    clc::optimize(fresh, level);
    const clc::Program loaded =
        clc::deserializeProgram(clc::serializeProgram(fresh));
    EXPECT_TRUE(fresh.verified);
    EXPECT_TRUE(loaded.verified);
    EXPECT_EQ(loaded.chargedCosts, fresh.chargedCosts);
    EXPECT_EQ(loaded.kernels.size(), fresh.kernels.size());
    for (std::size_t i = 0; i < fresh.kernels.size(); ++i) {
      SCOPED_TRACE(fresh.kernels[i].name);
      EXPECT_GT(fresh.kernels[i].maxOperands, 0u);
      EXPECT_EQ(loaded.kernels[i].maxOperands, fresh.kernels[i].maxOperands);
      EXPECT_EQ(loaded.kernels[i].hasBarrier, fresh.kernels[i].hasBarrier);
    }
    kernels = fresh.kernels.size();
  }
  return kernels;
}

TEST(VerifyCorpus, ExampleKernelsVerifyOnBothPaths) {
  std::size_t kernels = 0;
  for (const char* file :
       {"src/mandelbrot/kernels/mandelbrot_opencl.cl",
        "src/mandelbrot/kernels/mandelbrot_cuda.cl",
        "src/osem/kernels/osem_opencl.cl", "src/osem/kernels/osem_cuda.cl"}) {
    SCOPED_TRACE(file);
    kernels += expectBothPathsAgree(readRepoFile(file));
  }
  EXPECT_GE(kernels, 4u);
}

class VerifySkeletonCorpus : public skelcl_test::SkelclFixture {};

TEST_F(VerifySkeletonCorpus, SkeletonKernelsVerifyOnBothPaths) {
  using skelcl::Vector;
  const std::vector<float> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Vector<float> a(xs);
  Vector<float> b(xs);

  // The quickstart dot product (Zip fused into Reduce), a Map with an
  // extra argument, Scan, MapReduce, a Stencil, a SparseGather and the
  // Mandelbrot application's Map.
  skelcl::Zip<float> mult("float mult(float x, float y) { return x * y; }");
  skelcl::Reduce<float> sum("float sum(float x, float y) { return x + y; }");
  EXPECT_FLOAT_EQ(sum(mult(a, b)).getValue(), 385.0f);
  skelcl::Map<float> scale(
      "float scale(float x, float f) { return x * f; }");
  skelcl::Arguments factor;
  factor.push(2.0f);
  EXPECT_FLOAT_EQ(scale(a, factor)[3], 8.0f);
  skelcl::Scan<int> prefix("int add(int x, int y) { return x + y; }", "0");
  EXPECT_EQ(prefix(Vector<int>(std::vector<int>{1, 2, 3}))[2], 3);
  skelcl::MapReduce<float> sumSq(
      "float sq(float x) { return x * x; }",
      "float add2(float x, float y) { return x + y; }", 0.0f);
  EXPECT_FLOAT_EQ(sumSq(a).getValue(), 385.0f);
  skelcl::Stencil<int> blur("int s3(__global const int* w) {"
                            " return w[0] + w[1] + w[2]; }",
                            skelcl::StencilShape{1, skelcl::Boundary::Clamp, 0});
  EXPECT_EQ(blur(Vector<int>(std::vector<int>{1, 2, 3, 4}))[1], 6);
  skelcl::CsrMatrix<int> mat(2, 2, {0, 1, 2}, {1, 0}, {3, 4});
  skelcl::SparseGather<int> spmv("int g(int a, int x) { return a * x; }",
                                 "int c(int a, int b) { return a + b; }", "0");
  EXPECT_EQ(spmv(mat, Vector<int>(std::vector<int>{5, 6}))[0], 18);
  mandelbrot::FractalParams params;
  params.width = 32;
  params.height = 16;
  params.maxIterations = 8;
  EXPECT_EQ(mandelbrot::computeSkelCl(params).iterations,
            mandelbrot::computeReference(params).iterations);

  const std::vector<std::string> sources =
      skelcl::detail::Runtime::instance().programSources();
  EXPECT_GE(sources.size(), 7u);
  std::size_t kernels = 0;
  for (const std::string& source : sources) {
    kernels += expectBothPathsAgree(source);
  }
  EXPECT_GE(kernels, sources.size());
}

} // namespace
