// Layer-boundary spans without touching the library: the link step wraps
// the clc entry points the ocl layer calls (`-Wl,--wrap=<symbol>`, see
// perfbench.cmake), so every call from ocl into the compiler, optimizer,
// serializer and VM passes through one of the functions below, which
// opens a span and forwards to the real definition.
//
// The `__real_` references are weak: if a later change renames or
// re-signs one of these functions, the wrap no longer matches and the
// wrapper is never called, but the benchmark still links. The traced run
// then fails its checks (checkWrappedSpans() below, and the clc.vm span
// every traced round must record) instead of reporting a layer at 0.
#include <set>
#include <string>
#include <vector>

#include "clc/bytecode.h"
#include "clc/codegen.h"
#include "clc/opt.h"
#include "clc/serialize.h"
#include "clc/vm.h"
#include "harness.h"
#include "layers.h"

#define PERFBENCH_REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

namespace perfbench::wrapped {

clc::Program realCompile(const std::string& source)
    PERFBENCH_REAL(PERFBENCH_SYM_COMPILE);
clc::Program wrapCompile(const std::string& source)
    PERFBENCH_WRAP(PERFBENCH_SYM_COMPILE);
clc::Program wrapCompile(const std::string& source) {
  ScopedSpan span("clc.compile");
  return realCompile(source);
}

clc::OptStats realOptimize(clc::Program& program, clc::OptLevel level)
    PERFBENCH_REAL(PERFBENCH_SYM_OPTIMIZE);
clc::OptStats wrapOptimize(clc::Program& program, clc::OptLevel level)
    PERFBENCH_WRAP(PERFBENCH_SYM_OPTIMIZE);
clc::OptStats wrapOptimize(clc::Program& program, clc::OptLevel level) {
  ScopedSpan span("clc.opt");
  return realOptimize(program, level);
}

std::vector<std::uint8_t> realSerialize(const clc::Program& program)
    PERFBENCH_REAL(PERFBENCH_SYM_SERIALIZE);
std::vector<std::uint8_t> wrapSerialize(const clc::Program& program)
    PERFBENCH_WRAP(PERFBENCH_SYM_SERIALIZE);
std::vector<std::uint8_t> wrapSerialize(const clc::Program& program) {
  ScopedSpan span("clc.serialize");
  return realSerialize(program);
}

clc::Program realDeserialize(const std::vector<std::uint8_t>& bytes)
    PERFBENCH_REAL(PERFBENCH_SYM_DESERIALIZE);
clc::Program wrapDeserialize(const std::vector<std::uint8_t>& bytes)
    PERFBENCH_WRAP(PERFBENCH_SYM_DESERIALIZE);
clc::Program wrapDeserialize(const std::vector<std::uint8_t>& bytes) {
  ScopedSpan span("clc.deserialize");
  return realDeserialize(bytes);
}

clc::LaunchStats realExecute(const clc::Program& program,
                             const std::string& kernelName,
                             const clc::NDRange& range,
                             const std::vector<clc::KernelArgValue>& args,
                             const std::vector<clc::Segment>& segments,
                             common::ThreadPool* pool)
    PERFBENCH_REAL(PERFBENCH_SYM_EXECUTE);
clc::LaunchStats wrapExecute(const clc::Program& program,
                             const std::string& kernelName,
                             const clc::NDRange& range,
                             const std::vector<clc::KernelArgValue>& args,
                             const std::vector<clc::Segment>& segments,
                             common::ThreadPool* pool)
    PERFBENCH_WRAP(PERFBENCH_SYM_EXECUTE);
clc::LaunchStats wrapExecute(const clc::Program& program,
                             const std::string& kernelName,
                             const clc::NDRange& range,
                             const std::vector<clc::KernelArgValue>& args,
                             const std::vector<clc::Segment>& segments,
                             common::ThreadPool* pool) {
  ScopedSpan span("clc.vm");
  return realExecute(program, kernelName, range, args, segments, pool);
}

} // namespace perfbench::wrapped

namespace perfbench {

void checkWrappedSpans(Ledger& ledger) {
  constexpr std::int64_t kProbeRound = -2;
  Spans::setRound(kProbeRound);
  Spans::enable(true);
  clc::Program program =
      clc::compile("__kernel void probe(__global int* out) { out[0] = 7; }");
  clc::optimize(program, clc::OptLevel::O2);
  const clc::Program loaded =
      clc::deserializeProgram(clc::serializeProgram(program));
  std::int32_t out = 0;
  clc::KernelArgValue arg;
  arg.kind = clc::KernelArgValue::Kind::Buffer;
  arg.segmentIndex = 0;
  (void)clc::executeKernel(
      loaded, "probe", clc::NDRange{}, {arg},
      {clc::Segment{reinterpret_cast<std::uint8_t*>(&out), sizeof out}},
      nullptr);
  Spans::enable(false);
  ledger.check(out == 7, "wrap probe kernel output");

  std::set<std::string> seen;
  for (const Span& span : Spans::snapshot()) {
    if (span.round == kProbeRound) {
      seen.insert(span.name);
    }
  }
  for (const char* name :
       {"clc.compile", "clc.opt", "clc.serialize", "clc.deserialize",
        "clc.vm"}) {
    ledger.check(seen.count(name) == 1,
                 std::string("wrapped clc entry point records span ") + name);
  }
}

} // namespace perfbench
