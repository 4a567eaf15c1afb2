// Bytecode verifier: proves a Program safe for the check-free VM.
//
// Every Program the VM runs has been through verify(): clc::compile and
// clc::optimize verify what they produce, and deserializeProgram verifies
// what it loads (a cache entry is never trusted). The verifier is a
// JVM-style abstract interpretation of operand-stack depth, one linear
// pass per function, plus structural checks of every operand:
//
//   * opcodes, type tags, constant-pool, function and builtin indices are
//     in range; frame-addressed operands lie inside the owning function's
//     frame; parameter slots fit the frame;
//   * jump targets and fall-through stay inside the owning function;
//   * no instruction pops more slots than the stack holds, and every
//     control-flow merge is reached with one depth;
//   * Call pops the callee's parameters (plus the sret pointer) and pushes
//     its scalar result; CallBuiltin pops the builtin's arity and pushes
//     one result; returns leave exactly the returned slot;
//   * the call graph is acyclic, so each kernel's peak depth — taken over
//     the functions it calls — is a finite number, bounded by
//     kMaxOperands.
//
// On success verify() records on the Program what the VM would otherwise
// re-derive per launch: each kernel's peak operand depth and whether it
// can reach a barrier, and the per-instruction cycle table it charges.
// What stays a run-time trap: memory bounds, division by zero, call
// depth, Op::Trap, bad op/tag arithmetic and barrier divergence.
#pragma once

#include <cstdint>
#include <string>

#include "clc/bytecode.h"
#include "common/error.h"

namespace clc {

/// Operand-stack slots a kernel may need at its peak (including callees).
constexpr std::uint32_t kMaxOperands = 4096;

/// Largest private frame of one function and largest static __local area
/// of one kernel, in bytes.
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
constexpr std::uint32_t kMaxStaticLocalBytes = 1u << 20;

/// Sentinel pc for failures that concern a function as a whole.
constexpr std::int64_t kNoPc = -1;

/// A Program failed verification. Names the function (empty for
/// program-level failures) and the instruction (kNoPc when none).
class VerifyError : public common::Error {
public:
  VerifyError(std::string function, std::int64_t pc,
              const std::string& message);

  const std::string& function() const noexcept { return function_; }
  std::int64_t pc() const noexcept { return pc_; }

private:
  std::string function_;
  std::int64_t pc_;
};

/// Verifies `program` and records the facts the VM relies on
/// (KernelInfo::maxOperands/hasBarrier, Program::chargedCosts,
/// Program::verified). Throws VerifyError and leaves the program
/// unverified when any rule fails.
void verify(Program& program);

} // namespace clc
