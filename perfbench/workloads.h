// The benchmark's three workloads. Each makes its inputs and their
// reference outputs from the seed when constructed, outside any timed
// region.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Percentile of the virtual op latencies reported as the tail and used
/// by the SLO rule, on every workload.
constexpr double kTailPercentile = 90.0;

class Workload {
public:
  virtual ~Workload() = default;

  /// Timed as setup_s: skelcl::init() with an empty kernel cache, then
  /// one warm-up op at minimal input size, which builds every program
  /// the steady phase uses.
  virtual void setup() = 0;
  /// One round of the steady phase: a fixed amount of work, every op
  /// checked against its reference.
  virtual void round(Round& out, Ledger& ledger) = 0;
  /// Virtual latency (ms) of each op under the workload's fixed, seeded
  /// open-loop arrival schedule.
  virtual std::vector<double> scheduledLatenciesMs(const Round& first) = 0;
  /// Highest offered rate on the fixed ladder, in ops per virtual
  /// second, whose tail virtual latency meets the workload's limit and
  /// whose last op completes within the limit of its arrival.
  virtual double sloOpsPerVs(const Round& first, Ledger& ledger) = 0;
  /// Whether virtual time, kernel cycles and outputs repeat bit for bit.
  virtual bool bitExact() const { return true; }
};

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

} // namespace perfbench
