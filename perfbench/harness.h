// Shared pieces of the benchmark program: wall clock, span recorder,
// order statistics, output digests and the result record each workload
// fills per round.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall clock, nanoseconds since an arbitrary epoch.
inline std::uint64_t wallNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// One recorded span. `parent` indexes the enclosing span on the same
/// thread (-1 for a root); `op` is the operation the span belongs to (0
/// outside any op); `round` is the steady-phase round (-2 for the wrap
/// probe, checkWrappedSpans()).
struct Span {
  const char* name = "";
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  std::int64_t round = -1;
  std::uint32_t thread = 0;
};

/// Process-wide span recorder. Off by default: a disabled ScopedSpan is
/// one relaxed load. Spans are kept in memory and written out once, when
/// the run ends.
class Spans {
public:
  static void enable(bool on);
  static bool enabled();
  /// Tags spans opened from now on (on any thread).
  static void setRound(std::int64_t round);
  static std::vector<Span> snapshot();
  static void writeJson(const std::string& path);
};

class ScopedSpan {
public:
  /// `op` 0 inherits the enclosing span's op.
  explicit ScopedSpan(const char* name, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  std::int64_t index_ = -1;
};

/// Self time per span name (duration minus the part covered by child
/// spans on the same thread), summed over spans of `round`.
std::map<std::string, double> selfMsByName(const std::vector<Span>& spans,
                                           std::int64_t round);

/// Value at percentile `q` (0..100) of `values`, nearest-rank.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Highest of the fixed tail percentiles that leaves at least ten samples
/// beyond it among `count` samples (50 when even that does not).
double tailPercentile(std::size_t count);

/// FNV-1a over every output byte of a round: equal digests mean equal
/// outputs.
class Digest {
public:
  void add(const void* data, std::size_t bytes);
  template <typename T> void add(const std::vector<T>& values) {
    add(values.data(), values.size() * sizeof(T));
  }
  std::uint64_t value() const { return state_; }

private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Per-run record of metric values and checked operations.
struct Ledger {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }

  /// Counts one checked operation; a failure is reported on stderr.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

/// What one steady-phase round produced. The virtual figures, counters
/// and digest are deterministic for a seed; the wall figures are not.
struct Round {
  double wallSeconds = 0;
  std::vector<double> opWallMs;
  std::vector<double> opVirtualMs;
  std::uint64_t virtualNs = 0;
  std::uint64_t kernelCycles = 0;
  std::uint64_t launches = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t fusedLaunches = 0;
  std::uint64_t intermediateBytes = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalescedJobs = 0;
  double queueWaitVirtualMs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;

  /// Fields a wall-clock-only change must leave identical. With
  /// `bitExact` false only the launch count is compared.
  bool sameInvariants(const Round& other, bool bitExact) const {
    return launches == other.launches &&
           (!bitExact || (virtualNs == other.virtualNs &&
                          kernelCycles == other.kernelCycles &&
                          digest.value() == other.digest.value()));
  }
};

} // namespace perfbench
