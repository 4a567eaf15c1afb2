// Global SkelCL runtime: the devices selected at init(), one command
// queue per device, and the shared on-disk kernel cache.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/env.h"
#include "common/prng.h"
#include "ocl/ocl.h"
#include "skelcl/distribution.h"
#include "skelcl/kernel_cache.h"

namespace skelcl {

namespace detail {
// The runtime's environment knobs (SKELCL_SERIALIZE, SKELCL_TRACE,
// SKELCL_CACHE_DIR, ...) all parse through these helpers so
// 0/1/true/false handling is consistent everywhere.
using common::envDouble;
using common::envFlag;
using common::envInt;
using common::envStr;
} // namespace detail

/// Which devices init() should claim.
struct DeviceSelection {
  ocl::DeviceType type = ocl::DeviceType::GPU;
  std::size_t count = 0; // 0 = all matching devices

  static DeviceSelection allGPUs() { return {ocl::DeviceType::GPU, 0}; }
  static DeviceSelection nGPUs(std::size_t n) {
    return {ocl::DeviceType::GPU, n};
  }
  static DeviceSelection allDevices() { return {ocl::DeviceType::All, 0}; }
};

namespace detail {

class UserFunction;

class Runtime {
public:
  static Runtime& instance();

  void init(const DeviceSelection& selection);
  void terminate();
  bool initialized() const noexcept { return initialized_; }

  /// Throws unless init() ran; every public entry point calls this.
  void requireInit() const;

  const std::vector<ocl::Device>& devices() const;
  std::size_t deviceCount() const { return devices().size(); }
  ocl::Context& context();
  ocl::CommandQueue& queue(std::size_t deviceIndex);
  KernelCache& kernelCache();

  /// SkelCL's default work-group size (the paper: "SkelCL uses its
  /// default work-group size of 256").
  std::size_t defaultWorkGroupSize() const noexcept { return 256; }

  /// True when SKELCL_SERIALIZE=1 forced in-order queues at init():
  /// identical commands are enqueued, but every command serializes after
  /// the previous one instead of scheduling from the event DAG. Escape
  /// hatch and the baseline for the transfer/compute-overlap ablation.
  bool serializedQueues() const noexcept { return serializedQueues_; }

  /// Ready-queue tie-breaking of the out-of-order scheduler, set at
  /// init() from SKELCL_SCHEDULE=fifo|shuffle and SKELCL_SCHEDULE_SEED.
  /// Under SeededShuffle the queues add seeded dispatch jitter and the
  /// skeletons visit per-device chunks in a seeded order — together they
  /// explore alternative legal schedules of the same command DAG. The
  /// schedule-fuzzing suite asserts outputs are invariant across seeds.
  const ocl::SchedulePolicy& schedulePolicy() const noexcept {
    return schedulePolicy_;
  }

  /// Visit order for a set of `n` per-device chunks: the identity under
  /// Fifo, a seeded permutation under SeededShuffle. Only used where the
  /// result is order-independent by construction (disjoint chunks);
  /// order-sensitive combines (Reduce partials, combine folds) keep
  /// their canonical element order so outputs stay bit-identical.
  std::vector<std::size_t> chunkVisitOrder(std::size_t n);

  /// Destination of the trace the current init()..terminate() cycle
  /// records (set from SKELCL_TRACE at init; empty = not tracing).
  const std::string& tracePath() const noexcept { return tracePath_; }

  /// True unless SKELCL_FUSION=0 disabled the expression-DAG rewrite
  /// rules at init(). With fusion off, every lazily built node still
  /// flows through the DAG evaluator, but each stage compiles and
  /// launches its own kernel and materializes its intermediate vector —
  /// the differential baseline fused execution must match bit-for-bit.
  bool fusionEnabled() const noexcept { return fusionEnabled_; }

  /// True unless SKELCL_ASYNC=0 disabled the asynchronous task-graph
  /// scheduler at init(). With async on (the default), deferred skeleton
  /// jobs accumulate until a consumption point, then every outstanding
  /// job's commands are dispatched before the consumer blocks — so
  /// independent jobs overlap on the device engines. SKELCL_ASYNC=0 is
  /// the differential baseline: each job evaluates at its own
  /// consumption point, nothing else changes.
  bool asyncEnabled() const noexcept { return asyncEnabled_; }

  /// What the rewrite pass achieved this init()..terminate() cycle.
  struct FusionStats {
    std::uint64_t fusedStages = 0;        // stages absorbed into parents
    std::uint64_t fusedLaunches = 0;      // evaluations of fused plans
    std::uint64_t intermediateBuffers = 0; // materialized DAG-internal
    std::uint64_t intermediateBytes = 0;   //   vectors, and their bytes

    /// Delta between two snapshots — see KernelCache::Stats::operator-.
    friend FusionStats operator-(const FusionStats& later,
                                 const FusionStats& earlier) {
      FusionStats delta;
      delta.fusedStages = later.fusedStages - earlier.fusedStages;
      delta.fusedLaunches = later.fusedLaunches - earlier.fusedLaunches;
      delta.intermediateBuffers =
          later.intermediateBuffers - earlier.intermediateBuffers;
      delta.intermediateBytes =
          later.intermediateBytes - earlier.intermediateBytes;
      return delta;
    }
  };
  /// Snapshot of the counters. Internally atomic, so a snapshot may be
  /// taken on any thread while the dispatching thread accounts.
  FusionStats fusionStats() const noexcept {
    FusionStats out;
    out.fusedStages = fusionStats_.fusedStages.load();
    out.fusedLaunches = fusionStats_.fusedLaunches.load();
    out.intermediateBuffers = fusionStats_.intermediateBuffers.load();
    out.intermediateBytes = fusionStats_.intermediateBytes.load();
    return out;
  }
  /// One fused plan evaluated, absorbing `stagesAbsorbed` children.
  void noteFusedEvaluation(std::uint64_t stagesAbsorbed) noexcept {
    fusionStats_.fusedStages.fetch_add(stagesAbsorbed);
    fusionStats_.fusedLaunches.fetch_add(1);
  }
  /// One DAG-internal intermediate vector of `bytes` materialized.
  void noteIntermediate(std::uint64_t bytes) noexcept {
    fusionStats_.intermediateBuffers.fetch_add(1);
    fusionStats_.intermediateBytes.fetch_add(bytes);
  }
  /// Process-wide memo for generated skeleton programs: one build per
  /// (source, salt) pair per init() cycle, the disk cache underneath
  /// making cross-process reuse cheap. The salt carries the fusion
  /// configuration into the cache key. Thread-safe: distinct keys build
  /// in parallel, concurrent requests for the same key block on one
  /// build (a failed build is not memoized; the next request retries,
  /// preserving the synchronous retry semantics).
  ocl::Program& programFor(const std::string& source,
                           const std::string& salt);

  /// Customizing function `source`, lexed on first use this init() cycle
  /// and shared by every skeleton built from the same text; dropped with
  /// the program memo. A source that does not lex throws, uninterned.
  std::shared_ptr<const UserFunction> userFunction(const std::string& source);

  /// Sources of the programs memoized this init() cycle, sorted; lets
  /// tests and tools inspect every kernel the skeletons generated.
  std::vector<std::string> programSources();

  /// Where block-distribution weights come from. Set at init() from
  /// SKELCL_WEIGHTS=even|static|measured; tests may override at runtime
  /// (takes effect at the next partition/redistribution).
  WeightMode weightMode() const noexcept { return weightMode_; }
  void setWeightMode(WeightMode mode) noexcept { weightMode_ = mode; }

  /// Current per-device block weights under weightMode() — one entry per
  /// claimed device, order matching devices(). Even: all ones. Static:
  /// DeviceSpec::peakCyclesPerNs. Measured: cycles-per-busy-ns from the
  /// load monitor, falling back to even until every claimed device
  /// has retired a kernel.
  std::vector<double> blockWeights() const;

  /// Node index per claimed device, order matching devices(). All zero
  /// on single-node machines.
  std::vector<std::uint32_t> deviceNodes() const;

  /// Chunk sizes of a block-distributed vector of n elements: the
  /// deterministic two-level (node, then device) largest-remainder split
  /// of n by blockWeights(). Single-node machines get exactly the flat
  /// split, so pre-cluster behavior is unchanged.
  std::vector<std::size_t> blockPartition(std::size_t n) const;

private:
  Runtime() = default;

  struct AtomicFusionStats {
    std::atomic<std::uint64_t> fusedStages{0};
    std::atomic<std::uint64_t> fusedLaunches{0};
    std::atomic<std::uint64_t> intermediateBuffers{0};
    std::atomic<std::uint64_t> intermediateBytes{0};
  };
  /// One memoized program. Entries are pinned by shared_ptr so the map
  /// can rehash while another thread builds; `build` serializes
  /// concurrent builders of the same key.
  struct ProgramEntry {
    std::mutex build;
    std::optional<ocl::Program> program;
  };

  bool initialized_ = false;
  bool serializedQueues_ = false;
  bool fusionEnabled_ = true;
  bool asyncEnabled_ = true;
  AtomicFusionStats fusionStats_;
  std::mutex programMutex_;
  std::unordered_map<std::string, std::shared_ptr<ProgramEntry>>
      programMemo_;
  std::unordered_map<std::string, std::shared_ptr<const UserFunction>>
      userFunctions_;
  WeightMode weightMode_ = WeightMode::Even;
  ocl::SchedulePolicy schedulePolicy_;
  common::Xoshiro256 orderRng_;
  std::string tracePath_;
  std::vector<ocl::Device> devices_;
  std::unique_ptr<ocl::Context> context_;
  std::vector<ocl::CommandQueue> queues_;
  std::unique_ptr<KernelCache> cache_;
};

} // namespace detail

/// Initializes SkelCL (paper Listing 1: "SkelCL::init();"). Claims the
/// selected devices — by default every GPU in the system.
void init(const DeviceSelection& selection = DeviceSelection::allGPUs());

/// Releases all devices. Vectors created before terminate() must not be
/// used afterwards.
void terminate();

/// Number of devices SkelCL is using.
std::size_t deviceCount();

} // namespace skelcl
