#include "skelcl/detail/runtime.h"

#include <algorithm>

#include "common/env.h"
#include "common/logging.h"
#include "skelcl/detail/partition.h"
#include "skelcl/detail/scheduler.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/distribution.h"
#include "trace/load_monitor.h"
#include "trace/recorder.h"
#include "trace/serialize.h"

namespace skelcl {

const char* distributionName(Distribution d) noexcept {
  switch (d) {
    case Distribution::Single: return "single";
    case Distribution::Copy: return "copy";
    case Distribution::Block: return "block";
  }
  return "?";
}

const char* weightModeName(WeightMode m) noexcept {
  switch (m) {
    case WeightMode::Even: return "even";
    case WeightMode::Static: return "static";
    case WeightMode::Measured: return "measured";
  }
  return "?";
}

namespace detail {

Runtime& Runtime::instance() {
  static Runtime runtime;
  return runtime;
}

void Runtime::init(const DeviceSelection& selection) {
  if (initialized_) {
    terminate();
  }
  // SKELCL_DEVICES replaces the simulated machine wholesale with the
  // spec'd (possibly heterogeneous) platform, and the selection widens
  // to every spec'd device — the spec already says exactly which devices
  // the user wants, including CPU entries a GPU-only selection would
  // silently drop.
  DeviceSelection effective = selection;
  const std::string deviceSpec = envStr("SKELCL_DEVICES");
  if (!deviceSpec.empty()) {
    ocl::configureSystem(ocl::SystemConfig::parse(deviceSpec));
    effective = DeviceSelection::allDevices();
    LOG_INFO("SKELCL_DEVICES=" << deviceSpec
                               << ": configured heterogeneous platform");
  }
  // SKELCL_WEIGHTS picks how block-distribution weights are derived;
  // unknown values fall back to even rather than fail, matching the
  // other scheduling knobs.
  const std::string weights = envStr("SKELCL_WEIGHTS", "even");
  if (weights == "static") {
    weightMode_ = WeightMode::Static;
  } else if (weights == "measured") {
    weightMode_ = WeightMode::Measured;
  } else {
    if (weights != "even" && !weights.empty()) {
      LOG_WARN("unknown SKELCL_WEIGHTS '" << weights << "'; using even");
    }
    weightMode_ = WeightMode::Even;
  }
  devices_.clear();
  for (const auto& platform : ocl::getPlatforms()) {
    for (const auto& device : platform.devices(effective.type)) {
      devices_.push_back(device);
      if (effective.count != 0 && devices_.size() == effective.count) {
        break;
      }
    }
    if (effective.count != 0 && devices_.size() == effective.count) {
      break;
    }
  }
  COMMON_EXPECTS(!devices_.empty(),
                 "SkelCL init: no matching devices available");
  if (effective.count != 0 && devices_.size() < effective.count) {
    throw common::InvalidArgument(
        "SkelCL init: requested " + std::to_string(effective.count) +
        " devices, only " + std::to_string(devices_.size()) + " available");
  }
  context_ = std::make_unique<ocl::Context>(devices_);
  // Out-of-order queues let transfers overlap compute on each device's
  // engine timelines; the skeletons express ordering through event
  // dependencies. SKELCL_SERIALIZE=1 restores the pre-overlap behavior
  // (in-order queues) without changing which commands are enqueued.
  serializedQueues_ = envFlag("SKELCL_SERIALIZE");
  // SKELCL_FUSION=0 turns the rewrite rules off: the expression DAG is
  // still built, but every node evaluates as its own kernel — the
  // differential baseline the fusion suite compares against.
  fusionEnabled_ = envFlag("SKELCL_FUSION", true);
  fusionStats_.fusedStages.store(0);
  fusionStats_.fusedLaunches.store(0);
  fusionStats_.intermediateBuffers.store(0);
  fusionStats_.intermediateBytes.store(0);
  {
    std::lock_guard lock(programMutex_);
    programMemo_.clear();
    userFunctions_.clear();
  }
  // SKELCL_ASYNC=0 turns the task-graph scheduler off: every deferred
  // job evaluates at its own consumption point, exactly the pre-async
  // behavior — the differential baseline the async suite compares
  // against.
  asyncEnabled_ = envFlag("SKELCL_ASYNC", true);
  Scheduler::instance().configure(asyncEnabled_);
  // SKELCL_SCHEDULE=shuffle explores an alternative legal schedule per
  // SKELCL_SCHEDULE_SEED (see Runtime::schedulePolicy); the default is
  // the single deterministic FIFO tie-break order.
  const std::string schedule = envStr("SKELCL_SCHEDULE", "fifo");
  if (schedule == "shuffle") {
    schedulePolicy_ = ocl::SchedulePolicy::seededShuffle(
        std::uint64_t(envInt("SKELCL_SCHEDULE_SEED", 1)));
  } else {
    if (schedule != "fifo" && !schedule.empty()) {
      LOG_WARN("unknown SKELCL_SCHEDULE '" << schedule
                                           << "'; using fifo");
    }
    schedulePolicy_ = ocl::SchedulePolicy::fifo();
  }
  orderRng_ = common::Xoshiro256(schedulePolicy_.seed ^
                                 0xd1b54a32d192ed03ULL);
  // SKELCL_FAULT_PLAN/SKELCL_FAULT_SEED arm deterministic fault
  // injection for this init()..terminate() cycle; reconfiguring here
  // resets the injector's counters and PRNG, so two identical runs
  // replay the exact same failure sequence.
  ocl::FaultInjector::instance().configureFromEnv();
  // SKELCL_TRACE=<path> records this init()..terminate() cycle and
  // writes the trace at terminate() — Chrome trace-event JSON when the
  // path ends in ".json", the skeltrace binary format otherwise. Each
  // cycle overwrites the file (the virtual clock restarts with the
  // simulated machine, so concatenating cycles would be meaningless).
  tracePath_ = envStr("SKELCL_TRACE");
  if (!tracePath_.empty()) {
    trace::Recorder::instance().start();
  }
  queues_.clear();
  for (const auto& device : devices_) {
    queues_.emplace_back(device, ocl::Backend::OpenCL,
                         serializedQueues_ ? ocl::QueueOrder::InOrder
                                           : ocl::QueueOrder::OutOfOrder,
                         schedulePolicy_);
  }
  if (cache_ == nullptr) {
    cache_ = std::make_unique<KernelCache>();
  }
  initialized_ = true;
  LOG_INFO("SkelCL initialized with " << devices_.size() << " device(s)");
}

void Runtime::terminate() {
  // Outstanding deferred jobs are dead code at terminate (their outputs
  // can never be read afterwards), exactly as under synchronous
  // evaluation — drop them instead of dispatching.
  Scheduler::instance().reset();
  if (!tracePath_.empty() && trace::Recorder::enabled()) {
    const trace::Trace collected = trace::Recorder::instance().stop();
    try {
      trace::writeTraceFile(tracePath_, collected);
      LOG_INFO("trace written to " << tracePath_ << " ("
                                   << collected.commands.size()
                                   << " command spans)");
    } catch (const common::Error& e) {
      LOG_WARN("cannot write trace to " << tracePath_ << ": " << e.what());
    }
  }
  tracePath_.clear();
  queues_.clear();
  {
    std::lock_guard lock(programMutex_);
    programMemo_.clear();
    userFunctions_.clear();
  }
  context_.reset();
  devices_.clear();
  initialized_ = false;
}

ocl::Program& Runtime::programFor(const std::string& source,
                                  const std::string& salt) {
  requireInit();
  const std::string key = salt + "\x1f" + source;
  std::shared_ptr<ProgramEntry> entry;
  {
    std::lock_guard lock(programMutex_);
    std::shared_ptr<ProgramEntry>& slot = programMemo_[key];
    if (slot == nullptr) {
      slot = std::make_shared<ProgramEntry>();
    }
    entry = slot;
  }
  // Build outside the map lock so a compile never blocks lookups of
  // other keys; the entry's mutex makes concurrent requests for the
  // same key share one build. A throwing build leaves the entry empty,
  // so the next request retries — failed builds are not memoized.
  // (std::call_once would do the same, but hangs under ThreadSanitizer
  // when its callable throws.)
  std::lock_guard build(entry->build);
  if (!entry->program) {
    entry->program.emplace(kernelCache().getOrBuild(
        *context_, source, kDefaultBuildOptions, salt));
  }
  return *entry->program;
}

std::shared_ptr<const UserFunction> Runtime::userFunction(
    const std::string& source) {
  std::lock_guard lock(programMutex_);
  if (const auto it = userFunctions_.find(source);
      it != userFunctions_.end()) {
    return it->second;
  }
  auto fn = std::make_shared<const UserFunction>(source);
  userFunctions_.emplace(source, fn);
  return fn;
}

std::vector<std::string> Runtime::programSources() {
  std::vector<std::string> sources;
  {
    std::lock_guard lock(programMutex_);
    for (const auto& [key, entry] : programMemo_) {
      sources.push_back(key.substr(key.find('\x1f') + 1));
    }
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

void Runtime::requireInit() const {
  if (!initialized_) {
    throw common::Error(
        "SkelCL is not initialized; call skelcl::init() first");
  }
}

const std::vector<ocl::Device>& Runtime::devices() const {
  requireInit();
  return devices_;
}

ocl::Context& Runtime::context() {
  requireInit();
  return *context_;
}

ocl::CommandQueue& Runtime::queue(std::size_t deviceIndex) {
  requireInit();
  COMMON_CHECK(deviceIndex < queues_.size());
  return queues_[deviceIndex];
}

std::vector<std::size_t> Runtime::chunkVisitOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  if (schedulePolicy_.kind == ocl::SchedulePolicy::Kind::SeededShuffle) {
    // Fisher-Yates with the runtime's seeded stream: deterministic per
    // (seed, call sequence), different per call.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[orderRng_.nextBelow(i)]);
    }
  }
  return order;
}

std::vector<double> Runtime::blockWeights() const {
  requireInit();
  std::vector<double> weights(devices_.size(), 1.0);
  switch (weightMode_) {
    case WeightMode::Even:
      break;
    case WeightMode::Static:
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        weights[i] = devices_[i].spec().peakCyclesPerNs();
      }
      break;
    case WeightMode::Measured: {
      // Weigh by observed throughput (cycles retired per busy ns). Until
      // every claimed device has a compute sample the measurements say
      // nothing about the unsampled ones, so stay even — the first
      // skeleton call runs even, the next redistribution adapts.
      const std::vector<trace::DeviceLoad> loads =
          trace::LoadMonitor::instance().snapshot();
      std::vector<double> measured(devices_.size(), 0.0);
      bool complete = true;
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        const std::uint32_t index = devices_[i].index();
        if (index >= loads.size() || loads[index].launches == 0) {
          complete = false;
          break;
        }
        measured[i] = loads[index].cyclesPerBusyNs();
      }
      if (complete) {
        weights = std::move(measured);
      }
      break;
    }
  }
  return weights;
}

std::vector<std::uint32_t> Runtime::deviceNodes() const {
  requireInit();
  std::vector<std::uint32_t> nodes;
  nodes.reserve(devices_.size());
  for (const auto& device : devices_) {
    nodes.push_back(device.node());
  }
  return nodes;
}

std::vector<std::size_t> Runtime::blockPartition(std::size_t n) const {
  return nodeBlockPartition(n, blockWeights(), deviceNodes());
}

KernelCache& Runtime::kernelCache() {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<KernelCache>();
  }
  return *cache_;
}

} // namespace detail

void init(const DeviceSelection& selection) {
  detail::Runtime::instance().init(selection);
}

void terminate() { detail::Runtime::instance().terminate(); }

std::size_t deviceCount() {
  return detail::Runtime::instance().deviceCount();
}

} // namespace skelcl
