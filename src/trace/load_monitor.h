// Live per-device compute-load totals, independent of whether a trace
// is being recorded.
//
// The trace Recorder captures full command streams for offline analysis;
// the LoadMonitor is its always-on little sibling: a handful of counters
// per device (kernel cycles executed, compute-engine busy nanoseconds,
// launches) that the SkelCL runtime reads *during* a run to derive
// `measured` block-distribution weights. CommandQueue::retire feeds it
// on every kernel retirement; ocl::configureSystem resets it together
// with the rest of the machine state, so totals always describe the
// current platform.
//
// Cost when nobody reads it: one mutexed add per kernel *launch* — noise
// next to the interpreter cycles behind each launch, which is why there
// is no enabled flag.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace trace {

/// Cumulative compute-engine totals for one device since the last reset.
struct DeviceLoad {
  std::uint64_t kernelCycles = 0;  // VM cycles across retired kernels
  std::uint64_t computeBusyNs = 0; // summed kernel durations (virtual ns)
  std::uint64_t launches = 0;
  std::uint64_t bytesMoved = 0;    // H2D + D2H + peer-copy payload bytes

  /// Observed throughput in cycles per busy nanosecond — the `measured`
  /// weight of this device. Zero when the device has not run a kernel.
  double cyclesPerBusyNs() const noexcept {
    return computeBusyNs == 0 ? 0.0
                              : double(kernelCycles) / double(computeBusyNs);
  }
};

class LoadMonitor {
public:
  static LoadMonitor& instance();

  /// Forgets all totals and resizes to the new machine.
  void reset(std::size_t deviceCount);

  /// Accounts one retired kernel. Out-of-range device indices are
  /// dropped (a stale queue outliving a configureSystem), never UB.
  void addKernel(std::uint32_t device, std::uint64_t cycles,
                 std::uint64_t durationNs) noexcept;

  /// Accounts one retired DMA transfer's payload against the device
  /// (engine busy time lives in the trace; the byte total feeds live
  /// per-device energy estimates).
  void addTransfer(std::uint32_t device, std::uint64_t bytes) noexcept;

  /// Copies the current totals (index = device index).
  std::vector<DeviceLoad> snapshot() const;

  /// The totals summed over all devices. Retirements are accounted
  /// synchronously on the enqueuing thread, so the difference of two
  /// reads is exactly what retired in between — how the job service
  /// charges each job phase.
  DeviceLoad total() const;

private:
  LoadMonitor() = default;

  mutable std::mutex mutex_;
  std::vector<DeviceLoad> loads_;
};

} // namespace trace
