#include "trace/load_monitor.h"

namespace trace {

LoadMonitor& LoadMonitor::instance() {
  static LoadMonitor monitor;
  return monitor;
}

void LoadMonitor::reset(std::size_t deviceCount) {
  std::lock_guard lock(mutex_);
  loads_.assign(deviceCount, DeviceLoad{});
}

void LoadMonitor::addKernel(std::uint32_t device, std::uint64_t cycles,
                            std::uint64_t durationNs) noexcept {
  std::lock_guard lock(mutex_);
  if (device >= loads_.size()) {
    return;
  }
  DeviceLoad& load = loads_[device];
  load.kernelCycles += cycles;
  load.computeBusyNs += durationNs;
  ++load.launches;
}

void LoadMonitor::addTransfer(std::uint32_t device,
                              std::uint64_t bytes) noexcept {
  std::lock_guard lock(mutex_);
  if (device < loads_.size()) {
    loads_[device].bytesMoved += bytes;
  }
}

std::vector<DeviceLoad> LoadMonitor::snapshot() const {
  std::lock_guard lock(mutex_);
  return loads_;
}

DeviceLoad LoadMonitor::total() const {
  std::lock_guard lock(mutex_);
  DeviceLoad sum;
  for (const DeviceLoad& load : loads_) {
    sum.kernelCycles += load.kernelCycles;
    sum.computeBusyNs += load.computeBusyNs;
    sum.launches += load.launches;
    sum.bytesMoved += load.bytesMoved;
  }
  return sum;
}

} // namespace trace
