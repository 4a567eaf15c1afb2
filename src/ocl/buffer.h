// Device memory buffers.
//
// Deviation from the OpenCL spec, on purpose: a Buffer is allocated on a
// *specific* device rather than lazily migrated by the runtime. SkelCL
// manages per-device copies itself (that is the whole point of its Vector
// distribution machinery), so the explicit model keeps every byte of
// inter-device traffic visible to the timing model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "ocl/device.h"
#include "ocl/fault.h"

namespace ocl {

class BufferState {
public:
  /// Claims device capacity first, so a request the device cannot hold
  /// fails before any host memory is committed. The host backing comes
  /// zero-filled from calloc, which reports a failure as null rather than
  /// by exception (also under the sanitizers' allocators); that failure
  /// is an AllocFailure too.
  BufferState(Device device, std::size_t bytes)
      : device_(std::move(device)), size_(bytes) {
    device_.state().allocate(bytes);
    storage_.reset(static_cast<std::uint8_t*>(
        std::calloc(std::max<std::size_t>(bytes, 1), 1)));
    if (storage_ == nullptr) {
      device_.state().release(bytes);
      throw AllocFailure(device_.state().index(),
                         "host backing of " + std::to_string(bytes) +
                             " byte(s) for a buffer on device " +
                             std::to_string(device_.state().index()) +
                             " could not be allocated");
    }
  }

  ~BufferState() { device_.state().release(size_); }

  BufferState(const BufferState&) = delete;
  BufferState& operator=(const BufferState&) = delete;

  Device device() const noexcept { return device_; }
  std::size_t size() const noexcept { return size_; }
  std::uint8_t* data() noexcept { return storage_.get(); }
  const std::uint8_t* data() const noexcept { return storage_.get(); }

private:
  struct Free {
    void operator()(std::uint8_t* p) const noexcept { std::free(p); }
  };

  Device device_;
  std::size_t size_;
  std::unique_ptr<std::uint8_t[], Free> storage_;
};

/// Shared handle to a device allocation (clBuffer analogue).
class Buffer {
public:
  Buffer() = default;
  explicit Buffer(std::shared_ptr<BufferState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  std::size_t size() const { return state().size(); }
  Device device() const { return state().device(); }

  BufferState& state() const {
    COMMON_CHECK_MSG(state_ != nullptr, "use of an invalid Buffer handle");
    return *state_;
  }

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept {
    return a.state_ == b.state_;
  }

private:
  std::shared_ptr<BufferState> state_;
};

} // namespace ocl
