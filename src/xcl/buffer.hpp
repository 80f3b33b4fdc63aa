// Device buffers (cl_mem analogue).  Storage is host memory — kernels run
// functionally on the host — but allocation is accounted against the
// context's simulated device, and transfers through a Queue are timed by the
// device's interconnect model.  The zero fill comes from the allocator
// (calloc), so a large buffer's pages stay untouched until first written: a
// model-only measurement, whose transfers move no bytes, never faults them
// in.
//
// Two kernel-facing accessors exist (DESIGN.md §10):
//   * view<T>()   — a raw std::span.  Host-side setup/teardown code only;
//     the mutable overload conservatively marks the whole buffer
//     initialized for the checker.
//   * access<T>() — a CheckedView that routes loads/stores through the
//     active CheckSession's shadow memory (raw-speed passthrough when no
//     session is active).  Kernel bodies use this one so the checked
//     dispatch tier can observe every access.
#pragma once

#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "xcl/check/checked_view.hpp"
#include "xcl/check/session.hpp"
#include "xcl/context.hpp"
#include "xcl/error.hpp"

namespace eod::xcl {

class Buffer {
 public:
  /// Host storage alignment: one cache line, so simd-tier vector loads and
  /// stores (xcl/simd.hpp) starting at the buffer base never straddle a
  /// line.  clCreateBuffer makes the same guarantee on real runtimes.
  static constexpr std::size_t kHostAlignment = 64;

  Buffer(Context& ctx, std::size_t bytes) : ctx_(&ctx) {
    require(bytes > 0, Status::kInvalidBufferSize, "zero-sized buffer");
    // Account against the device capacity before touching host memory, so
    // an oversized request fails with a device error, not a host OOM.
    ctx.on_alloc(bytes);
    // cl_mem contents are undefined at creation on a real runtime; this
    // buffer has always zero-filled (the old std::vector storage did), and
    // dwarf setup code relies on it.  One calloc of the payload plus the
    // alignment slack, aligned up inside.
    std::size_t space = bytes + kHostAlignment - 1;
    raw_ = std::calloc(space, 1);
    if (raw_ == nullptr) {
      ctx.on_free(bytes);
      throw std::bad_alloc();
    }
    void* aligned = raw_;
    data_ = static_cast<std::byte*>(
        std::align(kHostAlignment, bytes, aligned, space));
    bytes_ = bytes;
    check::on_buffer_alloc(data_, bytes_);
  }

  ~Buffer() { release(); }

  Buffer(Buffer&& other) noexcept
      : ctx_(other.ctx_),
        raw_(other.raw_),
        data_(other.data_),
        bytes_(other.bytes_),
        name_(std::move(other.name_)) {
    // The heap block (the shadow-map key) moves with it; no checker
    // notification needed.
    other.ctx_ = nullptr;
    other.raw_ = nullptr;
    other.data_ = nullptr;
    other.bytes_ = 0;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      // Release the old allocation — device-capacity accounting and checker
      // shadow — *before* adopting the new one, so a context gauge never
      // counts both allocations at once and a capacity-bound device can
      // swap one large buffer for another.
      release();
      ctx_ = other.ctx_;
      raw_ = other.raw_;
      data_ = other.data_;
      bytes_ = other.bytes_;
      name_ = std::move(other.name_);
      other.ctx_ = nullptr;
      other.raw_ = nullptr;
      other.data_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] Context& context() const noexcept { return *ctx_; }

  /// Optional human-readable name used in transfer-event labels and traces
  /// ("write:centroids[16KiB]").  Returns *this for fluent creation:
  ///   Buffer b = make_buffer<float>(ctx, n).named("centroids");
  Buffer& named(std::string name) {
    name_ = std::move(name);
    return *this;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Typed view of the device storage for use inside kernels.  The element
  /// count is bytes()/sizeof(T); misaligned sizes are rejected.
  template <typename T>
  [[nodiscard]] std::span<T> view() {
    require(bytes_ % sizeof(T) == 0, Status::kInvalidValue,
            "buffer size is not a multiple of element size");
    // A mutable raw view is a host-write escape hatch the checker cannot
    // see through; treat it as initializing the whole buffer.
    check::on_host_write(data_, 0, bytes_);
    return {reinterpret_cast<T*>(data_), bytes_ / sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] std::span<const T> view() const {
    require(bytes_ % sizeof(T) == 0, Status::kInvalidValue,
            "buffer size is not a multiple of element size");
    return {reinterpret_cast<const T*>(data_), bytes_ / sizeof(T)};
  }

  /// Checked accessor for kernel bodies: loads/stores route through the
  /// active CheckSession (raw passthrough without one).  `label` names the
  /// buffer in findings.  Use `access<const T>()` for read-only access —
  /// unlike the mutable view<T>(), creating a checked accessor never marks
  /// anything initialized, which is what keeps uninit-read detection alive.
  template <typename T>
  [[nodiscard]] check::CheckedView<T> access(std::string_view label = {}) {
    require(bytes_ % sizeof(T) == 0, Status::kInvalidValue,
            "buffer size is not a multiple of element size");
    check::BufferShadow* shadow = nullptr;
    if (check::CheckSession* s = check::active_session()) {
      shadow = s->shadow_for(data_, bytes_, label);
    }
    return {reinterpret_cast<T*>(data_), bytes_ / sizeof(T), shadow};
  }

  // Internal raw access used by Queue transfers.
  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }

 private:
  /// Returns context accounting, drops the checker shadow and frees the
  /// calloc block for the current allocation (no-op for a moved-from
  /// shell).
  void release() noexcept {
    if (ctx_ != nullptr && data_ != nullptr) {
      // clReleaseMemObject semantics under deferred execution (DESIGN.md
      // §12): commands still pending on the context's queues may reference
      // this storage; run them before the memory goes away.
      ctx_->drain_queues_for_buffer_release();
    }
    if (data_ != nullptr) check::on_buffer_release(data_);
    if (ctx_ != nullptr) ctx_->on_free(bytes_);
    std::free(raw_);
    raw_ = nullptr;
    data_ = nullptr;
    bytes_ = 0;
    ctx_ = nullptr;
  }

  Context* ctx_;
  void* raw_ = nullptr;  ///< the calloc block; data_ is aligned inside it
  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
  std::string name_;
};

/// Convenience: create a buffer sized for `count` elements of T.
template <typename T>
[[nodiscard]] inline Buffer make_buffer(Context& ctx, std::size_t count) {
  return Buffer(ctx, count * sizeof(T));
}

}  // namespace eod::xcl
