// Host memory for large arrays (DESIGN.md §5, "Host memory and input
// synthesis").  One page-granular allocation primitive backs both device
// Buffer storage and every large host array a dwarf generates, binds,
// reads back or validates:
//   * blocks of at least one huge page (2 MiB) are anonymous mappings,
//     2 MiB-aligned and advised MADV_HUGEPAGE, so first touch costs one
//     fault per 2 MiB instead of one per 4 KiB;
//   * the zero fill comes from the kernel (mapped blocks) or calloc (smaller
//     blocks), never from a memset;
//   * under AddressSanitizer the slack between the requested size and the
//     block's end is poisoned, so an overrun is reported, not absorbed.
// All large arrays share it: splitting them between it and glibc's heap
// can leave freed heap memory resident and raise peak RSS.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace eod::xcl {

/// Blocks of at least this many bytes are huge-page mappings.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
/// Every block is aligned to one cache line (and mapped blocks to
/// kHugePageBytes), so span-body vector loads never straddle a line.
inline constexpr std::size_t kHostAlignment = 64;

/// `bytes` of zero-filled host memory aligned to kHostAlignment, and to
/// kHugePageBytes when bytes >= kHugePageBytes.  Throws std::bad_alloc.
[[nodiscard]] void* allocate_host(std::size_t bytes);
/// Releases a block from allocate_host; `bytes` is the size it was
/// allocated with.
void free_host(void* block, std::size_t bytes) noexcept;

/// Standard allocator over allocate_host.  Construction without arguments
/// default-initializes trivial element types: fresh storage already reads
/// zero, so `HostVector<float>(n)` and growing `resize` write nothing and
/// leave the pages untouched until first use.  Elements regrown into
/// capacity an earlier shrink left behind keep their old bytes; write (or
/// `assign`) them before reading.
template <typename T>
class HostAllocator {
 public:
  using value_type = T;

  HostAllocator() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): the rebinding conversion
  // every standard allocator provides.
  template <typename U>
  HostAllocator(const HostAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(allocate_host(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_host(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    if constexpr (std::is_trivially_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U();
    }
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const HostAllocator& /*a*/,
                         const HostAllocator& /*b*/) noexcept {
    return true;
  }
};

/// The container for large host arrays.  Public accessors hand these out
/// as std::span, so callers never see the allocator type.
template <typename T>
using HostVector = std::vector<T, HostAllocator<T>>;

}  // namespace eod::xcl
