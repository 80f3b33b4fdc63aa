#include "xcl/host_memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define EOD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EOD_ASAN 1
#endif
#endif

#ifdef EOD_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace eod::xcl {

namespace {

std::uintptr_t round_up(std::uintptr_t v, std::uintptr_t to) {
  return (v + to - 1) / to * to;
}

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// Marks [p, p + n) unaddressable (AddressSanitizer builds only).
void poison(void* p, std::size_t n) {
#ifdef EOD_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

void unpoison(void* p, std::size_t n) {
#ifdef EOD_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace

void* allocate_host(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    // One calloc of the payload plus one line of slack.  The block is at
    // least 16-byte aligned, so the first line-aligned address past one
    // pointer-sized slot fits; the slot keeps the block for free_host.
    void* raw = std::calloc(bytes + kHostAlignment, 1);
    if (raw == nullptr) throw std::bad_alloc();
    const std::uintptr_t data = round_up(
        reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*), kHostAlignment);
    auto* p = reinterpret_cast<std::byte*>(data);
    std::memcpy(p - sizeof(void*), &raw, sizeof(raw));
    poison(p + bytes,
           static_cast<std::size_t>(static_cast<std::byte*>(raw) + bytes +
                                    kHostAlignment - (p + bytes)));
    return p;
  }
  // Map one huge page more than the page-rounded size, then unmap the
  // misaligned head and the surplus tail, leaving a 2 MiB-aligned block.
  const std::size_t len = round_up(bytes, page_bytes());
  void* base = ::mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  const auto b = reinterpret_cast<std::uintptr_t>(base);
  const std::uintptr_t a = round_up(b, kHugePageBytes);
  if (a > b) ::munmap(base, a - b);
  const std::uintptr_t tail = b + len + kHugePageBytes - (a + len);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(a + len), tail);
  auto* p = reinterpret_cast<std::byte*>(a);
  // Best effort: on a THP `never` host, or a kernel without THP, the block
  // keeps 4 KiB pages and stays correct.
  (void)::madvise(p, len, MADV_HUGEPAGE);
  poison(p + bytes, len - bytes);
  return p;
}

void free_host(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  auto* p = static_cast<std::byte*>(block);
  if (bytes < kHugePageBytes) {
    void* raw = nullptr;
    std::memcpy(&raw, p - sizeof(void*), sizeof(raw));
    std::free(raw);
    return;
  }
  // The poisoned tail must not outlive the mapping: a later mapping at the
  // same address would inherit it.
  const std::size_t len = round_up(bytes, page_bytes());
  unpoison(p + bytes, len - bytes);
  ::munmap(p, len);
}

}  // namespace eod::xcl
