#include "sim/cache_sim.hpp"

#include <stdexcept>

namespace eod::sim {

namespace {
constexpr bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

constexpr unsigned log2_pow2(std::size_t x) {
  unsigned shift = 0;
  while ((std::size_t{1} << shift) < x) ++shift;
  return shift;
}
}  // namespace

CacheLevel::CacheLevel(std::size_t size_bytes, unsigned line_bytes,
                       unsigned associativity)
    : line_bytes_(line_bytes), assoc_(associativity) {
  if (line_bytes == 0 || !is_pow2(line_bytes)) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (associativity == 0) {
    throw std::invalid_argument("associativity must be positive");
  }
  const std::size_t lines = size_bytes / line_bytes;
  if (lines == 0 || lines % assoc_ != 0) {
    throw std::invalid_argument("cache size/line/assoc mismatch");
  }
  line_shift_ = log2_pow2(line_bytes);
  sets_ = lines / assoc_;
  sets_pow2_ = is_pow2(sets_);
  set_mask_ = sets_pow2_ ? sets_ - 1 : 0;
  tags_.assign(lines, ~0ull);
}

LruTlb::LruTlb(unsigned entries) {
  if (entries == 0) {
    throw std::invalid_argument("TLB entries must be positive");
  }
  entries_.resize(entries);
  // At most a quarter full: probe chains stay about one slot long.
  const std::size_t slots = std::size_t{4} << log2_pow2(entries);
  slots_.assign(slots, kNone);
  slot_mask_ = slots - 1;
  slot_shift_ = 64 - log2_pow2(slots);
}

void LruTlb::install(std::uint64_t page) noexcept {
  std::uint32_t e;
  if (used_ < entries_.size()) {
    e = used_++;
    Entry& x = entries_[e];
    x.prev = kNone;
    x.next = head_;
    if (head_ == kNone) {
      tail_ = e;
    } else {
      entries_[head_].prev = e;
    }
    head_ = e;
  } else {
    e = tail_;
    erase_slot_of(entries_[e].page);
    to_front(e);
  }
  entries_[e].page = page;
  std::size_t s = home(page);
  while (slots_[s] != kNone) s = (s + 1) & slot_mask_;
  slots_[s] = e;
}

void LruTlb::erase_slot_of(std::uint64_t page) noexcept {
  std::size_t hole = home(page);
  while (entries_[slots_[hole]].page != page) {
    hole = (hole + 1) & slot_mask_;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home slot, so every
  // lookup still finds its page without tombstones.
  for (std::size_t s = (hole + 1) & slot_mask_; slots_[s] != kNone;
       s = (s + 1) & slot_mask_) {
    const std::size_t h = home(entries_[slots_[s]].page);
    if (((s - h) & slot_mask_) >= ((s - hole) & slot_mask_)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = kNone;
}

CacheHierarchy::CacheHierarchy(const DeviceSpec& spec, unsigned tlb_entries,
                               unsigned page_bytes)
    : l1_(spec.l1.size_bytes, spec.l1.line_bytes, spec.l1.associativity),
      l2_(spec.l2.size_bytes, spec.l2.line_bytes, spec.l2.associativity),
      // Data TLBs are (near-)fully associative; set-indexing one would
      // alias page-aligned array strides into false conflicts.
      tlb_(tlb_entries) {
  if (!is_pow2(page_bytes) || page_bytes < l1_.line_bytes()) {
    throw std::invalid_argument(
        "page size must be a power of two of at least one L1 line");
  }
  if (spec.l3.size_bytes != 0) {
    l3_.emplace(spec.l3.size_bytes, spec.l3.line_bytes,
                spec.l3.associativity);
  }
  page_shift_ = log2_pow2(page_bytes);
}

void CacheHierarchy::access(std::uint64_t address, std::uint32_t bytes,
                            bool is_write) {
  (void)is_write;  // write-allocate: the miss path is identical to reads
  const unsigned shift = l1_.line_shift();
  const std::uint64_t first = address >> shift;
  const std::uint64_t last =
      (address + (bytes == 0 ? 0 : bytes - 1)) >> shift;
  for (std::uint64_t l = first; l <= last; ++l) {
    const std::uint64_t a = l << shift;
    ++counters_.total_accesses;
    if (!tlb_.touch(a >> page_shift_)) ++counters_.tlb_dm;
    if (l1_.access(a)) continue;
    ++counters_.l1_dcm;
    if (l2_.access(a)) continue;
    ++counters_.l2_dcm;
    if (l3_.has_value()) {
      if (l3_->access(a)) continue;
      ++counters_.l3_tcm;
    } else {
      ++counters_.l3_tcm;  // no L3: every L2 miss goes to DRAM
    }
  }
}

void CacheHierarchy::replay(const MemoryTrace& trace) {
  consume(trace.data(), trace.size());
}

void CacheHierarchy::consume(const MemAccess* page, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    access(page[i].address, page[i].bytes, page[i].is_write);
  }
}

void CacheHierarchy::reset() {
  l1_.reset_counters();
  l2_.reset_counters();
  if (l3_) l3_->reset_counters();
  counters_ = {};
}

double CacheHierarchy::l1_miss_rate() const noexcept {
  return counters_.total_accesses == 0
             ? 0.0
             : static_cast<double>(counters_.l1_dcm) /
                   counters_.total_accesses;
}
double CacheHierarchy::l2_miss_rate() const noexcept {
  return counters_.total_accesses == 0
             ? 0.0
             : static_cast<double>(counters_.l2_dcm) /
                   counters_.total_accesses;
}
double CacheHierarchy::l3_miss_rate() const noexcept {
  return counters_.total_accesses == 0
             ? 0.0
             : static_cast<double>(counters_.l3_tcm) /
                   counters_.total_accesses;
}

}  // namespace eod::sim
