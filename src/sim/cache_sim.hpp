// Trace-driven, set-associative, LRU, multi-level cache + TLB simulator.
//
// The paper uses PAPI counters (PAPI_L1_DCM, PAPI_L2_DCM, PAPI_L3_TCM,
// data-TLB misses) to verify that each problem size lands in the intended
// level of the Skylake hierarchy (§4.4).  This simulator provides the same
// verification capability for the simulated testbed: replay a benchmark's
// memory trace through a device's hierarchy and read the miss counters.
//
// CacheHierarchy replays raw accesses one at a time (access(), consume(),
// replay()): the per-access reference.  Pages of line-coalesced records
// replay through sim::ReplayForest (sim/trace_replay.hpp), which walks each
// distinct level of many hierarchies once; its counters are bit-identical
// to this reference (enforced by tests/cache_replay_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/device_spec.hpp"

namespace eod::sim {

/// One memory access of a kernel trace.
struct MemAccess {
  std::uint64_t address = 0;
  std::uint32_t bytes = 4;
  bool is_write = false;
};

/// A recorded sequence of accesses (single-work-item program order).
using MemoryTrace = std::vector<MemAccess>;

/// One access plus `repeats` further accesses with the same cache-line
/// span.  Under LRU a re-touch of the most recently used line(s) is a
/// guaranteed hit at every level and leaves the recency order as it was,
/// so repeats are credited as hits without a lookup -- provably exact
/// (tests/cache_replay_test.cpp).
struct CoalescedAccess {
  std::uint64_t address = 0;
  std::uint32_t bytes = 4;
  std::uint32_t repeats = 0;
};

/// One set-associative LRU cache level.
class CacheLevel {
 public:
  CacheLevel(std::size_t size_bytes, unsigned line_bytes,
             unsigned associativity);

  /// Returns true on hit; on miss the line is installed (allocate-on-miss,
  /// no inclusion/exclusion modeling).
  bool access(std::uint64_t address) {
    const bool hit = touch_line(line_index(address));
    if (hit) {
      ++hits_;
    } else {
      ++misses_;
    }
    return hit;
  }

  /// LRU state transition only -- no counter updates.  Each set keeps its
  /// ways in recency order, most recent first: a hit moves its way to the
  /// front, a miss drops the last way (an invalid one while the set is not
  /// full) and installs the line at the front.  Returns true on hit.
  /// A nonzero `kAssoc` must equal associativity(): the way walks then run
  /// over a compile-time count.
  template <unsigned kAssoc = 0>
  bool touch_line(std::uint64_t line) noexcept {
    const unsigned assoc = kAssoc != 0 ? kAssoc : assoc_;
    const std::size_t set =
        sets_pow2_ ? static_cast<std::size_t>(line & set_mask_)
                   : static_cast<std::size_t>(line % sets_);
    std::uint64_t* tags = &tags_[set * assoc];
    unsigned w = 0;
    while (w < assoc && tags[w] != line) ++w;
    const bool hit = w < assoc;
    if (!hit) w = assoc - 1;
    for (; w > 0; --w) tags[w] = tags[w - 1];
    tags[0] = line;
    return hit;
  }

  [[nodiscard]] std::uint64_t line_index(std::uint64_t address) const
      noexcept {
    return address >> line_shift_;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return hits_ + misses_;
  }
  [[nodiscard]] double miss_ratio() const noexcept {
    const std::uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses_) / a;
  }
  [[nodiscard]] unsigned line_bytes() const noexcept { return line_bytes_; }
  [[nodiscard]] unsigned associativity() const noexcept { return assoc_; }
  [[nodiscard]] unsigned line_shift() const noexcept { return line_shift_; }
  [[nodiscard]] std::size_t capacity_lines() const noexcept {
    return sets_ * assoc_;
  }
  void reset_counters() noexcept { hits_ = misses_ = 0; }

 private:
  unsigned line_bytes_;
  unsigned line_shift_ = 0;
  unsigned assoc_;
  std::size_t sets_ = 0;
  std::uint64_t set_mask_ = 0;
  bool sets_pow2_ = false;
  // sets_ * assoc_ tags, each set's run in recency order; ~0 = invalid.
  std::vector<std::uint64_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Fully associative exact-LRU cache of page numbers: the data TLB.
///
/// An intrusive recency list over the entries (head = most recently used,
/// tail = the victim) plus an open-addressed page -> entry index with
/// backward-shift deletion make a hit or a miss O(1) instead of a scan of
/// every way.  LRU hit/miss outcomes depend only on recency order, which
/// the list is, so the counters equal a one-set CacheLevel's; the order in
/// which unused entries fill cannot change a counter.  Pinned against a
/// move-to-front stack by tests/cache_replay_test.cpp.
class LruTlb {
 public:
  explicit LruTlb(unsigned entries);

  /// Returns true on hit.  A hit makes `page` the most recently used
  /// entry; a miss installs it there, evicting the least recently used
  /// page once every entry is in use.
  bool touch(std::uint64_t page) noexcept {
    for (std::size_t s = home(page);; s = (s + 1) & slot_mask_) {
      const std::uint32_t e = slots_[s];
      if (e == kNone) break;
      if (entries_[e].page == page) {
        to_front(e);
        return true;
      }
    }
    install(page);
    return false;
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Entry {
    std::uint64_t page = 0;
    std::uint32_t prev = kNone;  // toward the head (more recent)
    std::uint32_t next = kNone;  // toward the tail (less recent)
  };

  [[nodiscard]] std::size_t home(std::uint64_t page) const noexcept {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >>
                                    slot_shift_);
  }
  void to_front(std::uint32_t e) noexcept {
    if (e == head_) return;
    Entry& x = entries_[e];
    entries_[x.prev].next = x.next;
    if (x.next == kNone) {
      tail_ = x.prev;
    } else {
      entries_[x.next].prev = x.prev;
    }
    x.prev = kNone;
    x.next = head_;
    entries_[head_].prev = e;
    head_ = e;
  }
  void install(std::uint64_t page) noexcept;
  void erase_slot_of(std::uint64_t page) noexcept;

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  // entry index, kNone = empty
  std::size_t slot_mask_ = 0;
  unsigned slot_shift_ = 0;
  std::uint32_t used_ = 0;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
};

/// Counter names mirroring the PAPI events collected in the paper.
struct HierarchyCounters {
  std::uint64_t total_accesses = 0;
  std::uint64_t l1_dcm = 0;  ///< PAPI_L1_DCM: L1 data cache misses
  std::uint64_t l2_dcm = 0;  ///< PAPI_L2_DCM
  std::uint64_t l3_tcm = 0;  ///< PAPI_L3_TCM: total L3 misses (DRAM trips)
  std::uint64_t tlb_dm = 0;  ///< data TLB misses

  friend bool operator==(const HierarchyCounters& a,
                         const HierarchyCounters& b) {
    return a.total_accesses == b.total_accesses && a.l1_dcm == b.l1_dcm &&
           a.l2_dcm == b.l2_dcm && a.l3_tcm == b.l3_tcm &&
           a.tlb_dm == b.tlb_dm;
  }
};

/// L1 -> L2 [-> L3] -> DRAM plus a data TLB, built from a DeviceSpec.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const DeviceSpec& spec, unsigned tlb_entries = 64,
                          unsigned page_bytes = 4096);

  /// Runs one access through the hierarchy (splitting across cache lines if
  /// it straddles a boundary).
  void access(std::uint64_t address, std::uint32_t bytes, bool is_write);
  void replay(const MemoryTrace& trace);

  /// Batched raw replay: one page of accesses per call.
  void consume(const MemAccess* page, std::size_t n);

  [[nodiscard]] const HierarchyCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] bool has_l3() const noexcept { return l3_.has_value(); }
  void reset();

  /// Misses per instruction-style rates, normalised by total accesses (the
  /// paper normalises by PAPI_TOT_INS; accesses are our closest analogue).
  [[nodiscard]] double l1_miss_rate() const noexcept;
  [[nodiscard]] double l2_miss_rate() const noexcept;
  [[nodiscard]] double l3_miss_rate() const noexcept;

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  std::optional<CacheLevel> l3_;
  LruTlb tlb_;
  unsigned page_shift_;
  HierarchyCounters counters_;
};

}  // namespace eod::sim
