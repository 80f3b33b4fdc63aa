// High-throughput trace recording and replay.
//
// The seed pipeline priced one virtual std::function call per MemAccess and
// re-generated the trace once per device hierarchy; gem's medium/large
// all-pairs traces (5e10 / 1e11 accesses) made full counter coverage
// impractical (bench/counters_report used to skip them).  This engine
// replaces that pipeline end to end:
//
//   * TraceWriter batches emitted accesses into 64K-entry pages and hands
//     whole pages to a sink -- no per-access indirect call.
//   * In coalesced mode the writer run-length-merges consecutive accesses
//     with the same 64-byte line span into one CoalescedAccess + repeat
//     count.  64 divides every testbed line size, and span equality at 64B
//     implies span equality at any multiple, so one recorded stream replays
//     bit-identically on 64B and 128B line hierarchies alike.
//   * replay_hierarchies() generates the trace once and replays each page
//     through a ReplayForest: every distinct cache level of the requested
//     hierarchies is walked once, the TLB and each L1 subtree in parallel
//     on the work-stealing xcl::ThreadPool.
//
// Exactness of every path against the per-access reference replay is
// enforced by tests/cache_replay_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/cache_sim.hpp"

namespace eod::xcl {
class ThreadPool;
}  // namespace eod::xcl

namespace eod::sim {

/// Accesses per flushed page: big enough to amortise the per-page fan-out
/// barrier, small enough that a page of CoalescedAccess stays cache-warm.
inline constexpr std::size_t kTracePageAccesses = std::size_t{1} << 16;

/// Coalescing granularity.  Must divide every hierarchy line size it will
/// replay on (all testbed devices use 64B or 128B lines).
inline constexpr unsigned kCoalesceLineBytes = 64;
inline constexpr unsigned kCoalesceLineShift = 6;

/// Batched consumer of raw access pages.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const MemAccess* page, std::size_t n) = 0;
};

/// Batched consumer of line-coalesced pages.
class CoalescedSink {
 public:
  virtual ~CoalescedSink() = default;
  virtual void consume(const CoalescedAccess* page, std::size_t n) = 0;
};

/// Buffered trace recorder the dwarfs emit into.  Writes either raw pages
/// (legacy adapters, memory_trace()) or line-coalesced pages (replay
/// engine), decided by which sink the writer is bound to.
class TraceWriter {
 public:
  explicit TraceWriter(TraceSink& sink)
      : raw_sink_(&sink), rpage_(kTracePageAccesses) {}
  explicit TraceWriter(CoalescedSink& sink)
      : coalesced_sink_(&sink), cpage_(kTracePageAccesses) {}
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  ~TraceWriter() { finish(); }

  /// Records one access.
  void emit(std::uint64_t address, std::uint32_t bytes, bool is_write) {
    ++accesses_;
    if (coalesced_sink_ != nullptr) {
      const std::uint64_t first = address >> kCoalesceLineShift;
      const std::uint64_t last =
          (address + (bytes == 0 ? 0 : bytes - 1)) >> kCoalesceLineShift;
      if (first == last_first_ && last == last_last_ && count_ != 0) {
        CoalescedAccess& tail = cpage_[count_ - 1];
        if (tail.repeats != ~std::uint32_t{0}) {
          ++tail.repeats;
          return;
        }
      }
      if (count_ == kTracePageAccesses) flush();
      cpage_[count_++] = {address, bytes, 0};
      last_first_ = first;
      last_last_ = last;
    } else {
      if (count_ == kTracePageAccesses) flush();
      rpage_[count_++] = {address, bytes, is_write};
    }
  }

  /// Records `count` accesses of `elem_bytes` each at base, base + e,
  /// base + 2e, ...  When the elements tile cache lines exactly (e divides
  /// 64 and base is element-aligned) the coalesced entries are generated
  /// directly -- one record per 64B line instead of 64/e emit() calls.
  void emit_run(std::uint64_t base, std::uint32_t elem_bytes,
                std::uint64_t count, bool is_write);

  /// Flushes any buffered tail.  Called automatically on destruction; call
  /// explicitly when the sink must see everything before the writer dies.
  void finish() {
    if (count_ != 0) flush();
  }

  /// Original (pre-coalescing) access count recorded so far.
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

 private:
  void flush();

  TraceSink* raw_sink_ = nullptr;
  CoalescedSink* coalesced_sink_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t accesses_ = 0;
  // Line span of the page's tail entry (~0 sentinels: no merge candidate).
  std::uint64_t last_first_ = ~0ull;
  std::uint64_t last_last_ = ~0ull;
  // Only one of the two buffers is ever touched; both are lazily allocated.
  std::vector<MemAccess> rpage_;
  std::vector<CoalescedAccess> cpage_;
};

/// A dwarf's trace generation, re-runnable: called with a fresh writer per
/// pass (dwarfs::Dwarf::stream_trace bound to a set-up instance).
using TraceGenerator = std::function<void(TraceWriter&)>;

/// Raw sink forwarding each access to a per-access callback -- the adapter
/// behind the legacy std::function stream_trace API.
class FunctionTraceSink final : public TraceSink {
 public:
  explicit FunctionTraceSink(
      const std::function<void(const MemAccess&)>& fn)
      : fn_(fn) {}
  void consume(const MemAccess* page, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) fn_(page[i]);
  }

 private:
  const std::function<void(const MemAccess&)>& fn_;
};

/// Raw sink appending into a MemoryTrace vector (memory_trace()).
class VectorTraceSink final : public TraceSink {
 public:
  explicit VectorTraceSink(MemoryTrace& out) : out_(out) {}
  void consume(const MemAccess* page, std::size_t n) override {
    out_.insert(out_.end(), page, page + n);
  }

 private:
  MemoryTrace& out_;
};

/// Content identity of a recorded trace: order-sensitive hash over the
/// coalesced stream plus the original access count.
struct TraceKey {
  std::uint64_t content_hash = 0;
  std::uint64_t accesses = 0;

  friend bool operator==(const TraceKey& a, const TraceKey& b) {
    return a.content_hash == b.content_hash && a.accesses == b.accesses;
  }
};

/// Coalesced sink that folds every entry into a content hash (a replay-free
/// generation pass -- how the memo cache keys a trace without storing it).
class TraceHasher final : public CoalescedSink {
 public:
  void consume(const CoalescedAccess* page, std::size_t n) override;
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Runs the generator through a hashing sink and returns the trace's key.
TraceKey hash_trace(const TraceGenerator& gen);

/// Cold (first-touch) and warm (steady-state) counters of one replayed
/// (trace, hierarchy) cell -- the seed's two-pass protocol: replay, read
/// cold, reset counters (cache state survives), replay, read warm.
struct ReplayMemoEntry {
  HierarchyCounters cold;
  HierarchyCounters warm;
  std::uint64_t accesses = 0;
};

/// The levels of a set of hierarchies as a replay forest (DESIGN.md §8):
/// one data TLB unit, one L1 unit per distinct L1 geometry, under each L1
/// unit one L2 unit per distinct L2 geometry, and under each L2 unit one L3
/// unit per distinct L3 geometry.  A level allocates on a miss and nothing
/// flows back up (no write-backs, no back-invalidation), so a level's state
/// depends only on its own input stream: hierarchies that share a geometry
/// prefix share its units.  Each L1 unit walks the coalesced records at its
/// own line size and hands its miss addresses down a sub-batch at a time;
/// each L2 unit does the same for its L3 units.  A page runs the TLB and
/// every L1 subtree as tasks on the pool.  Every spec replays with the
/// default 64-entry, 4 KiB-page TLB of CacheHierarchy.
class ReplayForest final : public CoalescedSink {
 public:
  ReplayForest(const std::vector<const DeviceSpec*>& specs,
               xcl::ThreadPool& pool);
  ReplayForest(const ReplayForest&) = delete;
  ReplayForest& operator=(const ReplayForest&) = delete;

  void consume(const CoalescedAccess* page, std::size_t n) override;

  /// Counters of spec `spec` (an index into the constructor's specs),
  /// read off its path through the forest.
  [[nodiscard]] HierarchyCounters counters(std::size_t spec) const;
  /// Zeroes every unit's counters; cache and TLB state survive.
  void reset_counters() noexcept;

  /// Units per level.
  struct Shape {
    std::size_t tlb = 0, l1 = 0, l2 = 0, l3 = 0;
  };
  [[nodiscard]] Shape shape() const noexcept;

 private:
  struct Tlb {
    Tlb();
    void walk(const CoalescedAccess* page, std::size_t n);

    LruTlb tlb;
    std::uint64_t misses = 0;
    // The two most recent pages, kept across pages and passes, and whether
    // `tlb` holds them in the opposite order.
    std::uint64_t mru_page = ~0ull;
    std::uint64_t second_page = ~0ull;
    bool flipped = false;
  };
  struct Cache {
    explicit Cache(const CacheLevelSpec& spec);
    /// L1 units: replays records, counting every access they stand for.
    void walk(const CoalescedAccess* page, std::size_t n);
    /// L2 and L3 units: replays the parent's miss addresses.
    void consume(const std::uint64_t* addresses, std::size_t n);
    // walk() and consume() at the level's associativity, 0 = any.
    template <unsigned kAssoc>
    void walk_ways(const CoalescedAccess* page, std::size_t n);
    template <unsigned kAssoc>
    void consume_ways(const std::uint64_t* addresses, std::size_t n);
    /// Replays missed[0, n) through every child.
    void hand_down(std::size_t n);

    CacheLevelSpec geometry;
    CacheLevel level;
    std::uint64_t accesses = 0;  // L1 units only
    std::uint64_t misses = 0;
    std::uint64_t last_line = ~0ull;  // L1 MRU filter, kept across pages
    std::vector<std::uint64_t> missed;  // one sub-batch; empty for leaves
    std::vector<Cache> children;
  };
  /// A spec's units: l1s_[l1].children[l2].children[l3].
  struct Path {
    std::size_t l1 = 0, l2 = 0, l3 = 0;
    bool has_l3 = false;
  };

  xcl::ThreadPool& pool_;
  Tlb tlb_;
  std::vector<Cache> l1s_;
  std::vector<Path> paths_;
  const CoalescedAccess* page_ = nullptr;
  std::size_t n_ = 0;
  std::function<void(std::size_t)> body_;
};

/// Generates the trace twice (cold + warm pass) and replays it through one
/// ReplayForest of the specs: each flushed page is processed by every unit
/// before the next page is generated.  Returns one entry per spec, in spec
/// order.
std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen, const std::vector<const DeviceSpec*>& specs,
    xcl::ThreadPool& pool);

/// Convenience overload on the global pool.
std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen, const std::vector<const DeviceSpec*>& specs);

}  // namespace eod::sim
