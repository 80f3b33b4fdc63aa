// google-benchmark microbenches of the trace-replay engine (DESIGN.md §8):
// accesses/second for the seed per-access callback pipeline vs the batched
// raw-page path vs the line-coalesced path, on a DRAM-resident streaming
// trace (64 MiB sweep: misses every level of the Skylake hierarchy), plus
// the single-generation multi-hierarchy fan-out across the whole testbed,
// and a page-strided trace whose every access changes page (the data-TLB
// path the streaming sweep touches once per 64 lines).
//
// Items/s in the report IS accesses/s; the PR acceptance bar is coalesced
// >= 10x the seed per-access rate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/device_spec.hpp"
#include "sim/trace_replay.hpp"

namespace {

using namespace eod;
using namespace eod::sim;

// The workload: a 4-byte-stride streaming sweep over a window larger than
// any testbed L3 (gem-style all-pairs inner loop at DRAM-resident size).
constexpr std::uint64_t kBase = 0x10000;
constexpr std::uint64_t kWindowBytes = 64ull << 20;
constexpr std::uint64_t kAccessesPerSweep = kWindowBytes / 4;

void generate(TraceWriter& w) { w.emit_run(kBase, 4, kAccessesPerSweep, false); }

// The TLB workload: one 4-byte access per 4 KiB page, cycling over a
// 96-page window (beyond the 64-entry TLB), so every access misses the TLB
// and evicts its LRU entry.  The line inside each page moves every sweep,
// which keeps the cache sets spread.
constexpr std::uint64_t kStridedPages = 96;
constexpr std::uint64_t kStridedAccesses = 1ull << 22;

void generate_page_strided(TraceWriter& w) {
  for (std::uint64_t i = 0; i < kStridedAccesses; ++i) {
    const std::uint64_t page = i % kStridedPages;
    const std::uint64_t line = (i / kStridedPages + page) % 64;
    w.emit(kBase + page * 4096 + line * 64, 4, false);
  }
}

// ---- seed baseline -------------------------------------------------------
// Faithful replica of the seed pipeline's per-access path: AoS ways,
// modulo set indexing, combined walk, one std::function call per access
// (how DwarfBase::stream_trace fed the simulator before this engine).

class SeedCacheLevel {
 public:
  SeedCacheLevel(std::size_t size_bytes, unsigned line_bytes,
                 unsigned associativity)
      : line_bytes_(line_bytes), assoc_(associativity) {
    const std::size_t lines = size_bytes / line_bytes;
    sets_ = lines / assoc_;
    ways_.resize(lines);
  }

  bool access(std::uint64_t address) {
    ++clock_;
    const std::uint64_t line = address / line_bytes_;
    const std::size_t set = static_cast<std::size_t>(line % sets_);
    Way* base = &ways_[set * assoc_];
    Way* victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
      if (base[w].tag == line) {
        base[w].lru = clock_;
        ++hits_;
        return true;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    victim->tag = line;
    victim->lru = clock_;
    ++misses_;
    return false;
  }

  [[nodiscard]] unsigned line_bytes() const { return line_bytes_; }

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
  };
  unsigned line_bytes_;
  unsigned assoc_;
  std::size_t sets_ = 0;
  std::vector<Way> ways_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class SeedHierarchy {
 public:
  explicit SeedHierarchy(const DeviceSpec& spec, unsigned tlb_entries = 64,
                         unsigned page_bytes = 4096)
      : l1_(spec.l1.size_bytes, spec.l1.line_bytes, spec.l1.associativity),
        l2_(spec.l2.size_bytes, spec.l2.line_bytes, spec.l2.associativity),
        tlb_(static_cast<std::size_t>(tlb_entries) * page_bytes, page_bytes,
             tlb_entries),
        page_bytes_(page_bytes) {
    if (spec.l3.size_bytes != 0) {
      l3_.emplace(spec.l3.size_bytes, spec.l3.line_bytes,
                  spec.l3.associativity);
    }
  }

  void access(std::uint64_t address, std::uint32_t bytes, bool) {
    const unsigned line = l1_.line_bytes();
    const std::uint64_t first = address / line;
    const std::uint64_t last =
        (address + (bytes == 0 ? 0 : bytes - 1)) / line;
    for (std::uint64_t l = first; l <= last; ++l) {
      const std::uint64_t a = l * line;
      ++counters_.total_accesses;
      if (!tlb_.access(a / page_bytes_ * page_bytes_)) ++counters_.tlb_dm;
      if (l1_.access(a)) continue;
      ++counters_.l1_dcm;
      if (l2_.access(a)) continue;
      ++counters_.l2_dcm;
      if (l3_.has_value()) {
        if (l3_->access(a)) continue;
        ++counters_.l3_tcm;
      } else {
        ++counters_.l3_tcm;
      }
    }
  }

  [[nodiscard]] const HierarchyCounters& counters() const {
    return counters_;
  }

 private:
  SeedCacheLevel l1_;
  SeedCacheLevel l2_;
  std::optional<SeedCacheLevel> l3_;
  SeedCacheLevel tlb_;
  unsigned page_bytes_;
  HierarchyCounters counters_;
};

void BM_SeedPerAccessReplay(benchmark::State& state) {
  for (auto _ : state) {
    SeedHierarchy h(skylake());
    const std::function<void(const MemAccess&)> sink =
        [&h](const MemAccess& a) { h.access(a.address, a.bytes, a.is_write); };
    // The seed stream_trace path: one indirect call per access.
    for (std::uint64_t i = 0; i < kAccessesPerSweep; ++i) {
      sink({kBase + i * 4, 4, false});
    }
    benchmark::DoNotOptimize(h.counters());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAccessesPerSweep));
}
BENCHMARK(BM_SeedPerAccessReplay)->Unit(benchmark::kMillisecond);

// ---- engine paths --------------------------------------------------------

void BM_BatchedRawReplay(benchmark::State& state) {
  struct Sink final : TraceSink {
    CacheHierarchy* h = nullptr;
    void consume(const MemAccess* page, std::size_t n) override {
      h->consume(page, n);
    }
  };
  for (auto _ : state) {
    CacheHierarchy h(skylake());
    Sink sink;
    sink.h = &h;
    TraceWriter writer(sink);
    generate(writer);
    writer.finish();
    benchmark::DoNotOptimize(h.counters());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAccessesPerSweep));
}
BENCHMARK(BM_BatchedRawReplay)->Unit(benchmark::kMillisecond);

struct CoalescedHierarchySink final : CoalescedSink {
  CacheHierarchy* h = nullptr;
  void consume(const CoalescedAccess* page, std::size_t n) override {
    h->consume_coalesced(page, n);
  }
};

void BM_CoalescedReplay(benchmark::State& state) {
  for (auto _ : state) {
    CacheHierarchy h(skylake());
    CoalescedHierarchySink sink;
    sink.h = &h;
    TraceWriter writer(sink);
    generate(writer);
    writer.finish();
    benchmark::DoNotOptimize(h.counters());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAccessesPerSweep));
}
BENCHMARK(BM_CoalescedReplay)->Unit(benchmark::kMillisecond);

void BM_PageStridedCoalescedReplay(benchmark::State& state) {
  for (auto _ : state) {
    CacheHierarchy h(skylake());
    CoalescedHierarchySink sink;
    sink.h = &h;
    TraceWriter writer(sink);
    generate_page_strided(writer);
    writer.finish();
    benchmark::DoNotOptimize(h.counters());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStridedAccesses));
}
BENCHMARK(BM_PageStridedCoalescedReplay)->Unit(benchmark::kMillisecond);

void BM_FanOutAllHierarchies(benchmark::State& state) {
  // One generation feeding the whole 15-device testbed (cold + warm pass
  // each); items/s is per-hierarchy-access throughput.
  std::vector<const DeviceSpec*> specs;
  for (const DeviceSpec& s : testbed()) specs.push_back(&s);
  for (auto _ : state) {
    const auto entries = replay_hierarchies(generate, specs);
    benchmark::DoNotOptimize(entries.front().warm.total_accesses);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kAccessesPerSweep * specs.size() * 2));
}
BENCHMARK(BM_FanOutAllHierarchies)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
