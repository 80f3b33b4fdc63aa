// google-benchmark microbenches of the trace-replay engine (DESIGN.md §8):
// accesses/second for the batched raw-page path vs the line-coalesced
// replay forest with one spec, on a DRAM-resident streaming trace (64 MiB
// sweep: misses every level of the Skylake hierarchy), plus the forest over
// the whole testbed, and a page-strided trace whose every access changes
// page (the data-TLB path the streaming sweep touches once per 64 lines).
//
// Items/s in the report IS accesses/s.
#include <benchmark/benchmark.h>

#include <cstdint>
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

// One spec through replay_hierarchies: the single-hierarchy chain of the
// replay forest (cold + warm pass; items/s counts both passes).  The
// replays run on pool workers too, so rates are per wall-clock second.
void BM_CoalescedReplay(benchmark::State& state) {
  for (auto _ : state) {
    const auto entries = replay_hierarchies(generate, {&skylake()});
    benchmark::DoNotOptimize(entries.front().warm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kAccessesPerSweep));
}
BENCHMARK(BM_CoalescedReplay)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PageStridedCoalescedReplay(benchmark::State& state) {
  for (auto _ : state) {
    const auto entries =
        replay_hierarchies(generate_page_strided, {&skylake()});
    benchmark::DoNotOptimize(entries.front().warm);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kStridedAccesses));
}
BENCHMARK(BM_PageStridedCoalescedReplay)->Unit(benchmark::kMillisecond)->UseRealTime();

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
BENCHMARK(BM_FanOutAllHierarchies)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
