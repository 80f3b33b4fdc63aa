// Property tests for the high-throughput trace-replay engine: every replay
// path (batched raw, the line-coalesced replay forest over many
// hierarchies, one hierarchy alone on a multi-worker pool, hierarchies
// sharing level prefixes) must produce HierarchyCounters bit-identical to
// the seed per-access reference replay -- on randomized traces spanning the
// residence regimes of all 15 testbed hierarchies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/trace_replay.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference: the seed pipeline replayed one MemAccess at a time through
// CacheHierarchy::access().  Every engine path must match it bit for bit.

HierarchyCounters reference_replay(const MemoryTrace& trace,
                                   const DeviceSpec& spec) {
  CacheHierarchy h(spec);
  for (const MemAccess& a : trace) h.access(a.address, a.bytes, a.is_write);
  return h.counters();
}

ReplayMemoEntry reference_two_pass(const MemoryTrace& trace,
                                   const DeviceSpec& spec) {
  // The seed cold/warm protocol: replay, read, reset counters (cache state
  // survives), replay, read.
  CacheHierarchy h(spec);
  ReplayMemoEntry e;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) h.reset();
    for (const MemAccess& a : trace) h.access(a.address, a.bytes, a.is_write);
    (pass == 0 ? e.cold : e.warm) = h.counters();
  }
  e.accesses = trace.size();
  return e;
}

TraceGenerator generator_of(const MemoryTrace& trace) {
  return [&trace](TraceWriter& w) {
    for (const MemAccess& a : trace) w.emit(a.address, a.bytes, a.is_write);
  };
}

void expect_counters_eq(const HierarchyCounters& got,
                        const HierarchyCounters& want,
                        const std::string& context) {
  EXPECT_EQ(got.total_accesses, want.total_accesses) << context;
  EXPECT_EQ(got.l1_dcm, want.l1_dcm) << context;
  EXPECT_EQ(got.l2_dcm, want.l2_dcm) << context;
  EXPECT_EQ(got.l3_tcm, want.l3_tcm) << context;
  EXPECT_EQ(got.tlb_dm, want.tlb_dm) << context;
}

// ---------------------------------------------------------------------------
// Randomized trace families, chosen to stress every engine fast path: line
// coalescing (same-line bursts, dense strides), the MRU filters, spans that
// straddle lines and pages, and working sets around each hierarchy level.

MemoryTrace random_trace(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  MemoryTrace t;
  const int family = static_cast<int>(seed % 6);
  const std::uint64_t base = 0x10000 + (seed % 7) * 13;  // odd alignments too
  switch (family) {
    case 0: {  // uniform random in an L1-to-L3-sized window
      const std::uint64_t window = std::uint64_t{1} << (14 + seed % 10);
      std::uniform_int_distribution<std::uint64_t> addr(0, window - 1);
      for (int i = 0; i < 40000; ++i) {
        t.push_back({base + addr(rng), 4, (i & 7) == 0});
      }
      break;
    }
    case 1: {  // dense sequential strides (heavily coalescible)
      const std::uint32_t stride = (seed % 2) ? 4 : 16;
      for (int sweep = 0; sweep < 6; ++sweep) {
        for (std::uint64_t i = 0; i < 8000; ++i) {
          t.push_back({base + i * stride, stride, false});
        }
      }
      break;
    }
    case 2: {  // hot set + cold random mix
      std::uniform_int_distribution<std::uint64_t> hot(0, 63);
      std::uniform_int_distribution<std::uint64_t> cold(0, (1u << 22) - 1);
      for (int i = 0; i < 40000; ++i) {
        const bool is_hot = rng() % 10 != 0;
        t.push_back({base + (is_hot ? hot(rng) * 64 : cold(rng)), 8, false});
      }
      break;
    }
    case 3: {  // straddling spans: random sizes and alignments
      std::uniform_int_distribution<std::uint64_t> addr(0, (1u << 20) - 1);
      std::uniform_int_distribution<std::uint32_t> bytes(1, 256);
      for (int i = 0; i < 30000; ++i) {
        t.push_back({base + addr(rng), bytes(rng), (i & 3) == 0});
      }
      break;
    }
    case 4: {  // same-line bursts (repeat coalescing + MRU filter)
      std::uniform_int_distribution<std::uint64_t> line(0, 4095);
      std::uniform_int_distribution<int> burst(1, 50);
      int i = 0;
      while (i < 40000) {
        const std::uint64_t a = base + line(rng) * 64;
        for (int b = burst(rng); b > 0 && i < 40000; --b, ++i) {
          t.push_back({a + (rng() % 60), 4, false});
        }
      }
      break;
    }
    default: {  // cyclic sweep larger than most L1s (LRU worst case)
      for (int sweep = 0; sweep < 5; ++sweep) {
        for (std::uint64_t i = 0; i < 3000; ++i) {
          t.push_back({base + i * 64, 64, false});
        }
      }
      break;
    }
  }
  return t;
}

// One access per 4 KiB page over a 48-96 page window: every access changes
// page and the window straddles the 64-entry TLB, so LRU eviction at the
// capacity boundary decides tlb_dm.  Sweeps run forward (cyclic: defeats
// LRU once the window exceeds the TLB), backward and in random order; some
// accesses straddle a page boundary.
MemoryTrace page_strided_trace(std::uint64_t seed) {
  enum Order { kForward, kBackward, kRandom };
  static constexpr std::uint64_t kWindows[] = {48, 63, 64, 65, 96, 80};
  static constexpr Order kSweeps[] = {kForward, kForward, kRandom, kForward,
                                      kBackward, kRandom, kForward, kBackward};
  std::mt19937_64 rng(seed);
  const std::uint64_t pages = kWindows[seed % std::size(kWindows)];
  const std::uint64_t base = 0x400000;
  MemoryTrace t;
  for (const Order order : kSweeps) {
    for (std::uint64_t i = 0; i < pages; ++i) {
      const std::uint64_t page = order == kForward    ? i
                                 : order == kBackward ? pages - 1 - i
                                                      : rng() % pages;
      const bool straddle = rng() % 16 == 0;
      const std::uint64_t offset = straddle ? 4092 : (rng() % 64) * 64;
      t.push_back({base + page * 4096 + offset, straddle ? 8u : 4u, false});
    }
  }
  return t;
}

// Every property-test trace: the randomized families plus the page-strided
// TLB-boundary family.
std::vector<std::pair<std::string, MemoryTrace>> property_traces(
    std::uint64_t random_seeds, std::uint64_t page_seeds) {
  std::vector<std::pair<std::string, MemoryTrace>> out;
  for (std::uint64_t seed = 0; seed < random_seeds; ++seed) {
    out.emplace_back("seed=" + std::to_string(seed), random_trace(seed));
  }
  for (std::uint64_t seed = 0; seed < page_seeds; ++seed) {
    out.emplace_back("page-strided seed=" + std::to_string(seed),
                     page_strided_trace(seed));
  }
  return out;
}

std::vector<const DeviceSpec*> all_specs() {
  std::vector<const DeviceSpec*> specs;
  for (const DeviceSpec& s : testbed()) specs.push_back(&s);
  return specs;
}

// ---------------------------------------------------------------------------

TEST(CacheReplay, BatchedRawBitIdenticalToPerAccess) {
  const MemoryTrace trace = random_trace(3);
  for (const DeviceSpec* spec : all_specs()) {
    const HierarchyCounters want = reference_replay(trace, *spec);
    CacheHierarchy h(*spec);
    // Deliberately odd chunk sizes so batches split at awkward points.
    std::size_t i = 0, chunk = 1;
    while (i < trace.size()) {
      const std::size_t n = std::min(chunk, trace.size() - i);
      h.consume(trace.data() + i, n);
      i += n;
      chunk = chunk * 3 + 1;
    }
    expect_counters_eq(h.counters(), want, spec->name);
  }
}

TEST(CacheReplay, CoalescedBitIdenticalToPerAccessOnAllDevices) {
  xcl::ThreadPool pool(3);
  const std::vector<const DeviceSpec*> specs = all_specs();
  for (const auto& [name, trace] : property_traces(12, 6)) {
    ReplayForest forest(specs, pool);
    TraceWriter writer(forest);
    generator_of(trace)(writer);
    writer.finish();
    EXPECT_EQ(writer.accesses(), trace.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_counters_eq(forest.counters(i),
                         reference_replay(trace, *specs[i]),
                         specs[i]->name + " " + name);
    }
  }
}

// Replays each property trace through all `specs` in one call and through
// each spec alone, both on a multi-worker pool, against the seed two-pass
// protocol.
void expect_two_pass_matches_reference(
    const std::vector<const DeviceSpec*>& specs) {
  xcl::ThreadPool pool(3);
  for (const auto& [name, trace] : property_traces(4, 6)) {
    const std::vector<ReplayMemoEntry> got =
        replay_hierarchies(generator_of(trace), specs, pool);
    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ReplayMemoEntry want = reference_two_pass(trace, *specs[i]);
      const std::vector<ReplayMemoEntry> alone =
          replay_hierarchies(generator_of(trace), {specs[i]}, pool);
      ASSERT_EQ(alone.size(), 1u);
      for (const ReplayMemoEntry* e : {&got[i], &alone[0]}) {
        const std::string ctx = specs[i]->name + " " + name +
                                (e == &got[i] ? " together" : " alone");
        expect_counters_eq(e->cold, want.cold, ctx + " cold");
        expect_counters_eq(e->warm, want.warm, ctx + " warm");
        EXPECT_EQ(e->accesses, trace.size()) << ctx;
      }
    }
  }
}

TEST(CacheReplay, FanOutTwoPassBitIdenticalToSeedProtocol) {
  expect_two_pass_matches_reference(all_specs());
}

// A copy of the i7-6700K with its levels replaced.
DeviceSpec with_levels(const char* name, const CacheLevelSpec& l1,
                       const CacheLevelSpec& l2, const CacheLevelSpec& l3) {
  DeviceSpec spec = skylake();
  spec.name = name;
  spec.l1 = l1;
  spec.l2 = l2;
  spec.l3 = l3;
  return spec;
}

TEST(CacheReplay, SharedPrefixesMatchAlone) {
  // Every way two specs can share forest units: the same L1 under
  // different L2s, the same L1 and L2 under different L3s, one spec listed
  // twice; plus line sizes that differ between a unit and its child.
  const CacheLevelSpec l1{32 * 1024, 64, 8};
  const CacheLevelSpec l2{256 * 1024, 64, 8};
  const CacheLevelSpec none{};
  const DeviceSpec base =
      with_levels("base", l1, l2, {8 * 1024 * 1024, 64, 16});
  const DeviceSpec other_l2 =
      with_levels("other L2", l1, {128 * 1024, 64, 4}, none);
  const DeviceSpec other_l3 =
      with_levels("other L3", l1, l2, {1024 * 1024, 64, 16});
  const DeviceSpec narrow_over_wide =
      with_levels("64B L1 over 128B L2", {16 * 1024, 64, 4},
                  {64 * 1024, 128, 8}, none);
  const DeviceSpec wide_over_narrow =
      with_levels("128B L1 over 64B L2", {16 * 1024, 128, 4},
                  {64 * 1024, 64, 8}, {512 * 1024, 128, 16});
  const std::vector<const DeviceSpec*> specs = {
      &base, &other_l2, &other_l3, &base, &narrow_over_wide,
      &wide_over_narrow};
  xcl::ThreadPool pool(1);
  const ReplayForest::Shape shape = ReplayForest(specs, pool).shape();
  EXPECT_EQ(shape.tlb, 1u);
  EXPECT_EQ(shape.l1, 3u);
  EXPECT_EQ(shape.l2, 4u);
  EXPECT_EQ(shape.l3, 3u);
  expect_two_pass_matches_reference(specs);
}

TEST(CacheReplay, TestbedForestShapePinned) {
  // The 15 testbed hierarchies share one TLB and come down to 4 L1, 9
  // (L1, L2) and 3 (L1, L2, L3) geometries.  A spec edit that changes the
  // sharing changes the replay cost: update DESIGN.md §8 with this pin.
  xcl::ThreadPool pool(1);
  const ReplayForest::Shape shape = ReplayForest(all_specs(), pool).shape();
  EXPECT_EQ(shape.tlb, 1u);
  EXPECT_EQ(shape.l1, 4u);
  EXPECT_EQ(shape.l2, 9u);
  EXPECT_EQ(shape.l3, 3u);
}

// ---------------------------------------------------------------------------
// Independent TLB oracle: the reference replay above runs through the same
// LruTlb, so the TLB is checked on its own against a textbook
// move-to-front LRU stack.

class MoveToFrontLru {
 public:
  explicit MoveToFrontLru(std::size_t entries) : entries_(entries) {}

  bool touch(std::uint64_t page) {
    const auto it = std::find(stack_.begin(), stack_.end(), page);
    const bool hit = it != stack_.end();
    if (hit) {
      stack_.erase(it);
    } else if (stack_.size() == entries_) {
      stack_.pop_back();
    }
    stack_.insert(stack_.begin(), page);
    return hit;
  }

 private:
  std::size_t entries_;
  std::vector<std::uint64_t> stack_;  // front = most recently used
};

TEST(LruTlbOracle, MatchesMoveToFrontStackOnSeededPageStreams) {
  for (const unsigned entries : {1u, 2u, 64u}) {
    std::vector<std::uint64_t> working_sets = {entries, entries + 1,
                                               2 * entries};
    if (entries > 1) working_sets.push_back(entries - 1);
    for (const std::uint64_t ws : working_sets) {
      for (int pattern = 0; pattern < 3; ++pattern) {
        std::mt19937_64 rng(entries * 1000 + ws * 10 + pattern);
        // Wide, scattered page numbers so index probes collide and wrap.
        std::vector<std::uint64_t> pages(ws);
        for (std::uint64_t& p : pages) p = rng() >> (rng() % 40);
        LruTlb tlb(entries);
        MoveToFrontLru oracle(entries);
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < 20000; ++i) {
          // 0: cyclic sweep (every touch misses once ws > entries);
          // 1: uniform random mix; 2: sweep with random detours.
          const std::uint64_t k =
              pattern == 0   ? i % ws
              : pattern == 1 ? rng() % ws
                             : (rng() % 4 == 0 ? rng() % ws : i % ws);
          const bool want = oracle.touch(pages[k]);
          ASSERT_EQ(tlb.touch(pages[k]), want)
              << "entries=" << entries << " ws=" << ws
              << " pattern=" << pattern << " i=" << i;
          hits += want;
        }
        if (pattern == 0 && ws > entries) {
          EXPECT_EQ(hits, 0u);
        }
        if (ws <= entries) {
          EXPECT_EQ(hits, 20000 - ws);
        }
      }
    }
  }
  EXPECT_THROW(LruTlb(0), std::invalid_argument);
}

TEST(LruTlbOracle, PageStridedTlbMissesPinned) {
  // Recorded with the stamp-scan 64-way TLB this type replaced.
  const MemoryTrace trace = page_strided_trace(4);  // 96-page window
  const HierarchyCounters c = reference_replay(trace, skylake());
  EXPECT_EQ(c.total_accesses, 809u);
  EXPECT_EQ(c.tlb_dm, 469u);
}

TEST(CacheReplay, EmitRunMatchesElementwiseEmits) {
  // emit_run's direct per-line record generation must be access-for-access
  // equivalent to emitting every element, for aligned and unaligned runs.
  struct Run {
    std::uint64_t base;
    std::uint32_t elem;
    std::uint64_t count;
  };
  const std::vector<Run> runs = {
      {0x10000, 16, 1000}, {0x10008, 8, 3}, {0x10004, 4, 997},
      {0x1000c, 4, 31},    {0x20000, 64, 200}, {0x2000a, 2, 5000},
      {0x30000, 32, 1},    {0x30010, 16, 2},   {0x40001, 1, 130}};
  const TraceGenerator with_run = [&runs](TraceWriter& w) {
    for (const Run& r : runs) w.emit_run(r.base, r.elem, r.count, false);
  };
  const TraceGenerator elementwise = [&runs](TraceWriter& w) {
    for (const Run& r : runs) {
      for (std::uint64_t i = 0; i < r.count; ++i) {
        w.emit(r.base + i * r.elem, r.elem, false);
      }
    }
  };
  EXPECT_EQ(hash_trace(with_run).accesses, hash_trace(elementwise).accesses);
  xcl::ThreadPool pool(3);
  const std::vector<const DeviceSpec*> specs = {&skylake(),
                                                all_specs().back()};
  ReplayForest fa(specs, pool), fb(specs, pool);
  {
    TraceWriter wa(fa);
    with_run(wa);
  }
  {
    TraceWriter wb(fb);
    elementwise(wb);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_counters_eq(fa.counters(i), fb.counters(i),
                       specs[i]->name + " emit_run");
  }
}

TEST(CacheReplay, HandBuiltRepeatRecordsExactEvenForHugeSpans) {
  // Records whose span exceeds an L1 (or the whole TLB reach) cannot take
  // the guaranteed-hit repeat credit; each unit must expand them.  Check
  // against per-access expansion of the same records on every hierarchy.
  const std::vector<CoalescedAccess> records = {
      {0x10000, 64 * 1024, 3},   // span 1024 lines > the i7's L1 of 512
      {0x10000, 512 * 1024, 2},  // span > TLB reach (64 x 4 KiB)
      {0x20000, 64, 5},          // small span: credited
      {0x20000, 128, 0},
  };
  xcl::ThreadPool pool(3);
  const std::vector<const DeviceSpec*> specs = all_specs();
  ReplayForest forest(specs, pool);
  forest.consume(records.data(), records.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CacheHierarchy ref(*specs[i]);
    for (const CoalescedAccess& r : records) {
      for (std::uint32_t k = 0; k <= r.repeats; ++k) {
        ref.access(r.address, r.bytes, false);
      }
    }
    expect_counters_eq(forest.counters(i), ref.counters(),
                       specs[i]->name + " huge-span records");
  }
}

TEST(CacheReplay, WriterFlushesAcrossPageBoundaries) {
  // A trace larger than one 64K-record page must flush seamlessly.
  const std::size_t lines = kTracePageAccesses + 12345;
  const TraceGenerator gen = [lines](TraceWriter& w) {
    for (std::size_t i = 0; i < lines; ++i) {
      w.emit(i * 64, 4, false);  // every record a fresh line: no merging
    }
  };
  const DeviceSpec& spec = skylake();
  MemoryTrace trace;
  trace.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    trace.push_back({i * 64, 4, false});
  }
  const HierarchyCounters want = reference_replay(trace, spec);
  xcl::ThreadPool pool(3);
  ReplayForest forest({&spec}, pool);
  struct Sink final : CoalescedSink {
    ReplayForest* forest = nullptr;
    std::size_t calls = 0;
    void consume(const CoalescedAccess* page, std::size_t n) override {
      ++calls;
      forest->consume(page, n);
    }
  } sink;
  sink.forest = &forest;
  TraceWriter writer(sink);
  gen(writer);
  writer.finish();
  EXPECT_GE(sink.calls, 2u);
  EXPECT_EQ(writer.accesses(), lines);
  expect_counters_eq(forest.counters(0), want, "page boundary");
}

TEST(CacheReplay, TraceKeyIsOrderAndContentSensitive) {
  const MemoryTrace a = random_trace(1);
  MemoryTrace b = a;
  std::swap(b.front(), b.back());
  const TraceKey ka = hash_trace(generator_of(a));
  const TraceKey ka2 = hash_trace(generator_of(a));
  const TraceKey kb = hash_trace(generator_of(b));
  EXPECT_EQ(ka, ka2);
  EXPECT_EQ(ka.accesses, a.size());
  EXPECT_FALSE(ka == kb);
}

TEST(ReplayCacheTest, MemoizesAndRoundTripsThroughDisk) {
  ReplayCache::instance().clear();
  const MemoryTrace trace = random_trace(2);
  const DeviceSpec& spec = skylake();
  const ReplayMemoEntry want = reference_two_pass(trace, spec);

  const ReplayMemoEntry first =
      memoized_replay(generator_of(trace), spec, "test/first");
  expect_counters_eq(first.cold, want.cold, "memo cold");
  expect_counters_eq(first.warm, want.warm, "memo warm");
  const ReplayMemoEntry second =
      memoized_replay(generator_of(trace), spec, "test/second");
  expect_counters_eq(second.warm, want.warm, "memo hit");
  const ReplayCache::Stats stats = ReplayCache::instance().stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GE(stats.hits, 1u);

  // Disk round-trip: persist, clear, reload -- a fresh process must serve
  // the cell without replaying.
  const std::string path =
      (std::filesystem::temp_directory_path() / "eod_replay_memo_test.tsv")
          .string();
  std::filesystem::remove(path);
  ReplayCache::instance().clear();
  ReplayCache::instance().set_disk_store(path);
  (void)memoized_replay(generator_of(trace), spec, "test/disk");
  ReplayCache::instance().clear();
  const std::size_t loaded = ReplayCache::instance().set_disk_store(path);
  EXPECT_EQ(loaded, 1u);
  const TraceKey key = hash_trace(generator_of(trace));
  const auto hit =
      ReplayCache::instance().find(key, hierarchy_geometry_hash(spec));
  ASSERT_TRUE(hit.has_value());
  expect_counters_eq(hit->warm, want.warm, "disk round-trip");
  ReplayCache::instance().clear();
  std::filesystem::remove(path);
}

TEST(ReplayCacheTest, PrimeWarmsEveryHierarchyInOnePass) {
  ReplayCache::instance().clear();
  const MemoryTrace trace = random_trace(4);
  const std::vector<const DeviceSpec*> specs = all_specs();
  const TraceKey key =
      prime_replay_memo(generator_of(trace), specs, "test/prime");
  EXPECT_EQ(key.accesses, trace.size());
  for (const DeviceSpec* spec : specs) {
    const auto hit =
        ReplayCache::instance().find(key, hierarchy_geometry_hash(*spec));
    ASSERT_TRUE(hit.has_value()) << spec->name;
    const ReplayMemoEntry want = reference_two_pass(trace, *spec);
    expect_counters_eq(hit->warm, want.warm, spec->name + " primed");
  }
  ReplayCache::instance().clear();
}

}  // namespace
}  // namespace eod::sim
