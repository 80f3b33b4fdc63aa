// Span-tier equivalence suite (DESIGN.md §9): every dwarf that registers a
// span kernel must reproduce the per-item reference path bit-identically.
// Each kernel carries one fast body -- an autovectorizable loop or, where
// that measured slower, explicit lane vectors with masked selects and
// sliced tables -- and every float and integer it produces must match the
// scalar loop bit for bit (signed zeros, NaN payloads and all).  For each
// (dwarf, size) cell the benchmark runs twice from an identical
// deterministic setup -- once with --dispatch=item (the per-item loop/fiber
// reference) and once with --dispatch=auto -- and the test pins:
//   * result_signature(): an order-sensitive byte hash of the output
//     vectors, so "equal" means every float/int is bit-identical;
//   * validation against the serial reference in both modes;
//   * that the auto run actually took the span tier (groups_span delta);
//   * the memory-trace content key and the replayed warm cache counters,
//     which must not depend on the dispatch tier at all;
// The dwarfs whose span body is built on explicit lane vectors
// (xcl/simd.hpp) are pinned again at custom lane-unaligned extents, so the
// vector main loop AND its scalar tail both run at every lane width; plus
// queue/tier composition: bit-equivalence holds on an out-of-order queue,
// and an active CheckSession overrides kAuto.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/crc/crc.hpp"
#include "dwarfs/dwt/dwt.hpp"
#include "dwarfs/fft/fft.hpp"
#include "dwarfs/gem/gem.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/lud/lud.hpp"
#include "dwarfs/registry.hpp"
#include "dwarfs/srad/srad.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/check/session.hpp"
#include "xcl/context.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace {

using eod::dwarfs::ProblemSize;

// Replays are memoized process-wide by trace content + geometry, so the
// auto-mode replay of an identical trace is a memo hit -- the counter
// comparison is really a trace-bit-identity proof plus the replay
// determinism that cache_replay_test pins separately.
constexpr std::size_t kMaxReplayAccesses = 20'000'000;

struct RunOutcome {
  bool ok = false;                  ///< validate() against serial reference
  std::uint64_t signature = 0;      ///< result_signature() byte hash
  std::uint64_t span_groups = 0;    ///< groups_span delta during run()
  std::uint64_t other_groups = 0;   ///< loop+fiber delta during run()
  std::optional<eod::sim::TraceKey> trace;
  std::optional<eod::sim::HierarchyCounters> warm;
};

// Runs an already set-up (or configured) dwarf once under `mode`.
RunOutcome run_dwarf(eod::dwarfs::Dwarf& dwarf, eod::xcl::DispatchMode mode,
                     std::optional<eod::xcl::QueueMode> queue_mode) {
  struct ModeGuard {
    eod::xcl::DispatchMode prev = eod::xcl::dispatch_mode();
    ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
  } guard;
  eod::xcl::set_dispatch_mode(mode);

  eod::xcl::Device& dev = eod::sim::testbed_device("i7-6700K");
  eod::xcl::Context ctx(dev);
  eod::xcl::Queue q(ctx, queue_mode);
  dwarf.bind(ctx, q);

  // The delta brackets run() AND finish(): an out-of-order queue
  // (EOD_QUEUE=ooo) defers kernel execution to the sync point inside
  // finish(), so snapshotting after run() alone would miss every group.
  const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
  dwarf.run();
  dwarf.finish();
  const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();

  RunOutcome out;
  out.ok = dwarf.validate().ok;
  out.signature = dwarf.result_signature();
  out.span_groups = after.groups_span - before.groups_span;
  out.other_groups = (after.groups_loop - before.groups_loop) +
                     (after.groups_fiber - before.groups_fiber);

  const std::size_t hint = dwarf.trace_size_hint();
  if (hint > 0 && hint <= kMaxReplayAccesses) {
    auto gen = [&dwarf](eod::sim::TraceWriter& w) { dwarf.stream_trace(w); };
    out.trace = eod::sim::hash_trace(gen);
    out.warm = eod::sim::memoized_replay(gen,
                                         eod::sim::spec_by_name("i7-6700K"),
                                         dwarf.name() + "/span-eq")
                   .warm;
  }
  dwarf.unbind();
  return out;
}

RunOutcome run_once(const char* name, ProblemSize size,
                    eod::xcl::DispatchMode mode,
                    std::optional<eod::xcl::QueueMode> queue_mode =
                        std::nullopt) {
  auto dwarf = eod::dwarfs::create_dwarf(name);
  dwarf->setup(size);
  return run_dwarf(*dwarf, mode, queue_mode);
}

// Both tiers validate, only the auto run takes the span tier, and the
// output bytes, memory trace and replayed warm counters are identical.
void expect_fast_matches_item(const RunOutcome& item, const RunOutcome& fast) {
  // Both tiers pass serial-reference validation...
  EXPECT_TRUE(item.ok);
  EXPECT_TRUE(fast.ok);
  // ...and the tiers really differed: item pinned the reference path,
  // auto dispatched every group of the converted kernels as one call.
  EXPECT_EQ(item.span_groups, 0u);
  EXPECT_GT(fast.span_groups, 0u);

  // Byte-exact output equivalence, not tolerance-based validation.
  ASSERT_NE(item.signature, 0u);
  EXPECT_EQ(fast.signature, item.signature);

  // The memory trace (and therefore every replayed cache counter) is a
  // function of the benchmark's data, not of the dispatch tier.
  ASSERT_EQ(item.trace.has_value(), fast.trace.has_value());
  if (item.trace.has_value()) {
    EXPECT_EQ(item.trace->content_hash, fast.trace->content_hash);
    EXPECT_EQ(item.trace->accesses, fast.trace->accesses);
    EXPECT_EQ(*item.warm, *fast.warm);
  }
}

struct SpanCase {
  const char* name;
  std::vector<ProblemSize> sizes;
  /// Builds the configured dwarf for a size; empty = the registry's
  /// create_dwarf(name) set up at that size.
  std::function<std::unique_ptr<eod::dwarfs::Dwarf>(ProblemSize)> make = {};
};

// Print a case by its dwarf name: gtest's default byte dump would put the
// name pointer and vector storage -- addresses that change with every
// build and process under ASLR -- into the listed test names.
void PrintTo(const SpanCase& c, std::ostream* os) {
  *os << '"' << c.name << '"';
}

// gem (O(vertices x atoms)) and cwt (O(N x S x support)) grow
// superlinearly; their medium/large functional passes run for minutes, so
// -- like dwarf_validation_test -- the equivalence cells stop at small.
// lud's item tier runs every interior block as 256 fibers, one ucontext
// switch per barrier: one medium pass takes about 40 s on 4 cores, so its
// cells stop at small (medium's auto bits are pinned in medium_pins_test).
// Every size still takes the same span code path (tail clamping included:
// the tested cells already exercise padded final groups).
std::unique_ptr<eod::dwarfs::Dwarf> dwt_fractional(std::size_t width,
                                                   std::size_t height);

const SpanCase kCases[] = {
    {"kmeans", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
                ProblemSize::kLarge}},
    {"csr", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
             ProblemSize::kLarge}},
    {"crc", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
             ProblemSize::kLarge}},
    {"srad", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
              ProblemSize::kLarge}},
    {"dwt", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
             ProblemSize::kLarge}},
    {"nw", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
            ProblemSize::kLarge}},
    {"lud", {ProblemSize::kTiny, ProblemSize::kSmall}},
    {"gem", {ProblemSize::kTiny, ProblemSize::kSmall}},
    {"cwt", {ProblemSize::kTiny, ProblemSize::kSmall}},
    // The leaf's 8-bit pixels keep dwt's lifting sums exact, so only a
    // fractional raster shows a change of rounding order.
    {"dwt_fractional",
     {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium},
     [](ProblemSize s) {
       const eod::dwarfs::Dwt::Extent e = eod::dwarfs::Dwt::extent_for(s);
       return dwt_fractional(e.width, e.height);
     }},
};

class SpanTier : public ::testing::TestWithParam<SpanCase> {};

TEST_P(SpanTier, SpanMatchesItemReferenceBitExactly) {
  const SpanCase& c = GetParam();
  for (const ProblemSize size : c.sizes) {
    SCOPED_TRACE(std::string(c.name) + "/" + eod::dwarfs::to_string(size));
    if (c.make) {
      const auto item_dwarf = c.make(size);
      const auto span_dwarf = c.make(size);
      expect_fast_matches_item(
          run_dwarf(*item_dwarf, eod::xcl::DispatchMode::kItem, std::nullopt),
          run_dwarf(*span_dwarf, eod::xcl::DispatchMode::kAuto, std::nullopt));
      continue;
    }
    const RunOutcome item =
        run_once(c.name, size, eod::xcl::DispatchMode::kItem);
    const RunOutcome span =
        run_once(c.name, size, eod::xcl::DispatchMode::kAuto);
    expect_fast_matches_item(item, span);
  }
}

INSTANTIATE_TEST_SUITE_P(ConvertedDwarfs, SpanTier,
                         ::testing::ValuesIn(kCases),
                         [](const auto& ti) {
                           return std::string(ti.param.name);
                         });

// The explicit-vector span bodies step W = simd::kLanes elements at a time
// and finish the sub-W remainder with the scalar loop.  The preset sizes
// are mostly lane multiples, so these cells configure extents that are
// not -- prime point/vertex/column counts, byte counts off the slice-by-8
// stride and the page size -- and the tail runs at every lane width.
struct SimdCase {
  const char* name;
  std::vector<std::function<std::unique_ptr<eod::dwarfs::Dwarf>()>> extents;
};

void PrintTo(const SimdCase& c, std::ostream* os) {
  *os << '"' << c.name << '"';
}

std::unique_ptr<eod::dwarfs::Dwarf> kmeans_with(std::size_t points,
                                                unsigned features) {
  auto d = std::make_unique<eod::dwarfs::KMeans>();
  eod::dwarfs::KMeans::Params p;
  p.points = points;
  p.features = features;
  p.rounds = 3;
  d->configure(p);
  return d;
}

std::unique_ptr<eod::dwarfs::Dwarf> crc_with(std::size_t bytes) {
  auto d = std::make_unique<eod::dwarfs::Crc>();
  d->configure(bytes);
  return d;
}

std::unique_ptr<eod::dwarfs::Dwarf> srad_with(std::size_t rows,
                                              std::size_t cols) {
  auto d = std::make_unique<eod::dwarfs::Srad>();
  d->configure({rows, cols, eod::dwarfs::Srad::kLambda, 2});
  return d;
}

std::unique_ptr<eod::dwarfs::Dwarf> gem_with(std::size_t atoms) {
  auto d = std::make_unique<eod::dwarfs::Gem>();
  d->configure(atoms);
  return d;
}

// The preset's three levels, or as many as the extent allows.
std::unique_ptr<eod::dwarfs::Dwarf> dwt_with(std::size_t width,
                                             std::size_t height) {
  auto d = std::make_unique<eod::dwarfs::Dwt>();
  const eod::dwarfs::Dwt::Extent extent{width, height};
  d->configure(extent, std::min(eod::dwarfs::Dwt::kLevels,
                                eod::dwarfs::Dwt::max_levels(extent)));
  return d;
}

// A seeded raster with fractional pixels and the same levels as dwt_with.
std::unique_ptr<eod::dwarfs::Dwarf> dwt_fractional(std::size_t width,
                                                   std::size_t height) {
  std::vector<float> image(width * height);
  eod::dwarfs::SplitMix64 rng(0x647774ull);  // "dwt"
  for (float& p : image) p = rng.uniform(0.0f, 255.0f);
  auto d = std::make_unique<eod::dwarfs::Dwt>();
  const eod::dwarfs::Dwt::Extent extent{width, height};
  d->configure_with_image(extent,
                          std::min(eod::dwarfs::Dwt::kLevels,
                                   eod::dwarfs::Dwt::max_levels(extent)),
                          image);
  return d;
}

std::unique_ptr<eod::dwarfs::Dwarf> lud_with(std::size_t n) {
  auto d = std::make_unique<eod::dwarfs::Lud>();
  d->configure(n);
  return d;
}

const SimdCase kSimdCases[] = {
    {"kmeans",
     {[] { return kmeans_with(1021, 26); }, [] { return kmeans_with(7, 3); }}},
    {"crc", {[] { return crc_with(100003); }, [] { return crc_with(13); }}},
    {"srad", {[] { return srad_with(67, 61); }, [] { return srad_with(5, 3); }}},
    {"gem", {[] { return gem_with(203); }, [] { return gem_with(3); }}},
    // Column ranges that end mid-vector in the vertical pass, on every
    // level (67 -> 34 -> 17 columns), and a one-level 3x2 image.
    {"dwt", {[] { return dwt_with(67, 61); }, [] { return dwt_with(3, 2); }}},
    {"dwt_fractional",
     {[] { return dwt_fractional(67, 61); },
      [] { return dwt_fractional(3, 2); }}},
    // One, two and three block rows: the widest trailing update is
    // rem = 0 (diagonal only), 1 and 2 blocks.
    {"lud",
     {[] { return lud_with(16); }, [] { return lud_with(32); },
      [] { return lud_with(48); }}},
};

class SimdTier : public ::testing::TestWithParam<SimdCase> {};

TEST_P(SimdTier, SimdMatchesItemReferenceBitExactly) {
  const SimdCase& c = GetParam();
  for (std::size_t e = 0; e < c.extents.size(); ++e) {
    SCOPED_TRACE(std::string(c.name) + " extent #" + std::to_string(e));
    const auto item_dwarf = c.extents[e]();
    const auto fast_dwarf = c.extents[e]();
    expect_fast_matches_item(
        run_dwarf(*item_dwarf, eod::xcl::DispatchMode::kItem, std::nullopt),
        run_dwarf(*fast_dwarf, eod::xcl::DispatchMode::kAuto, std::nullopt));
  }
}

INSTANTIATE_TEST_SUITE_P(VectorizedDwarfs, SimdTier,
                         ::testing::ValuesIn(kSimdCases),
                         [](const auto& ti) {
                           return std::string(ti.param.name);
                         });

// fft's result_signature() stays 0 (its pins say so), so its output is
// hashed directly.  Every power-of-two length runs in both directions: the
// stages read the twiddle table at every stride from 1 to n/2, lengths
// below 128 run one short group per stage, and the inverse adds the
// fft_scale kernel.  One Fft is reconfigured throughout, so a table kept
// across configure() would be read at the wrong length or sign.  Under
// auto no group may fall back to the loop tier.
TEST(SpanTierFft, EveryLengthAndDirectionMatchesItemBitExactly) {
  struct ModeGuard {
    eod::xcl::DispatchMode prev = eod::xcl::dispatch_mode();
    ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
  } guard;
  using eod::dwarfs::FftDirection;
  eod::xcl::Context ctx(eod::sim::testbed_device("i7-6700K"));
  eod::xcl::Queue q(ctx);
  eod::dwarfs::Fft fft;
  for (std::size_t n = 2; n <= (std::size_t{1} << 21); n <<= 1) {
    for (const FftDirection dir :
         {FftDirection::kForward, FftDirection::kInverse}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (dir == FftDirection::kForward ? " forward" : " inverse"));
      std::uint64_t hash[2] = {};
      std::uint64_t span_groups[2] = {};
      std::uint64_t other_groups[2] = {};
      for (const int fast : {0, 1}) {
        eod::xcl::set_dispatch_mode(fast != 0 ? eod::xcl::DispatchMode::kAuto
                                              : eod::xcl::DispatchMode::kItem);
        fft.configure(n, dir);
        fft.bind(ctx, q);
        const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
        fft.run();
        fft.finish();
        const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();
        hash[fast] = eod::dwarfs::hash_result<float>(fft.output());
        span_groups[fast] = after.groups_span - before.groups_span;
        other_groups[fast] = (after.groups_loop - before.groups_loop) +
                             (after.groups_fiber - before.groups_fiber);
        fft.unbind();
      }
      EXPECT_EQ(hash[1], hash[0]);
      EXPECT_EQ(span_groups[0], 0u);
      EXPECT_GT(span_groups[1], 0u);
      EXPECT_EQ(other_groups[1], 0u);
    }
  }
}

// kAuto runs every group of a fully converted dwarf as one span call:
// nothing falls back to the loop or fiber tiers.
TEST(SpanTierAuto, AutoSelectsSpanWhereLegal) {
  const RunOutcome a =
      run_once("kmeans", ProblemSize::kTiny, eod::xcl::DispatchMode::kAuto);
  EXPECT_TRUE(a.ok);
  EXPECT_GT(a.span_groups, 0u);
  EXPECT_EQ(a.other_groups, 0u);
}

// Dwarfs without a span body are untouched by the override: hmm's
// barrier kernels must run on the fiber path in every mode.  (lud used to
// be this case until its kernels grew span bodies for the partitioned
// multi-device path, DESIGN.md §14.)
TEST(SpanTierAuto, NonConvertedDwarfKeepsReferencePath) {
  const RunOutcome a =
      run_once("hmm", ProblemSize::kTiny, eod::xcl::DispatchMode::kAuto);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.span_groups, 0u);
  EXPECT_GT(a.other_groups, 0u);
}

// Bit-equivalence must survive queue-mode composition: the out-of-order
// queue defers and reorders kernel execution behind the event DAG, and the
// span bodies must still land the exact reference bytes.
TEST(SpanTierComposition, BitExactOnOutOfOrderQueue) {
  for (const char* name : {"kmeans", "srad", "crc", "gem"}) {
    SCOPED_TRACE(name);
    const RunOutcome item =
        run_once(name, ProblemSize::kSmall, eod::xcl::DispatchMode::kItem,
                 eod::xcl::QueueMode::kOutOfOrder);
    const RunOutcome fast =
        run_once(name, ProblemSize::kSmall, eod::xcl::DispatchMode::kAuto,
                 eod::xcl::QueueMode::kOutOfOrder);
    EXPECT_TRUE(item.ok);
    EXPECT_TRUE(fast.ok);
    EXPECT_GT(fast.span_groups, 0u);
    ASSERT_NE(item.signature, 0u);
    EXPECT_EQ(fast.signature, item.signature);
  }
}

// An active CheckSession is authoritative over every dispatch mode: the
// checker cannot be dodged by the fast span bodies.
TEST(SpanTierComposition, ActiveCheckSessionOverridesAuto) {
  struct ModeGuard {
    eod::xcl::DispatchMode prev = eod::xcl::dispatch_mode();
    ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
  } guard;
  eod::xcl::set_dispatch_mode(eod::xcl::DispatchMode::kAuto);
  eod::xcl::check::CheckSession session;

  auto dwarf = eod::dwarfs::create_dwarf("kmeans");
  dwarf->setup(ProblemSize::kTiny);
  eod::xcl::Device& dev = eod::sim::testbed_device("i7-6700K");
  eod::xcl::Context ctx(dev);
  eod::xcl::Queue q(ctx);
  dwarf->bind(ctx, q);
  const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
  dwarf->run();
  dwarf->finish();
  const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();
  EXPECT_GT(after.groups_checked - before.groups_checked, 0u);
  EXPECT_EQ(after.groups_span - before.groups_span, 0u);
  EXPECT_TRUE(dwarf->validate().ok);
  EXPECT_TRUE(session.report().clean()) << session.report().to_text();
  dwarf->unbind();
}

}  // namespace
