// Explicit-SIMD tier equivalence suite (DESIGN.md §13): every dwarf that
// registers a simd kernel must reproduce the per-item reference path
// bit-identically.  Same contract span_tier_test pins for the span tier,
// applied to the hand-vectorized bodies -- which is a stronger claim: the
// simd bodies reorder work across vector lanes, use masked selects for the
// running-min/clamp idioms and slice crc eight bytes at a time, yet every
// float and every integer they produce must match the scalar loop bit for
// bit (signed zeros, NaN payloads and all).  For each (dwarf, size) cell:
//   * result_signature() equality between --dispatch=item and =simd;
//   * validation against the serial reference in both modes;
//   * that the simd run actually took the simd tier (groups_simd delta);
//   * the memory-trace content key and replayed warm cache counters,
//     which must not depend on the dispatch tier at all;
// plus queue/tier composition: bit-equivalence holds on an out-of-order
// queue, an active CheckSession overrides kSimd, kernels without a simd
// body degrade to span, and kAuto never picks the simd tier on its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/registry.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/check/session.hpp"
#include "xcl/context.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace {

using eod::dwarfs::ProblemSize;

// Replays are memoized process-wide by trace content + geometry (see
// span_tier_test) -- the counter comparison is a trace-bit-identity proof.
constexpr std::size_t kMaxReplayAccesses = 20'000'000;

struct RunOutcome {
  bool ok = false;                 ///< validate() against serial reference
  std::uint64_t signature = 0;     ///< result_signature() byte hash
  std::uint64_t simd_groups = 0;   ///< groups_simd delta during run()
  std::uint64_t span_groups = 0;   ///< groups_span delta during run()
  std::uint64_t other_groups = 0;  ///< loop+fiber delta during run()
  std::optional<eod::sim::TraceKey> trace;
  std::optional<eod::sim::HierarchyCounters> warm;
};

RunOutcome run_once(const char* name, ProblemSize size,
                    eod::xcl::DispatchMode mode,
                    std::optional<eod::xcl::QueueMode> queue_mode =
                        std::nullopt) {
  struct ModeGuard {
    eod::xcl::DispatchMode prev = eod::xcl::dispatch_mode();
    ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
  } guard;
  eod::xcl::set_dispatch_mode(mode);

  auto dwarf = eod::dwarfs::create_dwarf(name);
  dwarf->setup(size);

  eod::xcl::Device& dev = eod::sim::testbed_device("i7-6700K");
  eod::xcl::Context ctx(dev);
  eod::xcl::Queue q(ctx, queue_mode);
  dwarf->bind(ctx, q);

  // Bracket run() AND finish(): an out-of-order queue defers kernel
  // execution to the sync point inside finish().
  const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
  dwarf->run();
  dwarf->finish();
  const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();

  RunOutcome out;
  out.ok = dwarf->validate().ok;
  out.signature = dwarf->result_signature();
  out.simd_groups = after.groups_simd - before.groups_simd;
  out.span_groups = after.groups_span - before.groups_span;
  out.other_groups = (after.groups_loop - before.groups_loop) +
                     (after.groups_fiber - before.groups_fiber);

  const std::size_t hint = dwarf->trace_size_hint();
  if (hint > 0 && hint <= kMaxReplayAccesses) {
    auto gen = [&dwarf](eod::sim::TraceWriter& w) { dwarf->stream_trace(w); };
    out.trace = eod::sim::hash_trace(gen);
    out.warm = eod::sim::memoized_replay(gen,
                                         eod::sim::spec_by_name("i7-6700K"),
                                         std::string(name) + "/simd-eq")
                   .warm;
  }
  dwarf->unbind();
  return out;
}

struct SimdCase {
  const char* name;
  std::vector<ProblemSize> sizes;
};

// Print a case by its dwarf name: gtest's default byte dump would put the
// name pointer and vector storage -- addresses that change with every
// build and process under ASLR -- into the listed test names.
void PrintTo(const SimdCase& c, std::ostream* os) {
  *os << '"' << c.name << '"';
}

// gem is O(vertices x atoms); its medium functional pass runs for minutes,
// so -- like span_tier_test -- its cells stop at small.  Every size still
// exercises the vector main loop AND the scalar tail (none of the tested
// extents are lane-multiples across the board).
const SimdCase kCases[] = {
    {"kmeans",
     {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium}},
    {"csr", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium}},
    {"crc", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium}},
    {"srad", {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium}},
    {"gem", {ProblemSize::kTiny, ProblemSize::kSmall}},
};

class SimdTier : public ::testing::TestWithParam<SimdCase> {};

TEST_P(SimdTier, SimdMatchesItemReferenceBitExactly) {
  const SimdCase& c = GetParam();
  for (const ProblemSize size : c.sizes) {
    SCOPED_TRACE(std::string(c.name) + "/" + eod::dwarfs::to_string(size));
    const RunOutcome item =
        run_once(c.name, size, eod::xcl::DispatchMode::kItem);
    const RunOutcome simd =
        run_once(c.name, size, eod::xcl::DispatchMode::kSimd);

    // Both tiers pass serial-reference validation...
    EXPECT_TRUE(item.ok);
    EXPECT_TRUE(simd.ok);
    // ...and the tiers really differed: item pinned the reference path,
    // simd dispatched every group of the converted kernels as one call.
    EXPECT_EQ(item.simd_groups, 0u);
    EXPECT_GT(simd.simd_groups, 0u);

    // Byte-exact output equivalence, not tolerance-based validation.
    ASSERT_NE(item.signature, 0u);
    EXPECT_EQ(simd.signature, item.signature);

    // The memory trace (and therefore every replayed cache counter) is a
    // function of the benchmark's data, not of the dispatch tier.
    ASSERT_EQ(item.trace.has_value(), simd.trace.has_value());
    if (item.trace.has_value()) {
      EXPECT_EQ(item.trace->content_hash, simd.trace->content_hash);
      EXPECT_EQ(item.trace->accesses, simd.trace->accesses);
      EXPECT_EQ(*item.warm, *simd.warm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VectorizedDwarfs, SimdTier,
                         ::testing::ValuesIn(kCases),
                         [](const auto& ti) {
                           return std::string(ti.param.name);
                         });

// Bit-equivalence must survive queue-mode composition: the out-of-order
// queue defers and reorders kernel execution behind the event DAG, and the
// simd bodies must still land the exact reference bytes.
TEST(SimdTierComposition, BitExactOnOutOfOrderQueue) {
  for (const char* name : {"kmeans", "srad", "crc"}) {
    SCOPED_TRACE(name);
    const RunOutcome item =
        run_once(name, ProblemSize::kSmall, eod::xcl::DispatchMode::kItem,
                 eod::xcl::QueueMode::kOutOfOrder);
    const RunOutcome simd =
        run_once(name, ProblemSize::kSmall, eod::xcl::DispatchMode::kSimd,
                 eod::xcl::QueueMode::kOutOfOrder);
    EXPECT_TRUE(item.ok);
    EXPECT_TRUE(simd.ok);
    EXPECT_GT(simd.simd_groups, 0u);
    ASSERT_NE(item.signature, 0u);
    EXPECT_EQ(simd.signature, item.signature);
  }
}

// An active CheckSession is authoritative over every dispatch mode, kSimd
// included: the checker cannot be dodged by pinning a faster tier.
TEST(SimdTierComposition, ActiveCheckSessionOverridesSimd) {
  struct ModeGuard {
    eod::xcl::DispatchMode prev = eod::xcl::dispatch_mode();
    ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
  } guard;
  eod::xcl::set_dispatch_mode(eod::xcl::DispatchMode::kSimd);
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
  EXPECT_EQ(after.groups_simd - before.groups_simd, 0u);
  EXPECT_TRUE(dwarf->validate().ok);
  EXPECT_TRUE(session.report().clean()) << session.report().to_text();
  dwarf->unbind();
}

// Dwarfs without a simd body degrade gracefully under --dispatch=simd:
// dwt carries a span body, so the span tier runs; nothing hits the loop
// floor, and nothing pretends to be vectorized.
TEST(SimdTierComposition, KernelWithoutSimdBodyFallsBackToSpan) {
  const RunOutcome out =
      run_once("dwt", ProblemSize::kTiny, eod::xcl::DispatchMode::kSimd);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.simd_groups, 0u);
  EXPECT_GT(out.span_groups, 0u);
}

// kAuto keeps selecting the span tier: the explicit-vector bodies are
// opt-in via --dispatch=simd / EOD_DISPATCH=simd, never a silent default.
TEST(SimdTierComposition, AutoNeverSelectsSimd) {
  const RunOutcome out =
      run_once("kmeans", ProblemSize::kTiny, eod::xcl::DispatchMode::kAuto);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.simd_groups, 0u);
  EXPECT_GT(out.span_groups, 0u);
}

}  // namespace
