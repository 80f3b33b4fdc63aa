// Span-tier equivalence suite (DESIGN.md §9): every dwarf that registers a
// span kernel must reproduce the per-item reference path bit-identically.
// For each (dwarf, size) cell the benchmark runs twice from an identical
// deterministic setup -- once with --dispatch=item (the per-item loop/fiber
// reference) and once with --dispatch=span -- and the test pins:
//   * result_signature(): an order-sensitive byte hash of the output
//     vectors, so "equal" means every float/int is bit-identical;
//   * validation against the serial reference in both modes;
//   * that the span run actually took the span tier (groups_span delta);
//   * the memory-trace content key and the replayed warm cache counters,
//     which must not depend on the dispatch tier at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/registry.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/context.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace {

using eod::dwarfs::ProblemSize;

// Replays are memoized process-wide by trace content + geometry, so the
// span-mode replay of an identical trace is a memo hit -- the counter
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

RunOutcome run_once(const char* name, ProblemSize size,
                    eod::xcl::DispatchMode mode) {
  struct ModeGuard {
    eod::xcl::DispatchMode prev = eod::xcl::dispatch_mode();
    ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
  } guard;
  eod::xcl::set_dispatch_mode(mode);

  auto dwarf = eod::dwarfs::create_dwarf(name);
  dwarf->setup(size);

  eod::xcl::Device& dev = eod::sim::testbed_device("i7-6700K");
  eod::xcl::Context ctx(dev);
  eod::xcl::Queue q(ctx);
  dwarf->bind(ctx, q);

  // The delta brackets run() AND finish(): an out-of-order queue
  // (EOD_QUEUE=ooo) defers kernel execution to the sync point inside
  // finish(), so snapshotting after run() alone would miss every group.
  const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
  dwarf->run();
  dwarf->finish();
  const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();

  RunOutcome out;
  out.ok = dwarf->validate().ok;
  out.signature = dwarf->result_signature();
  out.span_groups = after.groups_span - before.groups_span;
  out.other_groups = (after.groups_loop - before.groups_loop) +
                     (after.groups_fiber - before.groups_fiber);

  const std::size_t hint = dwarf->trace_size_hint();
  if (hint > 0 && hint <= kMaxReplayAccesses) {
    auto gen = [&dwarf](eod::sim::TraceWriter& w) { dwarf->stream_trace(w); };
    out.trace = eod::sim::hash_trace(gen);
    out.warm = eod::sim::memoized_replay(gen,
                                         eod::sim::spec_by_name("i7-6700K"),
                                         std::string(name) + "/span-eq")
                   .warm;
  }
  dwarf->unbind();
  return out;
}

struct SpanCase {
  const char* name;
  std::vector<ProblemSize> sizes;
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
// Every size still takes the same span code path (tail clamping included:
// the tested cells already exercise padded final groups).
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
    {"gem", {ProblemSize::kTiny, ProblemSize::kSmall}},
    {"cwt", {ProblemSize::kTiny, ProblemSize::kSmall}},
};

class SpanTier : public ::testing::TestWithParam<SpanCase> {};

TEST_P(SpanTier, SpanMatchesItemReferenceBitExactly) {
  const SpanCase& c = GetParam();
  for (const ProblemSize size : c.sizes) {
    SCOPED_TRACE(std::string(c.name) + "/" + eod::dwarfs::to_string(size));
    const RunOutcome item =
        run_once(c.name, size, eod::xcl::DispatchMode::kItem);
    const RunOutcome span =
        run_once(c.name, size, eod::xcl::DispatchMode::kSpan);

    // Both tiers pass serial-reference validation...
    EXPECT_TRUE(item.ok);
    EXPECT_TRUE(span.ok);
    // ...and the tiers really differed: item pinned the reference path,
    // span dispatched every group of the converted kernels as one call.
    EXPECT_EQ(item.span_groups, 0u);
    EXPECT_GT(span.span_groups, 0u);

    // Byte-exact output equivalence, not tolerance-based validation.
    ASSERT_NE(item.signature, 0u);
    EXPECT_EQ(span.signature, item.signature);

    // The memory trace (and therefore every replayed cache counter) is a
    // function of the benchmark's data, not of the dispatch tier.
    ASSERT_EQ(item.trace.has_value(), span.trace.has_value());
    if (item.trace.has_value()) {
      EXPECT_EQ(item.trace->content_hash, span.trace->content_hash);
      EXPECT_EQ(item.trace->accesses, span.trace->accesses);
      EXPECT_EQ(*item.warm, *span.warm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ConvertedDwarfs, SpanTier,
                         ::testing::ValuesIn(kCases),
                         [](const auto& ti) {
                           return std::string(ti.param.name);
                         });

// kAuto behaves exactly like kSpan for legal launches: same outputs, same
// span-group accounting.
TEST(SpanTierAuto, AutoSelectsSpanWhereLegal) {
  const RunOutcome a =
      run_once("kmeans", ProblemSize::kTiny, eod::xcl::DispatchMode::kAuto);
  const RunOutcome s =
      run_once("kmeans", ProblemSize::kTiny, eod::xcl::DispatchMode::kSpan);
  EXPECT_EQ(a.signature, s.signature);
  EXPECT_EQ(a.span_groups, s.span_groups);
  EXPECT_GT(a.span_groups, 0u);
}

// Dwarfs without a span body are untouched by the override: hmm's
// barrier kernels must run on the fiber path in every mode.  (lud used to
// be this case until its kernels grew span bodies for the partitioned
// multi-device path, DESIGN.md §14.)
TEST(SpanTierAuto, NonConvertedDwarfKeepsReferencePath) {
  const RunOutcome a =
      run_once("hmm", ProblemSize::kTiny, eod::xcl::DispatchMode::kSpan);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.span_groups, 0u);
  EXPECT_GT(a.other_groups, 0u);
}

}  // namespace
