// Event-dependency DAG suite (DESIGN.md §12): wait-list validation, diamond
// dependencies, cross-queue waits, in-order/out-of-order result equivalence
// for the dependency-converted dwarfs, completion-order event reporting, and
// a race-sensitive stress of N independent commands, and multi-MiB
// transfers, which copy on the pool (run under tsan and asan via the
// `sanitize` ctest label).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/registry.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/buffer.hpp"
#include "xcl/check/session.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace eod::xcl {
namespace {

Device& gpu() { return sim::testbed_device("GTX 1080"); }
Device& cpu() { return sim::testbed_device("i7-6700K"); }

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.flops = 1000;
  p.bytes_read = 4096;
  p.bytes_written = 4096;
  p.working_set_bytes = 8192;
  return p;
}

TEST(QueueDag, ForgedForwardEventIsRejected) {
  // Real ids are allocated in enqueue order process-wide, so a wait list can
  // only point backwards; an id from the future can only be forged, and the
  // graph stays acyclic by rejecting it (kInvalidEventWaitList, the
  // CL_INVALID_EVENT_WAIT_LIST analogue).
  Context ctx(gpu());
  Queue q(ctx, QueueMode::kOutOfOrder);
  Kernel k("noop", [](WorkItem&) {});

  Event forged;
  forged.id = ~std::uint64_t{0} >> 1;  // far beyond any allocated id
  forged.queue = &q;
  const Event wait[] = {forged};
  try {
    q.enqueue(k, NDRange(64, 64), small_profile(), wait);
    FAIL() << "forward-pointing wait list accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInvalidEventWaitList);
  }

  Event null_event;  // id 0: a default-constructed (never enqueued) event
  const Event null_wait[] = {null_event};
  try {
    q.enqueue(k, NDRange(64, 64), small_profile(), null_wait);
    FAIL() << "null event in wait list accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInvalidEventWaitList);
  }
}

TEST(QueueDag, DiamondDependenciesExecuteInTopologicalOrder) {
  // A -> {B, C} -> D.  The scheduler must run A before either middle
  // command and D last, and the modeled placement must show the same
  // partial order.
  Context ctx(gpu());
  Queue q(ctx, QueueMode::kOutOfOrder);

  std::atomic<int> seq{0};
  std::atomic<int> stamp_a{-1}, stamp_b{-1}, stamp_c{-1}, stamp_d{-1};
  auto stamping = [&seq](std::atomic<int>& stamp) {
    return [&seq, &stamp](WorkItem&) {
      // lint: relaxed-ok(stamps are read only after the blocking drain)
      stamp.store(seq.fetch_add(1), std::memory_order_relaxed);
    };
  };
  Kernel ka("a", stamping(stamp_a));
  Kernel kb("b", stamping(stamp_b));
  Kernel kc("c", stamping(stamp_c));
  Kernel kd("d", stamping(stamp_d));

  const NDRange r(1, 1);
  const Event a = q.enqueue(ka, r, small_profile(), kNoWait);
  const Event adep[] = {a};
  const Event b = q.enqueue(kb, r, small_profile(), adep);
  const Event c = q.enqueue(kc, r, small_profile(), adep);
  const Event bc[] = {b, c};
  const Event d = q.enqueue(kd, r, small_profile(), bc);
  q.finish();

  EXPECT_LT(stamp_a.load(), stamp_b.load());
  EXPECT_LT(stamp_a.load(), stamp_c.load());
  EXPECT_LT(stamp_b.load(), stamp_d.load());
  EXPECT_LT(stamp_c.load(), stamp_d.load());

  // Modeled timeline respects the same edges.
  EXPECT_GE(b.modeled_start_s, a.modeled_end_s);
  EXPECT_GE(c.modeled_start_s, a.modeled_end_s);
  EXPECT_GE(d.modeled_start_s, std::max(b.modeled_end_s, c.modeled_end_s));
}

TEST(QueueDag, CrossQueueWaitSynchronisesOnTheHost) {
  // A wait on another queue's event is satisfied on the host: the foreign
  // command's closure is drained before this command records, so its
  // functional effects are visible to the dependent kernel.
  Context ctx(gpu());
  Queue qa(ctx, QueueMode::kOutOfOrder);
  Queue qb(ctx, QueueMode::kOutOfOrder);
  Buffer buf = make_buffer<int>(ctx, 64);
  auto view = buf.view<int>();

  Kernel writer("writer", [view](WorkItem& it) {
    view[it.global_id(0)] = 7;
  });
  const Event w = qa.enqueue(writer, NDRange(64, 64), small_profile(),
                             kNoWait);

  std::vector<int> seen(64, 0);
  int* seen_p = seen.data();
  Kernel reader("reader", [view, seen_p](WorkItem& it) {
    seen_p[it.global_id(0)] = view[it.global_id(0)];
  });
  const Event wdep[] = {w};
  qb.enqueue(reader, NDRange(64, 64), small_profile(), wdep);
  // Enqueuing on qb already host-drained qa's pending closure.
  EXPECT_EQ(view[0], 7);
  qb.finish();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(seen[i], 7);
}

TEST(QueueDag, EventsReportCompletionOrderKeyedByEnqueueIndex) {
  // An independent short transfer enqueued *after* a long kernel completes
  // first on the modeled timeline; events() reports that completion order
  // while enqueue_index preserves program order.
  Context ctx(gpu());
  Queue q(ctx, QueueMode::kOutOfOrder);
  Buffer buf = make_buffer<float>(ctx, 128);
  std::vector<float> host(128, 1.0f);

  WorkloadProfile heavy = small_profile();
  heavy.flops = 1e9;  // ~0.1 ms on the modeled GTX 1080
  Kernel k("long_kernel", [](WorkItem&) {});
  q.enqueue(k, NDRange(256, 64), heavy, kNoWait);
  q.enqueue_write<float>(buf, std::span<const float>(host), kNoWait);
  q.finish();

  ASSERT_EQ(q.events().size(), 2u);
  EXPECT_EQ(q.events()[0].kind, CommandKind::kWrite);
  EXPECT_EQ(q.events()[0].enqueue_index, 1u);
  EXPECT_EQ(q.events()[1].kind, CommandKind::kKernel);
  EXPECT_EQ(q.events()[1].enqueue_index, 0u);
  EXPECT_LT(q.events()[0].modeled_end_s, q.events()[1].modeled_end_s);
}

// Race-sensitive: N fully independent commands all become ready in the same
// scheduler wave and fan out over the ThreadPool together.  Run under
// -DEOD_SANITIZE=thread via the `sanitize` label; functionally it pins that
// every command executed exactly once on disjoint data.
TEST(QueueDag, IndependentCommandStressExecutesEveryCommandOnce) {
  constexpr std::size_t kCommands = 64;
  constexpr std::size_t kItems = 64;
  Context ctx(cpu());
  Queue q(ctx, QueueMode::kOutOfOrder);
  std::vector<int> out(kCommands * kItems, 0);
  int* out_p = out.data();

  for (std::size_t c = 0; c < kCommands; ++c) {
    Kernel k("slot_" + std::to_string(c), [out_p, c](WorkItem& it) {
      out_p[c * kItems + it.global_id(0)] += 1;
    });
    q.enqueue(k, NDRange(kItems, kItems), small_profile(), kNoWait);
  }
  q.finish();
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 1) << "slot " << i;
  }
}

// ---- pooled transfers ------------------------------------------------------

// Transfers of more than a MiB copy a MiB per pool task.  This one spans
// two chunks plus an odd tail and starts at an odd offset.
constexpr std::size_t kTransferOffset = 5;
constexpr std::size_t kTransferBytes = (std::size_t{2} << 20) + 3;

std::vector<std::uint8_t> transfer_pattern() {
  std::vector<std::uint8_t> host(kTransferBytes);
  for (std::size_t i = 0; i < host.size(); ++i) {
    host[i] = static_cast<std::uint8_t>(i * 131 + (i >> 20));
  }
  return host;
}

TEST(QueueTransfers, PooledCopiesRoundTripByteExactly) {
  const std::vector<std::uint8_t> host = transfer_pattern();
  for (const QueueMode mode : {QueueMode::kInOrder, QueueMode::kOutOfOrder}) {
    SCOPED_TRACE(to_string(mode));
    Context ctx(cpu());
    Queue q(ctx, mode);
    Buffer a(ctx, kTransferOffset + kTransferBytes);
    Buffer b(ctx, kTransferOffset + kTransferBytes);
    Buffer c(ctx, 2 * kTransferOffset + kTransferBytes);
    // write -> copy (whole buffer) -> peer copy -> read, chained by events
    // so the out-of-order queue defers each behind its producer.
    const Event w = q.enqueue_write<std::uint8_t>(a, host, kTransferOffset,
                                                  kNoWait);
    const Event cp = q.enqueue_copy(a, b, std::span(&w, 1));
    const Event pc =
        q.enqueue_peer_copy(b, kTransferOffset, c, 2 * kTransferOffset,
                            kTransferBytes, std::span(&cp, 1));
    std::vector<std::uint8_t> back(kTransferBytes);
    q.enqueue_read<std::uint8_t>(c, back, 2 * kTransferOffset,
                                 std::span(&pc, 1));
    q.finish();
    EXPECT_TRUE(back == host);
  }
}

TEST(QueueTransfers, PooledWriteMarksItsRangeInitialized) {
  const std::vector<std::uint8_t> host = transfer_pattern();
  check::CheckSession session;
  Context ctx(cpu());
  Queue q(ctx);
  Buffer buf(ctx, kTransferOffset + kTransferBytes + 1);
  Buffer out(ctx, 4);
  q.enqueue_write<std::uint8_t>(buf, host, kTransferOffset, kNoWait);

  // Ends of the written range and both sides of its first chunk boundary
  // read clean; the unwritten bytes just outside it do not.
  const std::size_t last = kTransferOffset + kTransferBytes - 1;
  const std::size_t inside[] = {kTransferOffset,
                                kTransferOffset + (std::size_t{1} << 20) - 1,
                                kTransferOffset + (std::size_t{1} << 20),
                                last};
  const std::size_t outside[] = {kTransferOffset - 1, last + 1};
  auto in = buf.access<const std::uint8_t>("written");
  auto o = out.access<std::uint8_t>("out");
  Kernel probe_inside("probe_inside", [=](WorkItem& it) {
    const std::size_t i = it.global_id(0);
    o[i] = in[inside[i]];
  });
  q.enqueue(probe_inside, NDRange(4, 4), small_profile());
  EXPECT_TRUE(session.report().clean()) << session.report().to_text();

  Kernel probe_outside("probe_outside", [=](WorkItem& it) {
    const std::size_t i = it.global_id(0);
    o[i] = in[outside[i]];
  });
  q.enqueue(probe_outside, NDRange(2, 2), small_profile());
  const check::CheckReport report = session.take_report();
  ASSERT_EQ(report.findings().size(), 1u) << report.to_text();
  EXPECT_EQ(report.findings()[0].kind, check::FindingKind::kUninitRead);
  EXPECT_EQ(report.findings()[0].occurrences, 2u);
}

// ---- converted dwarfs: out-of-order == in-order, bit for bit -------------

struct ModeOutcome {
  bool ok = false;
  double error = 0.0;
  std::uint64_t signature = 0;
  std::optional<sim::TraceKey> trace;
  std::optional<sim::HierarchyCounters> warm;
};

constexpr std::size_t kMaxReplayAccesses = 20'000'000;

ModeOutcome run_dwarf(const char* name, dwarfs::ProblemSize size,
                      QueueMode mode) {
  auto dwarf = dwarfs::create_dwarf(name);
  dwarf->setup(size);
  Context ctx(cpu());
  Queue q(ctx, mode);
  dwarf->bind(ctx, q);
  dwarf->run();
  dwarf->finish();

  ModeOutcome out;
  const dwarfs::Validation v = dwarf->validate();
  out.ok = v.ok;
  out.error = v.error;
  out.signature = dwarf->result_signature();
  const std::size_t hint = dwarf->trace_size_hint();
  if (hint > 0 && hint <= kMaxReplayAccesses) {
    auto gen = [&dwarf](sim::TraceWriter& w) { dwarf->stream_trace(w); };
    out.trace = sim::hash_trace(gen);
    out.warm = sim::memoized_replay(gen, sim::spec_by_name("i7-6700K"),
                                    std::string(name) + "/dag-eq")
                   .warm;
  }
  dwarf->unbind();
  return out;
}

struct DagCase {
  const char* name;
  dwarfs::ProblemSize size;
  bool hashed = true;  ///< false: result_signature() is 0 by design
};
// The gtest names print the case as a 16-byte object; keep that size.
static_assert(sizeof(DagCase) == 16);

// Every registered dwarf.  kmeans (double-buffered halves), srad
// (halo-exchanged bands) and gem (tiled write-back) express dependencies
// between their enqueues; the rest must come out the same on an
// out-of-order queue by waiting where they should.  gem is O(vertices x
// atoms) and hmm, nqueens run only at tiny, so those cells stay tiny.
const DagCase kDagCases[] = {
    {"kmeans", dwarfs::ProblemSize::kSmall},
    {"lud", dwarfs::ProblemSize::kSmall},
    {"csr", dwarfs::ProblemSize::kSmall},
    {"fft", dwarfs::ProblemSize::kSmall, false},
    {"dwt", dwarfs::ProblemSize::kSmall},
    {"srad", dwarfs::ProblemSize::kSmall},
    {"crc", dwarfs::ProblemSize::kSmall},
    {"nw", dwarfs::ProblemSize::kSmall},
    {"gem", dwarfs::ProblemSize::kTiny},
    {"nqueens", dwarfs::ProblemSize::kTiny, false},
    {"hmm", dwarfs::ProblemSize::kTiny, false},
    {"cwt", dwarfs::ProblemSize::kSmall},
    {"beff", dwarfs::ProblemSize::kSmall},
};

class QueueDagDwarfs : public ::testing::TestWithParam<DagCase> {};

TEST_P(QueueDagDwarfs, OutOfOrderMatchesInOrderBitExactly) {
  const DagCase& c = GetParam();
  const ModeOutcome in = run_dwarf(c.name, c.size, QueueMode::kInOrder);
  const ModeOutcome ooo = run_dwarf(c.name, c.size, QueueMode::kOutOfOrder);

  EXPECT_TRUE(in.ok);
  EXPECT_TRUE(ooo.ok);
  if (c.hashed) {
    ASSERT_NE(in.signature, 0u);
  }
  EXPECT_EQ(ooo.signature, in.signature);
  // For the dwarfs that hash to 0, the exact validation error stands in.
  EXPECT_EQ(ooo.error, in.error);

  // The memory trace — and so every replayed cache counter — is a function
  // of the benchmark's data, not of the queue's execution order.
  ASSERT_EQ(in.trace.has_value(), ooo.trace.has_value());
  if (in.trace.has_value()) {
    EXPECT_EQ(in.trace->content_hash, ooo.trace->content_hash);
    EXPECT_EQ(in.trace->accesses, ooo.trace->accesses);
    EXPECT_EQ(*in.warm, *ooo.warm);
  }
}

INSTANTIATE_TEST_SUITE_P(ConvertedDwarfs, QueueDagDwarfs,
                         ::testing::ValuesIn(kDagCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace eod::xcl
