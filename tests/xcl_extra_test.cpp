// Additional xcl runtime coverage: multi-dimensional kernels, local-memory
// slot semantics, queue-depth bookkeeping, the thread pool, and registry
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>

#include "sim/device_spec.hpp"
#include "sim/perf_model.hpp"
#include "sim/testbed.hpp"
#include "xcl/buffer.hpp"
#include "xcl/check/session.hpp"
#include "xcl/executor.hpp"
#include "xcl/kernel.hpp"
#include "xcl/queue.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::xcl {
namespace {

Device& dev() { return sim::testbed_device("i7-6700K"); }

WorkloadProfile p() {
  WorkloadProfile prof;
  prof.flops = 100;
  return prof;
}

TEST(Kernel2D, IdsCoverTheFullGrid) {
  Context ctx(dev());
  Queue q(ctx);
  constexpr std::size_t kW = 48, kH = 24;
  Buffer out = make_buffer<int>(ctx, kW * kH);
  auto view = out.view<int>();
  Kernel k("grid2d", [=](WorkItem& it) {
    const std::size_t x = it.global_id(0);
    const std::size_t y = it.global_id(1);
    view[y * kW + x] = static_cast<int>(
        it.group_id(1) * 1000000 + it.group_id(0) * 10000 +
        it.local_id(1) * 100 + it.local_id(0));
  });
  q.enqueue(k, NDRange(kW, kH, 16, 8), p());
  q.finish();  // kernels defer in an out-of-order queue (EOD_QUEUE=ooo runs)
  for (std::size_t y = 0; y < kH; ++y) {
    for (std::size_t x = 0; x < kW; ++x) {
      const int want = static_cast<int>((y / 8) * 1000000 +
                                        (x / 16) * 10000 + (y % 8) * 100 +
                                        (x % 16));
      EXPECT_EQ(view[y * kW + x], want) << x << "," << y;
    }
  }
}

TEST(Kernel3D, GlobalSizesDecodeCorrectly) {
  Context ctx(dev());
  Queue q(ctx);
  std::atomic<long> sum{0};
  Kernel k("grid3d", [&sum](WorkItem& it) {
    sum += static_cast<long>(it.global_id(0) + 10 * it.global_id(1) +
                             100 * it.global_id(2));
    EXPECT_EQ(it.global_size(0), 8u);
    EXPECT_EQ(it.num_groups(2), 2u);
  });
  q.enqueue(k, NDRange(8, 4, 2, 4, 2, 1), p());
  q.finish();
  // sum over x<8, y<4, z<2 of x + 10y + 100z.
  long want = 0;
  for (int z = 0; z < 2; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 8; ++x) want += x + 10 * y + 100 * z;
    }
  }
  EXPECT_EQ(sum.load(), want);
}

TEST(LocalArena, SlotsAreStableAndSizeChecked) {
  Context ctx(dev());
  Queue q(ctx);
  Kernel k("slots", [](WorkItem& it) {
    auto a = it.local<float>(0, 16);
    auto b = it.local<int>(1, 8);
    a[it.local_id(0)] = 1.0f;
    b[it.local_id(0) % 8] = 2;
    it.barrier();
    // Slot 0 re-acquired with the same size yields the same storage.
    auto a2 = it.local<float>(0, 16);
    EXPECT_EQ(a.data(), a2.data());
  });
  k.uses_barriers();
  q.enqueue(k, NDRange(16, 16), p());
  q.finish();
}

TEST(LocalArena, InconsistentSizeRejected) {
  Context ctx(dev());
  Queue q(ctx);
  Kernel k("bad_slots", [](WorkItem& it) {
    // Different items request different sizes for the same slot.
    (void)it.local<float>(0, 8 + it.local_id(0));
  });
  EXPECT_THROW(
      {
        q.enqueue(k, NDRange(4, 4), p());
        q.finish();
      },
      Error);
}

TEST(LocalArena, SlotIndexBounds) {
  Context ctx(dev());
  Queue q(ctx);
  Kernel k("slot_oob", [](WorkItem& it) {
    (void)it.local<float>(LocalArena::kMaxSlots, 4);
  });
  EXPECT_THROW(
      {
        q.enqueue(k, NDRange(1, 1), p());
        q.finish();
      },
      Error);
}

TEST(QueueDepth, GrowsWithKernelsAndResetsOnSync) {
  Context ctx(sim::testbed_device("R9 290X"));  // depth-sensitive device
  Queue q(ctx);
  q.set_functional(false);
  Kernel k("probe", [](WorkItem&) {});
  // Two consecutive launches: the second must be modeled slower (deeper
  // queue on the amdappsdk-style runtime).
  q.enqueue(k, NDRange(64, 64), p());
  q.enqueue(k, NDRange(64, 64), p());
  const auto& e = q.events();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_GT(e[1].modeled_seconds(), e[0].modeled_seconds());

  // A transfer synchronises: the next launch is back to base overhead.
  Buffer b = make_buffer<float>(ctx, 16);
  std::vector<float> host(16, 0.0f);
  q.enqueue_write<float>(b, host);
  q.enqueue(k, NDRange(64, 64), p());
  EXPECT_DOUBLE_EQ(q.events().back().modeled_seconds(),
                   e[0].modeled_seconds());

  // finish() also resets.
  q.enqueue(k, NDRange(64, 64), p());
  q.finish();
  q.enqueue(k, NDRange(64, 64), p());
  EXPECT_DOUBLE_EQ(q.events().back().modeled_seconds(),
                   e[0].modeled_seconds());
}

TEST(QueueLaunchRecording, OffByDefaultOnWhenRequested) {
  Context ctx(dev());
  Queue q(ctx);
  Kernel k("probe", [](WorkItem&) {});
  q.enqueue(k, NDRange(8, 8), p());
  EXPECT_TRUE(q.launches().empty());
  q.set_record_launches(true);
  q.enqueue(k, NDRange(8, 8), p());
  ASSERT_EQ(q.launches().size(), 1u);
  EXPECT_EQ(q.launches()[0].kernel_name, "probe");
  q.clear_events();
  EXPECT_TRUE(q.launches().empty());
}

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

// --- Span tier (DESIGN.md §9) -------------------------------------------

// One RAII scope per test: span-tier tests must not leak a mode override
// into the rest of the suite.
struct ScopedDispatchMode {
  explicit ScopedDispatchMode(DispatchMode m) { set_dispatch_mode(m); }
  ~ScopedDispatchMode() { set_dispatch_mode(prev); }
  DispatchMode prev = dispatch_mode();
};

TEST(SpanTier, GroupsArriveAsContiguousRuns) {
  Context ctx(dev());
  Queue q(ctx);
  constexpr std::size_t kN = 1000;  // padded: last group is a tail
  Buffer out = make_buffer<int>(ctx, kN);
  auto view = out.view<int>();
  std::atomic<int> calls{0};
  Kernel k("iota", [=](WorkItem& it) {
    if (it.global_id(0) < kN) view[it.global_id(0)] = -1;
  });
  k.span([=, &calls](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin % 64, 0u);
    EXPECT_EQ(end - begin, 64u);
    calls++;
    for (std::size_t i = begin; i < std::min(end, kN); ++i) {
      view[i] = static_cast<int>(i);
    }
  });
  q.enqueue(k, NDRange(1024, 64), p());
  q.finish();
  EXPECT_EQ(calls.load(), 16);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(view[i], static_cast<int>(i));
  }
  const ExecutorStats s = executor_stats();
  EXPECT_GE(s.groups_span, 16u);
}

TEST(SpanTier, ItemOverridePinsTheReferencePath) {
  ScopedDispatchMode mode(DispatchMode::kItem);
  Context ctx(dev());
  Queue q(ctx);
  std::atomic<int> item_calls{0};
  Kernel k("counted", [&](WorkItem&) { item_calls++; });
  k.span([&](std::size_t, std::size_t) { FAIL() << "span under kItem"; });
  const ExecutorStats before = executor_stats();
  q.enqueue(k, NDRange(128, 64), p());
  q.finish();
  EXPECT_EQ(item_calls.load(), 128);
  const ExecutorStats after = executor_stats();
  EXPECT_EQ(after.groups_span - before.groups_span, 0u);
  EXPECT_EQ(after.groups_loop - before.groups_loop, 2u);
}

TEST(SpanTier, MultiDimensionalRangesFallBackToPerItem) {
  Context ctx(dev());
  Queue q(ctx);
  std::atomic<int> item_calls{0};
  Kernel k("grid", [&](WorkItem&) { item_calls++; });
  k.span([&](std::size_t, std::size_t) { FAIL() << "span on a 2-D range"; });
  const ExecutorStats before = executor_stats();
  q.enqueue(k, NDRange(16, 4, 8, 4), p());
  q.finish();
  EXPECT_EQ(item_calls.load(), 64);
  EXPECT_EQ(executor_stats().groups_span - before.groups_span, 0u);
}

TEST(SpanTier, BarrierKernelWithSpanBodySkipsFibers) {
  Context ctx(dev());
  Queue q(ctx);
  std::atomic<int> span_calls{0};
  Kernel k("blocked", [](WorkItem& it) { it.barrier(); });
  k.uses_barriers();
  k.span([&](std::size_t, std::size_t) { span_calls++; });
  const ExecutorStats before = executor_stats();
  q.enqueue(k, NDRange(64, 16), p());
  q.finish();
  EXPECT_EQ(span_calls.load(), 4);
  const ExecutorStats after = executor_stats();
  EXPECT_EQ(after.groups_span - before.groups_span, 4u);
  EXPECT_EQ(after.groups_fiber - before.groups_fiber, 0u);
}

TEST(SpanTier, ParseAndPrintModeNames) {
  EXPECT_EQ(parse_dispatch_mode("auto"), DispatchMode::kAuto);
  EXPECT_EQ(parse_dispatch_mode("item"), DispatchMode::kItem);
  EXPECT_EQ(parse_dispatch_mode("span"), DispatchMode::kSpan);
  EXPECT_EQ(parse_dispatch_mode("simd"), DispatchMode::kSimd);
  EXPECT_EQ(parse_dispatch_mode("checked"), DispatchMode::kChecked);
  EXPECT_FALSE(parse_dispatch_mode("fibers").has_value());
  EXPECT_STREQ(to_string(DispatchMode::kAuto), "auto");
  EXPECT_STREQ(to_string(DispatchMode::kItem), "item");
  EXPECT_STREQ(to_string(DispatchMode::kSpan), "span");
  EXPECT_STREQ(to_string(DispatchMode::kSimd), "simd");
  EXPECT_STREQ(to_string(DispatchMode::kChecked), "checked");
  // The CLI error message and --help text are built from this list; every
  // parseable mode must appear in it.
  EXPECT_STREQ(dispatch_mode_names(), "auto|item|span|simd|checked");
}

// Host allocations back the explicit-vector loads/stores of the simd tier;
// every Buffer must hand out 64-byte-aligned storage (a cache line, and
// enough for any EOD_SIMD_WIDTH up to 16 floats) regardless of size.
TEST(BufferAlignment, HostStorageIsCacheLineAligned) {
  Context ctx(dev());
  for (const std::size_t bytes : {1ul, 4ul, 60ul, 64ul, 100ul, 4096ul,
                                  (1ul << 20) + 4ul}) {
    Buffer b(ctx, bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) %
                  Buffer::kHostAlignment,
              0u)
        << "size " << bytes;
    EXPECT_EQ(b.bytes(), bytes);
  }
}

// The zero fill comes from the allocator.  40 MiB is past glibc's 32 MiB
// ceiling on the dynamic mmap threshold, so it is always served from fresh
// mmapped pages; the smaller sizes can come from the heap, where calloc
// clears reused chunks itself.
TEST(BufferAlignment, StorageIsZeroFilledAndAlignedOnHeapAndMmapPaths) {
  Context ctx(dev());
  for (const std::size_t bytes :
       {1ul, 4097ul, 1ul << 20, std::size_t{40} << 20}) {
    {
      // Dirty then free a same-sized block, so a heap-served buffer lands
      // on reused memory rather than on fresh zero pages.
      Buffer dirty(ctx, bytes);
      const auto v = dirty.view<std::uint8_t>();
      std::fill(v.begin(), v.end(), std::uint8_t{0xA5});
    }
    Buffer b(ctx, bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) %
                  Buffer::kHostAlignment,
              0u)
        << "size " << bytes;
    const auto v = b.view<const std::uint8_t>();
    EXPECT_EQ(static_cast<std::size_t>(std::count(v.begin(), v.end(), 0)),
              bytes)
        << "size " << bytes;
  }
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
}

TEST(BufferMove, MoveConstructAssignAndDestroyReturnTheGaugeToZero) {
  Context ctx(dev());
  {
    Buffer a(ctx, 4097);
    Buffer b(std::move(a));  // move-construct: the block changes owner
    EXPECT_EQ(ctx.allocated_bytes(), 4097u);
    EXPECT_EQ(a.bytes(), 0u);
    Buffer c(ctx, std::size_t{40} << 20);
    b = std::move(c);  // move-assign: the 4097 B block is freed first
    EXPECT_EQ(ctx.allocated_bytes(), std::size_t{40} << 20);
    EXPECT_EQ(b.view<const std::uint8_t>()[(std::size_t{40} << 20) - 1], 0);
  }
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
}

TEST(BufferMove, MoveAssignReleasesOldAllocationFirst) {
  Context ctx(dev());
  Buffer a(ctx, 1024);
  {
    Buffer b(ctx, 4096);
    EXPECT_EQ(ctx.allocated_bytes(), 5120u);
    a = std::move(b);
    // The 1 KiB allocation is gone the moment the assignment completes;
    // the moved-from b owns nothing.
    EXPECT_EQ(ctx.allocated_bytes(), 4096u);
  }
  EXPECT_EQ(ctx.allocated_bytes(), 4096u);
  EXPECT_EQ(a.bytes(), 4096u);

  Buffer& same = a;
  a = std::move(same);  // self-move keeps the allocation intact
  EXPECT_EQ(ctx.allocated_bytes(), 4096u);
  EXPECT_EQ(a.bytes(), 4096u);
}

TEST(BufferMove, MoveAssignAcrossContextsFreesCapacityBoundDevice) {
  // An 8 KiB device: after move-assigning away its only buffer, the freed
  // capacity must be available immediately — the regression this pins is a
  // gauge that still counted the old allocation during adoption.
  DeviceInfo info;
  info.name = "cap-8KiB";
  info.global_mem_bytes = 8192;
  Device small(info, std::make_shared<sim::DevicePerfModel>(
                         sim::spec_by_name("i7-6700K")));
  Context small_ctx(small);
  Context big_ctx(dev());

  Buffer a(small_ctx, 6000);
  Buffer b(big_ctx, 4096);
  a = std::move(b);  // a now holds big_ctx's allocation
  EXPECT_EQ(small_ctx.allocated_bytes(), 0u);
  EXPECT_EQ(big_ctx.allocated_bytes(), 4096u);

  Buffer c(small_ctx, 8000);  // fits only if the 6000 were released
  EXPECT_EQ(small_ctx.allocated_bytes(), 8000u);
}

TEST(BufferMove, ShadowFollowsStorageAcrossMoves) {
  // The checker keys shadow state by the storage address, which moves with
  // the vector: a moved buffer keeps its init state and stays clean.
  check::CheckSession session;
  Context ctx(dev());
  Queue q(ctx);
  Buffer a(ctx, 16 * sizeof(float));
  q.enqueue_fill(a, 1.0f);

  Buffer b = std::move(a);
  auto v = b.access<float>("moved");
  Kernel k("after_move", [=](WorkItem& it) { v[it.global_id(0)] += 1.0f; });
  q.enqueue(k, NDRange(16, 16), p());

  EXPECT_TRUE(session.report().clean()) << session.report().to_text();
  EXPECT_FLOAT_EQ(b.view<const float>()[5], 2.0f);
}

TEST(Registry, TestbedIsIdempotent) {
  xcl::Platform& a = sim::testbed_platform();
  xcl::Platform& b = sim::testbed_platform();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&sim::testbed_device("K40m"), &sim::testbed_device("K40m"));
  EXPECT_THROW((void)sim::testbed_device("GTX 4090"), Error);
}

TEST(DeviceClass, MatchesTable1Colouring) {
  EXPECT_EQ(sim::device_class(sim::testbed_device("i5-3550")),
            sim::AcceleratorClass::kCpu);
  EXPECT_EQ(sim::device_class(sim::testbed_device("Titan X")),
            sim::AcceleratorClass::kConsumerGpu);
  EXPECT_EQ(sim::device_class(sim::testbed_device("K20m")),
            sim::AcceleratorClass::kHpcGpu);
  EXPECT_EQ(sim::device_class(sim::testbed_device("Xeon Phi 7210")),
            sim::AcceleratorClass::kMic);
}

}  // namespace
}  // namespace eod::xcl
