// Unit tests for the xcl runtime: platforms, contexts, buffers, NDRange,
// queue events and the execution engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/testbed.hpp"
#include "xcl/buffer.hpp"
#include "xcl/kernel.hpp"
#include "xcl/ndrange.hpp"
#include "xcl/queue.hpp"

namespace eod::xcl {
namespace {

Device& cpu_device() { return sim::testbed_device("i7-6700K"); }
Device& gpu_device() { return sim::testbed_device("GTX 1080"); }

WorkloadProfile trivial_profile() {
  WorkloadProfile p;
  p.flops = 1000;
  p.bytes_read = 4000;
  p.bytes_written = 4000;
  p.working_set_bytes = 8000;
  return p;
}

TEST(Platform, TestbedHasFifteenDevices) {
  EXPECT_EQ(sim::testbed_platform().device_count(), 15u);
}

TEST(Platform, SelectByTypeMatchesPaperNotation) {
  Platform& p = sim::testbed_platform();
  // -d 0 -t 0: first CPU (Table 1 order: Xeon E5-2697 v2).
  EXPECT_EQ(p.select(0, DeviceType::kCpu).name(), "Xeon E5-2697 v2");
  // -d 1 -t 0: the Skylake.
  EXPECT_EQ(p.select(1, DeviceType::kCpu).name(), "i7-6700K");
  // -d 1 -t 1: GTX 1080 (second GPU in table order).
  EXPECT_EQ(p.select(1, DeviceType::kGpu).name(), "GTX 1080");
  // -t 2: the KNL.
  EXPECT_EQ(p.select(0, DeviceType::kAccelerator).name(), "Xeon Phi 7210");
  EXPECT_THROW((void)p.select(99, DeviceType::kCpu), Error);
}

TEST(Context, TracksAllocationsLikeThePaperFootprintCheck) {
  Context ctx(cpu_device());
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
  {
    Buffer a(ctx, 1024);
    Buffer b(ctx, 2048);
    EXPECT_EQ(ctx.allocated_bytes(), 3072u);
    EXPECT_EQ(ctx.peak_allocated_bytes(), 3072u);
  }
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
  EXPECT_EQ(ctx.peak_allocated_bytes(), 3072u);
}

TEST(Context, RejectsOverAllocation) {
  Context ctx(cpu_device());
  const std::size_t cap = cpu_device().info().global_mem_bytes;
  EXPECT_THROW(Buffer(ctx, cap + 1), Error);
  EXPECT_EQ(ctx.allocated_bytes(), 0u);  // failed alloc must roll back
}

TEST(Buffer, TypedViewsAndMove) {
  Context ctx(cpu_device());
  Buffer b = make_buffer<float>(ctx, 16);
  EXPECT_EQ(b.bytes(), 64u);
  auto view = b.view<float>();
  std::iota(view.begin(), view.end(), 0.0f);
  Buffer moved = std::move(b);
  EXPECT_EQ(moved.view<const float>()[15], 15.0f);
  EXPECT_EQ(ctx.allocated_bytes(), 64u);
}

TEST(Buffer, RejectsMisalignedView) {
  Context ctx(cpu_device());
  Buffer b(ctx, 10);  // not a multiple of sizeof(float)
  EXPECT_THROW((void)b.view<float>(), Error);
  EXPECT_THROW(Buffer(ctx, 0), Error);
}

TEST(NDRange, ResolvesLocalSize) {
  NDRange r(1000);
  r.resolve_local(256);
  EXPECT_EQ(r.global(0) % r.local(0), 0u);
  EXPECT_LE(r.group_items(), 256u);
  NDRange bad(100, 64);  // 100 % 64 != 0
  EXPECT_THROW(bad.resolve_local(256), Error);
}

TEST(NDRange, ThreeDimensionalGroups) {
  NDRange r(64, 32, 4, 8, 8, 2);
  EXPECT_EQ(r.num_groups(), 8u * 4u * 2u);
  EXPECT_EQ(r.group_items(), 128u);
  EXPECT_EQ(r.global_items(), 8192u);
}

TEST(Queue, KernelExecutesAllWorkItems) {
  Context ctx(cpu_device());
  Queue q(ctx);
  Buffer out = make_buffer<int>(ctx, 1024);
  auto view = out.view<int>();
  Kernel k("ids", [=](WorkItem& it) {
    view[it.global_id(0)] = static_cast<int>(it.global_id(0)) * 2;
  });
  q.enqueue(k, NDRange(1024, 64), trivial_profile());
  q.finish();  // kernels defer in an out-of-order queue (EOD_QUEUE=ooo runs)
  for (int i = 0; i < 1024; ++i) EXPECT_EQ(view[i], 2 * i);
}

TEST(Queue, EventsCarryModeledTimeline) {
  Context ctx(gpu_device());
  Queue q(ctx);
  Buffer b = make_buffer<float>(ctx, 1024);
  std::vector<float> host(1024, 1.0f);
  q.enqueue_write<float>(b, host);
  Kernel k("noop", [](WorkItem&) {});
  q.enqueue(k, NDRange(256, 64), trivial_profile());
  std::vector<float> back(1024);
  q.enqueue_read<float>(b, std::span(back));

  ASSERT_EQ(q.events().size(), 3u);
  EXPECT_EQ(q.events()[0].kind, CommandKind::kWrite);
  EXPECT_EQ(q.events()[1].kind, CommandKind::kKernel);
  EXPECT_EQ(q.events()[2].kind, CommandKind::kRead);
  // In-order queue: the virtual timeline is contiguous and increasing.
  EXPECT_DOUBLE_EQ(q.events()[1].modeled_start_s,
                   q.events()[0].modeled_end_s);
  EXPECT_GT(q.events()[1].modeled_seconds(), 0.0);
  EXPECT_GT(q.modeled_kernel_seconds(), 0.0);
  EXPECT_GT(q.modeled_transfer_seconds(), 0.0);
  EXPECT_GT(q.modeled_kernel_energy_j(), 0.0);
  EXPECT_DOUBLE_EQ(q.finish(), q.events()[2].modeled_end_s);
  EXPECT_EQ(back[0], 1.0f);
}

TEST(Queue, NonFunctionalModeSkipsExecutionButModelsTime) {
  Context ctx(gpu_device());
  Queue q(ctx);
  Buffer b = make_buffer<int>(ctx, 64);
  auto view = b.view<int>();
  view[0] = -1;
  q.set_functional(false);
  Kernel k("poison", [=](WorkItem& it) {
    view[it.global_id(0)] = 42;
  });
  q.enqueue(k, NDRange(64, 64), trivial_profile());
  EXPECT_EQ(view[0], -1);  // body not executed
  EXPECT_GT(q.modeled_kernel_seconds(), 0.0);  // but time was modeled
}

// Model-only transfers move no bytes but record exactly the events a
// functional queue does.  Each queue runs a blocking write/read pair and a
// wait-listed (deferred, in an out-of-order queue) pair; the deferred pair
// is drained only after the mode flips back, so it must honour the mode it
// was enqueued under.
TEST(Queue, NonFunctionalTransfersMoveNoBytesButModelTime) {
  for (const QueueMode mode : {QueueMode::kInOrder, QueueMode::kOutOfOrder}) {
    SCOPED_TRACE(to_string(mode));
    auto run = [mode](bool functional, std::vector<Event>* events) {
      Context ctx(gpu_device());
      Queue q(ctx, mode);
      Buffer b = make_buffer<int>(ctx, 256);
      b.named("b");
      const auto init = b.view<int>();
      std::fill(init.begin(), init.end(), -1);
      const std::vector<int> src(256, 7);
      std::vector<int> dst(256, 5);
      q.set_functional(functional);
      q.enqueue_write<int>(b, src);
      q.enqueue_read<int>(b, dst);
      const Event w = q.enqueue_write<int>(b, std::span(src).first(64), 0,
                                           std::span<const Event>{});
      const Event waits[] = {w};
      q.enqueue_read<int>(b, std::span(dst).first(64), 0, waits);
      q.set_functional(true);
      q.finish();
      *events = q.events();
      const auto bytes = b.view<const int>();
      const bool buffer_kept = std::all_of(bytes.begin(), bytes.end(),
                                           [](int v) { return v == -1; });
      const bool dst_kept = std::all_of(dst.begin(), dst.end(),
                                        [](int v) { return v == 5; });
      return std::pair{buffer_kept, dst_kept};
    };
    std::vector<Event> model_only;
    std::vector<Event> functional;
    EXPECT_EQ(run(false, &model_only), std::pair(true, true));
    EXPECT_EQ(run(true, &functional), std::pair(false, false));
    ASSERT_EQ(model_only.size(), 4u);
    ASSERT_EQ(model_only.size(), functional.size());
    for (std::size_t i = 0; i < model_only.size(); ++i) {
      EXPECT_EQ(model_only[i].kind, functional[i].kind) << i;
      EXPECT_EQ(model_only[i].label, functional[i].label) << i;
      EXPECT_EQ(model_only[i].bytes, functional[i].bytes) << i;
      EXPECT_EQ(model_only[i].modeled_start_s, functional[i].modeled_start_s)
          << i;
      EXPECT_EQ(model_only[i].modeled_end_s, functional[i].modeled_end_s)
          << i;
    }
  }
}

TEST(Queue, TransferBoundsChecked) {
  Context ctx(cpu_device());
  Queue q(ctx);
  Buffer b(ctx, 16);
  std::vector<float> big(8, 0.0f);  // 32 bytes > 16
  EXPECT_THROW(q.enqueue_write<float>(b, big), Error);
}

TEST(Executor, LocalMemorySharedWithinGroup) {
  Context ctx(cpu_device());
  Queue q(ctx);
  Buffer out = make_buffer<int>(ctx, 128);
  auto view = out.view<int>();
  // Each group stages values in __local memory and reads a peer's slot
  // after a barrier.
  Kernel k("local_swap", [=](WorkItem& it) {
    auto scratch = it.local<int>(0, it.local_size(0));
    scratch[it.local_id(0)] = static_cast<int>(it.global_id(0));
    it.barrier();
    const std::size_t peer = it.local_size(0) - 1 - it.local_id(0);
    view[it.global_id(0)] = scratch[peer];
  });
  k.uses_barriers();
  q.enqueue(k, NDRange(128, 32), trivial_profile());
  q.finish();
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t l = 0; l < 32; ++l) {
      EXPECT_EQ(view[g * 32 + l], static_cast<int>(g * 32 + (31 - l)));
    }
  }
}

TEST(Executor, BarrierOutsideBarrierKernelThrows) {
  Context ctx(cpu_device());
  Queue q(ctx);
  Kernel k("bad_barrier", [](WorkItem& it) { it.barrier(); });
  // uses_barriers() not set -> loop mode -> barrier() must be rejected.
  // An out-of-order queue surfaces the execution error at the sync point.
  EXPECT_THROW(
      {
        q.enqueue(k, NDRange(64, 64), trivial_profile());
        q.finish();
      },
      Error);
}

TEST(Executor, LocalAllocationOverflowDetected) {
  Context ctx(cpu_device());
  Queue q(ctx);
  const std::size_t local_mem = cpu_device().info().local_mem_bytes;
  Kernel k("local_overflow", [=](WorkItem& it) {
    (void)it.local<float>(0, local_mem);  // 4x the capacity in bytes
  });
  EXPECT_THROW(
      {
        q.enqueue(k, NDRange(8, 8), trivial_profile());
        q.finish();
      },
      Error);
}

TEST(Executor, ExceptionsPropagateFromWorkItems) {
  Context ctx(cpu_device());
  Queue q(ctx);
  Kernel k("thrower", [](WorkItem& it) {
    if (it.global_id(0) == 37) throw std::runtime_error("work-item 37");
  });
  // An out-of-order queue surfaces the execution error at the sync point.
  EXPECT_THROW(
      {
        q.enqueue(k, NDRange(64, 8), trivial_profile());
        q.finish();
      },
      std::runtime_error);
}

}  // namespace
}  // namespace eod::xcl
