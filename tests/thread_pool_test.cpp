// Tests for the work-stealing NDRange executor: range coverage, chunk
// stealing, nested-launch safety, deterministic exception selection, and
// scheduling-independent (bit-identical) barrier-kernel results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/testbed.hpp"
#include "xcl/executor.hpp"
#include "xcl/fiber.hpp"
#include "xcl/kernel.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::xcl {
namespace {

TEST(WorkStealingPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingPool, SmallRangesWithManyWorkers) {
  // n < participants leaves most per-participant ranges empty.
  ThreadPool pool(8);
  for (std::size_t n : {2u, 3u, 5u, 7u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkStealingPool, TasksAndClaimsAreCounted) {
  ThreadPool pool(2);
  pool.reset_stats();
  pool.parallel_for(1000, [](std::size_t) {});
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.launches, 1u);
  EXPECT_EQ(s.tasks_executed, 1000u);
  EXPECT_GT(s.chunks_claimed + s.chunks_stolen, 0u);
}

TEST(WorkStealingPool, ImbalancedWorkIsStolen) {
  // Participant 0's range is pathologically slow; the fast participants
  // must drain it from the back.  64 iterations with grain 1-2 and 2 ms
  // sleeps give thieves ~tens of milliseconds to be scheduled.
  ThreadPool pool(4);
  pool.reset_stats();
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i]++;
    if (i < kN / 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(pool.stats().chunks_stolen, 0u);
}

TEST(WorkStealingPool, NestedLaunchRunsInlineWithoutDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(pool.in_launch());
    pool.parallel_for(100, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 800);
  EXPECT_FALSE(pool.in_launch());
}

TEST(WorkStealingPool, DoublyNestedLaunchStillCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { total++; });
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(WorkStealingPool, LowestIndexExceptionWinsDeterministically) {
  ThreadPool pool(4);
  // Several iterations throw from different chunks; whatever the thread
  // interleaving, the surfaced exception must be index 57's.
  for (int rep = 0; rep < 25; ++rep) {
    try {
      pool.parallel_for(1000, [](std::size_t i) {
        if (i == 57 || i == 500 || i == 901) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "57");
    }
  }
}

TEST(WorkStealingPool, UsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   100,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(WorkStealingPool, ZeroIterationsDoesNotTouchThePool) {
  ThreadPool pool(2);
  pool.reset_stats();
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.launches, 0u);
  EXPECT_EQ(s.tasks_executed, 0u);
}

TEST(WorkStealingPool, ConcurrentLaunchesFromTwoThreadsSerialize) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  auto burst = [&] {
    for (int i = 0; i < 20; ++i) {
      pool.parallel_for(100, [&](std::size_t) { total++; });
    }
  };
  std::thread other(burst);
  burst();
  other.join();
  EXPECT_EQ(total.load(), 2 * 20 * 100);
}

TEST(WorkStealingPool, BackToBackLaunchesNeverRunARetiredBody) {
  // A worker that wakes late for a launch that has already drained must not
  // carry that launch's body into the next launch's ranges.  Short launches
  // issued back to back (as a host reference's passes are) open that window
  // on every launch.
  ThreadPool pool(4);
  for (int launch = 0; launch < 50000; ++launch) {
    const std::size_t n = 2 + launch % 7;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&hits](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "launch " << launch;
  }
}

// A barrier kernel whose result depends on cross-item __local traffic: each
// item publishes into local memory, synchronizes, then combines a peer's
// value.  Any scheduling- or arena-reuse bug shows up as a wrong lane.
Kernel make_barrier_kernel(std::vector<int>& out, std::size_t local) {
  int* sink = out.data();
  Kernel k("rotate", [sink, local](WorkItem& it) {
    auto stage = it.local<int>(0, local);
    const std::size_t lid = it.local_id(0);
    stage[lid] = static_cast<int>(it.global_id(0) * 3 + 1);
    it.barrier();
    sink[it.global_id(0)] =
        stage[(lid + 1) % local] + static_cast<int>(it.group_id(0));
  });
  k.uses_barriers();
  return k;
}

TEST(WorkStealingPool, BarrierResultsIdenticalAcross1_2_NWorkerPools) {
  constexpr std::size_t kLocal = 8;
  constexpr std::size_t kGlobal = 64 * kLocal;
  Device& device = sim::testbed_device("i7-6700K");
  NDRange range(kGlobal, kLocal);

  auto run_with = [&](unsigned workers) {
    std::vector<int> out(kGlobal, -1);
    Kernel k = make_barrier_kernel(out, kLocal);
    ThreadPool pool(workers);
    // Two launches per pool so the second runs against recycled arenas and
    // fiber stacks, not fresh ones.
    execute_ndrange(k, range, device, &pool);
    execute_ndrange(k, range, device, &pool);
    return out;
  };

  const std::vector<int> serial = run_with(1);
  EXPECT_EQ(serial, run_with(2));
  EXPECT_EQ(serial, run_with(4));
  // And against the global pool (whatever its width on this host).
  std::vector<int> out(kGlobal, -1);
  Kernel k = make_barrier_kernel(out, kLocal);
  execute_ndrange(k, range, device);
  EXPECT_EQ(serial, out);
}

TEST(ExecutorStats, ArenaHighWaterAndFiberReuseAreObserved) {
  constexpr std::size_t kLocal = 8;
  Device& device = sim::testbed_device("i7-6700K");
  NDRange range(32 * kLocal, kLocal);
  std::vector<int> out(32 * kLocal, 0);
  Kernel k = make_barrier_kernel(out, kLocal);

  reset_executor_stats();
  execute_ndrange(k, range, device);
  execute_ndrange(k, range, device);
  const ExecutorStats s = executor_stats();
  EXPECT_EQ(s.groups_fiber, 64u);
  EXPECT_GE(s.arena_bytes_hwm, kLocal * sizeof(int));
  // The second launch must reuse (not reallocate) every group's stacks.
  EXPECT_GE(s.fiber_stacks_reused, 32u * kLocal);
  EXPECT_LE(s.fiber_stacks_created,
            static_cast<std::uint64_t>(ThreadPool::global().size() + 1) *
                kLocal);
}

TEST(FiberPoolReuse, StacksAreRetainedAcrossGroups) {
  FiberPool pool;
  std::vector<int> acc(16, 0);
  for (int round = 0; round < 3; ++round) {
    pool.run_group(16, [&](std::size_t i) {
      acc[i]++;
      Fiber::yield_current();
      acc[i]++;
    });
  }
  EXPECT_EQ(pool.pooled(), 16u);
  for (const int v : acc) EXPECT_EQ(v, 6);
}

TEST(FiberPoolReuse, UsableAfterBodyExceptionAndDivergence) {
  FiberPool pool;
  EXPECT_THROW(pool.run_group(4,
                              [](std::size_t i) {
                                if (i == 2) throw std::runtime_error("mid");
                                Fiber::yield_current();
                              }),
               std::runtime_error);
  // Divergent barrier counts are still diagnosed on a reused pool.
  EXPECT_THROW(pool.run_group(4,
                              [](std::size_t i) {
                                if (i != 0) Fiber::yield_current();
                              }),
               Error);
  // And a well-behaved group afterwards runs cleanly on recycled stacks.
  std::vector<int> acc(4, 0);
  pool.run_group(4, [&](std::size_t i) {
    acc[i] = 1;
    Fiber::yield_current();
    acc[i] = 2;
  });
  for (const int v : acc) EXPECT_EQ(v, 2);
}

}  // namespace
}  // namespace eod::xcl
