#include "xcl/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scibench/timer.hpp"

namespace eod::xcl {

namespace {

// Process-wide pool metrics (registry-owned; see DESIGN.md §11).  These
// accumulate across every pool instance -- unlike the per-pool Stats, they
// are never reset by reset_stats(), only by obs::reset_metrics().
obs::Counter& g_m_tasks = obs::counter("executor.tasks_executed");
obs::Counter& g_m_claims = obs::counter("executor.chunks_claimed");
obs::Counter& g_m_steals = obs::counter("executor.chunks_stolen");
// Time from going dry on the own range to landing a successful steal;
// recorded only while timed metrics are on (the clock reads are the cost).
obs::Histogram& g_m_steal_latency =
    obs::histogram("executor.steal_latency_ns");

// The pool whose parallel_for body this thread is currently executing (as a
// worker or as the helping caller); nested launches on the same pool run
// inline instead of deadlocking on the launch mutex.
thread_local const ThreadPool* tl_active_pool = nullptr;

constexpr std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}
constexpr std::uint32_t range_begin(std::uint64_t r) {
  return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t r) {
  return static_cast<std::uint32_t>(r);
}

// Claims up to `grain` iterations from the front of `range` (owner side).
bool claim_front(std::atomic<std::uint64_t>& range, std::uint32_t grain,
                 std::uint32_t& begin, std::uint32_t& end) {
  // lint: relaxed-ok(CAS loop seed; the acq_rel CAS below synchronises)
  std::uint64_t r = range.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t b = range_begin(r);
    const std::uint32_t e = range_end(r);
    if (b >= e) return false;
    const std::uint32_t take = std::min(grain, e - b);
    if (range.compare_exchange_weak(r, pack(b + take, e),
                                    std::memory_order_acq_rel,
                                    // lint: relaxed-ok(failure order: retry only)
                                    std::memory_order_relaxed)) {
      begin = b;
      end = b + take;
      return true;
    }
  }
}

// Steals half of the victim's remaining range from the back (thief side);
// owner and thief CAS the same word, so the split can never overlap.
bool claim_back_half(std::atomic<std::uint64_t>& range, std::uint32_t& begin,
                     std::uint32_t& end) {
  // lint: relaxed-ok(CAS loop seed; the acq_rel CAS below synchronises)
  std::uint64_t r = range.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t b = range_begin(r);
    const std::uint32_t e = range_end(r);
    if (b >= e) return false;
    const std::uint32_t take = (e - b + 1) / 2;
    if (range.compare_exchange_weak(r, pack(b, e - take),
                                    std::memory_order_acq_rel,
                                    // lint: relaxed-ok(failure order: retry only)
                                    std::memory_order_relaxed)) {
      begin = e - take;
      end = e;
      return true;
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  slots_ = std::vector<Slot>(threads + 1);  // + the caller's slot
  // lint: alloc-ok(pool construction at startup)
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    // lint: alloc-ok(pool construction at startup)
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Taking the launch mutex waits out any in-flight parallel_for.
    std::scoped_lock launch(launch_mutex_);
    std::scoped_lock wake(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned slot) {
  {
    char name[32];
    std::snprintf(name, sizeof(name), "pool-worker-%u", slot);
    obs::set_thread_lane_name(name);
  }
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(wake_mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               epoch_.load(std::memory_order_acquire) != seen;
      });
      if (stop_.load(std::memory_order_acquire)) return;
      seen = epoch_.load(std::memory_order_acquire);
    }
    participate(slot, seen);
  }
}

void ThreadPool::run_span(Slot& self,
                          const std::function<void(std::size_t)>& body,
                          std::uint32_t begin, std::uint32_t end) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::size_t index = base_ + i;
    try {
      body(index);
    } catch (...) {
      // Keep only this participant's lowest-index exception; the caller
      // merges slots after the launch, so the globally lowest one wins.
      if (!self.error || index < self.error_index) {
        self.error = std::current_exception();
        self.error_index = index;
      }
    }
  }
  if (remaining_.fetch_sub(end - begin, std::memory_order_acq_rel) ==
      end - begin) {
    std::scoped_lock lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::participate(unsigned slot, std::uint64_t launch_epoch) {
  // Check in under done_mutex_, the mutex under which the caller retires a
  // launch (sees it drained, then clears body_).  A participant therefore
  // either checks in before the launch drains, and the caller waits for it,
  // or finds the launch retired (null body) or superseded (new epoch) and
  // leaves: a late waker can never carry a retired body into the next
  // launch's ranges.  The acquire load synchronizes with the caller's epoch
  // bump, so a matching epoch guarantees base_/grain_/ranges all belong to
  // the launch we are about to serve.
  const std::function<void(std::size_t)>* body = nullptr;
  {
    std::scoped_lock lock(done_mutex_);
    if (epoch_.load(std::memory_order_acquire) == launch_epoch) {
      body = body_.load(std::memory_order_acquire);
    }
    if (body == nullptr) return;
    active_.fetch_add(1, std::memory_order_acq_rel);
  }
  {
    const ThreadPool* prev = tl_active_pool;
    tl_active_pool = this;
    std::uint64_t tasks = 0, claims = 0, steals = 0;
    std::uint32_t b = 0, e = 0;
    while (claim_front(slots_[slot].range, grain_, b, e)) {
      ++claims;
      tasks += e - b;
      obs::TraceSpan span("claim", "pool", "items",
                          static_cast<double>(e - b));
      run_span(slots_[slot], *body, b, e);
    }
    // Own range dry: sweep the other participants, restarting the sweep
    // after every successful steal (ranges only ever shrink, so one failed
    // full sweep proves there is nothing left to claim).  Steal latency --
    // dry-to-successful-steal -- is sampled only when timed metrics are on,
    // keeping the clock reads off the plain dispatch path.
    std::uint64_t dry_since =
        obs::timed_metrics_enabled() ? scibench::now_ns() : 0;
    bool found = true;
    while (found) {
      found = false;
      for (std::size_t v = 1; v < slots_.size(); ++v) {
        const std::size_t victim = (slot + v) % slots_.size();
        if (claim_back_half(slots_[victim].range, b, e)) {
          ++steals;
          tasks += e - b;
          if (dry_since != 0) {
            g_m_steal_latency.record(scibench::now_ns() - dry_since);
          }
          {
            obs::TraceSpan span("steal", "pool", "items",
                                static_cast<double>(e - b));
            run_span(slots_[slot], *body, b, e);
          }
          // Dry again once the stolen chunk is done; the next successful
          // steal's latency starts here, not inside the chunk's run time.
          if (dry_since != 0) dry_since = scibench::now_ns();
          found = true;
          break;
        }
      }
    }
    tl_active_pool = prev;
    // lint: relaxed-ok(worker-local stat flush; value-only)
    stat_tasks_.fetch_add(tasks, std::memory_order_relaxed);
    // lint: relaxed-ok(worker-local stat flush; value-only)
    stat_claims_.fetch_add(claims, std::memory_order_relaxed);
    // lint: relaxed-ok(worker-local stat flush; value-only)
    stat_steals_.fetch_add(steals, std::memory_order_relaxed);
    g_m_tasks.add(tasks);
    g_m_claims.add(claims);
    g_m_steals.add(steals);
  }
  {
    std::scoped_lock lock(done_mutex_);
    active_.fetch_sub(1, std::memory_order_acq_rel);
  }
  done_cv_.notify_all();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;  // must not touch the pool at all
  if (tl_active_pool == this || workers_.empty() || n == 1) {
    // Inline serial execution: nested launches, degenerate sizes.  Serial
    // order makes the lowest-index exception guarantee immediate.
    for (std::size_t i = 0; i < n; ++i) body(i);
    // lint: relaxed-ok(stat counter; value-only)
    stat_tasks_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  std::scoped_lock launch(launch_mutex_);
  // Ranges are 32-bit packed; iterate gigantic launches in 2^32-1 slices.
  constexpr std::size_t kMaxSlice = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t offset = 0; offset < n; offset += kMaxSlice) {
    base_ = offset;
    run_one_slice(std::min(n - offset, kMaxSlice), body);
  }
}

void ThreadPool::run_one_slice(std::size_t n,
                               const std::function<void(std::size_t)>& body) {
  const std::size_t participants = slots_.size();
  // ~8 owner claims per participant: enough granularity that thieves find
  // meaningful halves, few enough that claim CAS traffic stays negligible.
  grain_ = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, n / (participants * 8)));
  for (std::size_t p = 0; p < participants; ++p) {
    const auto begin = static_cast<std::uint32_t>(n * p / participants);
    const auto end = static_cast<std::uint32_t>(n * (p + 1) / participants);
    // lint: relaxed-ok(ranges publish via the release epoch bump below)
    slots_[p].range.store(pack(begin, end), std::memory_order_relaxed);
    slots_[p].error = nullptr;
  }
  // lint: relaxed-ok(published by the release epoch bump below)
  remaining_.store(n, std::memory_order_relaxed);
  body_.store(&body, std::memory_order_release);
  {
    std::scoped_lock lock(wake_mutex_);
    epoch_.fetch_add(1, std::memory_order_acq_rel);  // one atomic publish
  }
  wake_cv_.notify_all();
  // lint: relaxed-ok(stat counter; value-only)
  stat_launches_.fetch_add(1, std::memory_order_relaxed);

  // The caller always helps; no other thread can bump the epoch while we
  // hold the launch mutex, so this relaxed load names our own launch.
  participate(static_cast<unsigned>(participants - 1),
              // lint: relaxed-ok(own launch's epoch, guarded by launch_mutex_)
              epoch_.load(std::memory_order_relaxed));

  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&] {
      return remaining_.load(std::memory_order_acquire) == 0 &&
             active_.load(std::memory_order_acquire) == 0;
    });
    // Retire the launch in the same critical section that saw it drain, so
    // no participant can check in between (see participate()).
    body_.store(nullptr, std::memory_order_release);
  }

  std::exception_ptr lowest;
  std::size_t lowest_index = std::numeric_limits<std::size_t>::max();
  for (Slot& s : slots_) {
    if (s.error && s.error_index < lowest_index) {
      lowest_index = s.error_index;
      lowest = s.error;
    }
    s.error = nullptr;
  }
  if (lowest) std::rethrow_exception(lowest);
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  Stats s;
  // lint: relaxed-ok(stat counter read)
  s.launches = stat_launches_.load(std::memory_order_relaxed);
  // lint: relaxed-ok(stat counter read)
  s.tasks_executed = stat_tasks_.load(std::memory_order_relaxed);
  // lint: relaxed-ok(stat counter read)
  s.chunks_claimed = stat_claims_.load(std::memory_order_relaxed);
  // lint: relaxed-ok(stat counter read)
  s.chunks_stolen = stat_steals_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::reset_stats() noexcept {
  // lint: relaxed-ok(stat counter reset)
  stat_launches_.store(0, std::memory_order_relaxed);
  // lint: relaxed-ok(stat counter reset)
  stat_tasks_.store(0, std::memory_order_relaxed);
  // lint: relaxed-ok(stat counter reset)
  stat_claims_.store(0, std::memory_order_relaxed);
  // lint: relaxed-ok(stat counter reset)
  stat_steals_.store(0, std::memory_order_relaxed);
}

bool ThreadPool::in_launch() const noexcept { return tl_active_pool == this; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace eod::xcl
