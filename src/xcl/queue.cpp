#include "xcl/queue.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scibench/timer.hpp"
#include "xcl/check/session.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::xcl {

namespace {

// Queue-level instruments (DESIGN.md §11).  Histograms are recorded only
// while timed metrics are on; the counters are relaxed adds on the rare
// per-command (not per-group) path and stay unconditional.
obs::Counter& g_q_kernels = obs::counter("queue.kernel_commands");
obs::Counter& g_q_transfers = obs::counter("queue.transfer_commands");
obs::Counter& g_q_copies = obs::counter("queue.copy_commands");
obs::Counter& g_q_fills = obs::counter("queue.fill_commands");
obs::Counter& g_q_bytes_written = obs::counter("queue.bytes_written");
obs::Counter& g_q_bytes_read = obs::counter("queue.bytes_read");
obs::Histogram& g_q_kernel_host_ns = obs::histogram("queue.kernel_host_ns");
obs::Histogram& g_q_transfer_host_ns =
    obs::histogram("queue.transfer_host_ns");

// Transfers of more than one chunk copy a chunk per pool task, so the
// destination's fresh pages also fault in on every worker.  A copy inside
// an out-of-order wave already runs on the pool, and its nested
// parallel_for runs inline.
constexpr std::size_t kCopyChunk = std::size_t{1} << 20;

void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (bytes <= kCopyChunk) {
    std::memcpy(dst, src, bytes);
    return;
  }
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  ThreadPool::global().parallel_for(
      (bytes + kCopyChunk - 1) / kCopyChunk, [&](std::size_t c) {
        const std::size_t at = c * kCopyChunk;
        std::memcpy(d + at, s + at, std::min(kCopyChunk, bytes - at));
      });
}

// Process-wide command id allocator.  Ids are handed out in enqueue order
// across all queues and never reused, so any *real* event in a wait list has
// an id strictly below the command being enqueued — the dependency graph is
// acyclic by construction, and a forward-pointing id can only come from a
// forged event (rejected with kInvalidEventWaitList).
std::atomic<std::uint64_t> g_next_event_id{1};

// Process-wide queue sequence ids for the trace's per-command "q" arg: a
// stable queue identity that survives the JSON round-trip, so eod_prof can
// reconstruct same-queue barrier ordering from the artifact alone.
std::atomic<std::uint32_t> g_next_queue_id{1};

// Folds the executor-counter delta of one launch into the queue's running
// dispatch totals.  All fields are delta-based: the high-water mark is only
// folded in when it *rose during this command* — the global gauge keeps its
// maximum across the whole process, so unconditionally max-ing it in would
// leak another queue's (or an earlier run's) high-water mark into this
// queue's per-queue stats.
void accumulate_dispatch(ExecutorStats& total, const ExecutorStats& before,
                         const ExecutorStats& after) {
  total.launches += after.launches - before.launches;
  total.tasks_executed += after.tasks_executed - before.tasks_executed;
  total.chunks_claimed += after.chunks_claimed - before.chunks_claimed;
  total.chunks_stolen += after.chunks_stolen - before.chunks_stolen;
  total.groups_loop += after.groups_loop - before.groups_loop;
  total.groups_fiber += after.groups_fiber - before.groups_fiber;
  total.groups_span += after.groups_span - before.groups_span;
  total.groups_checked += after.groups_checked - before.groups_checked;
  if (after.arena_bytes_hwm > before.arena_bytes_hwm) {
    total.arena_bytes_hwm =
        std::max(total.arena_bytes_hwm, after.arena_bytes_hwm);
  }
  total.fiber_stacks_created +=
      after.fiber_stacks_created - before.fiber_stacks_created;
  total.fiber_stacks_reused +=
      after.fiber_stacks_reused - before.fiber_stacks_reused;
}

[[nodiscard]] const char* device_trace_cat(CommandKind k) noexcept {
  switch (k) {
    case CommandKind::kKernel:
      return "device:kernel";
    case CommandKind::kWrite:
    case CommandKind::kRead:
      return "device:transfer";
    case CommandKind::kCopy:
      return "device:copy";
    case CommandKind::kFill:
      return "device:fill";
    case CommandKind::kPeerCopy:
      return "device:peer";
  }
  return "device:unknown";
}

// Process-wide interconnect model for peer copies (DESIGN.md §14).  Relaxed
// atomics: installation happens once at testbed construction, long before
// any multi-queue traffic.
std::atomic<const LinkModel*> g_link_model{nullptr};

}  // namespace

void set_link_model(const LinkModel* model) noexcept {
  g_link_model.store(model, std::memory_order_release);
}

const LinkModel* link_model() noexcept {
  return g_link_model.load(std::memory_order_acquire);
}

const char* to_string(QueueMode mode) noexcept {
  return mode == QueueMode::kOutOfOrder ? "ooo" : "inorder";
}

std::optional<QueueMode> parse_queue_mode(std::string_view name) noexcept {
  if (name == "inorder" || name == "in-order") return QueueMode::kInOrder;
  if (name == "ooo" || name == "out-of-order" || name == "outoforder") {
    return QueueMode::kOutOfOrder;
  }
  return std::nullopt;
}

QueueMode default_queue_mode() noexcept {
  static const QueueMode mode = [] {
    if (const char* v = std::getenv("EOD_QUEUE")) {
      if (auto parsed = parse_queue_mode(v)) return *parsed;
    }
    return QueueMode::kInOrder;
  }();
  return mode;
}

Queue::Queue(Context& ctx, std::optional<QueueMode> mode)
    : ctx_(&ctx),
      mode_(mode.value_or(default_queue_mode())),
      // lint: relaxed-ok(unique id generation needs atomicity only)
      trace_queue_id_(g_next_queue_id.fetch_add(1, std::memory_order_relaxed)) {
  ctx_->register_queue(this);
}

Queue::~Queue() {
  ctx_->unregister_queue(this);
  // clReleaseCommandQueue performs an implicit flush; never throw from here.
  try {
    drain(0);
  } catch (...) {
  }
}

void Queue::drain_pending() {
  if (!pending_.empty()) drain(0);
}

bool Queue::eager() const noexcept {
  // The shadow-memory checker validates one command at a time against a
  // serial reference; concurrent drains would race its shadow state, so an
  // active session pins every queue to eager in-enqueue-order execution —
  // always a correct linearization of the DAG, since wait lists only point
  // backwards.
  return mode_ == QueueMode::kInOrder ||
         check::CheckSession::active() != nullptr;
}

std::uint32_t Queue::obs_lane() {
  if (obs_lane_ < 0) {
    obs_lane_ = obs::alloc_device_lane("queue:" + device().info().name);
  }
  return static_cast<std::uint32_t>(obs_lane_);
}

std::uint32_t Queue::obs_transfer_lane() {
  if (obs_transfer_lane_ < 0) {
    obs_transfer_lane_ =
        obs::alloc_device_lane("queue:" + device().info().name + " transfers");
  }
  return static_cast<std::uint32_t>(obs_transfer_lane_);
}

void Queue::emit_device_span(const Event& e,
                             const std::span<const Event>* wait,
                             double busy_s) {
  // Mirror every command onto this queue's modeled-device lanes (pid 2).
  // Device timestamps are the virtual timeline in ns, deliberately not
  // rebased against the host clock — the viewer shows them as a separate
  // process, so the timebases never visually overlap.  An out-of-order
  // queue splits link transfers onto a second lane so a transfer drawn
  // under a kernel is visibly overlapping it.
  if (!obs::tracing_enabled()) return;
  std::uint32_t lane = obs_lane();
  if (mode_ == QueueMode::kOutOfOrder && is_link_transfer(e.kind)) {
    lane = obs_transfer_lane();
  }
  // The DAG argument block (DESIGN.md §11/§16): enough to rebuild the
  // command graph from the artifact alone.  `barrier` covers the in-order
  // chain and the ooo implicit barrier; explicit wait lists are recorded as
  // ids even when cross-queue, so peer-copy edges survive the round-trip.
  obs::CommandSpanArgs args;
  args.cmd_id = e.id;
  args.queue_id = trace_queue_id_;
  args.barrier = mode_ == QueueMode::kInOrder || wait == nullptr;
  const double dur_s = e.modeled_seconds();
  if (busy_s >= 0.0 && busy_s < dur_s) {
    args.busy_ns = static_cast<std::uint64_t>(busy_s * 1e9);
  }
  args.bytes = e.bytes;
  args.energy_j = e.energy_j;
  if (wait != nullptr) {
    for (const Event& w : *wait) {
      if (args.dep_count >= obs::kTraceDepCap) break;
      args.deps[args.dep_count++] = w.id;
    }
  }
  obs::emit_command_span(lane, e.label.c_str(), device_trace_cat(e.kind),
                         static_cast<std::uint64_t>(e.modeled_start_s * 1e9),
                         static_cast<std::uint64_t>(dur_s * 1e9), args);
}

bool Queue::has_pending(std::uint64_t id) const noexcept {
  // pending_ is ordered by ascending id (enqueue order; drains preserve the
  // relative order of survivors), so membership is a binary search.
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), id,
      [](const PendingCmd& c, std::uint64_t v) { return c.id < v; });
  return it != pending_.end() && it->id == id;
}

void Queue::resolve_wait_list(const std::span<const Event>* wait) {
  if (wait == nullptr) return;
  // lint: relaxed-ok(forgery check reads the id counter; value-only)
  const std::uint64_t next = g_next_event_id.load(std::memory_order_relaxed);
  for (const Event& w : *wait) {
    require(w.id != 0, Status::kInvalidEventWaitList,
            "null event in wait list");
    require(w.id < next, Status::kInvalidEventWaitList,
            "wait list references a not-yet-enqueued command");
    // Cross-queue dependency: the queues' modeled timelines are distinct
    // devices, so the wait is satisfied on the *host* — drain the foreign
    // command (and its closure) here, before this command records.
    if (w.queue != nullptr && w.queue != this && w.queue->has_pending(w.id)) {
      w.queue->drain(w.id);
    }
  }
}

Event Queue::submit(Event e, double duration_s,
                    const std::span<const Event>* wait,
                    std::function<std::uint64_t()> exec,
                    double occupancy_s) {
  resolve_wait_list(wait);
  // lint: relaxed-ok(unique id generation needs atomicity only)
  e.id = g_next_event_id.fetch_add(1, std::memory_order_relaxed);
  e.enqueue_index = next_enqueue_index_++;
  e.queue = this;

  // Modeled placement.  In-order: one contiguous chain, exactly the
  // pre-DAG timeline.  Out-of-order: the command becomes ready when its
  // dependencies end (implicit chain = the previously enqueued command) and
  // starts when its lane — kernel-side work vs link transfers — is also
  // free.  Durations are mode-independent; only placement changes.
  //
  // Foreign wait-list events contribute their modeled end times in either
  // mode: every queue's virtual timeline shares one timebase (all start at
  // 0 when their contexts are created together), so a multi-device pipeline
  // whose halo copy waits on a remote kernel is placed after that kernel on
  // the shared clock — the cross-device makespan is causally consistent
  // (DESIGN.md §14).  Functionally the foreign command was already drained
  // on the host by resolve_wait_list above.
  std::vector<std::uint64_t> deps;
  double ready_s = 0.0;
  const bool ooo = mode_ == QueueMode::kOutOfOrder;
  if (!ooo) {
    ready_s = chain_end_s_;
    if (wait != nullptr) {
      for (const Event& w : *wait) ready_s = std::max(ready_s, w.modeled_end_s);
    }
  } else if (wait == nullptr) {
    // No wait list: the command joins the implicit program-order chain,
    // which is a barrier over *everything* enqueued before it — code that
    // never mentions events must observe in-order semantics even after an
    // explicit-DAG section forked the pending graph.  Modeled readiness is
    // therefore the furthest end seen so far, and execution must wait on
    // every still-pending command, not only the previous one.
    ready_s = now_s_;
    // lint: alloc-ok(implicit-chain barrier materialises the pending id list)
    deps.reserve(pending_.size());
    // lint: alloc-ok(sized by the reserve above; no reallocation)
    for (const PendingCmd& c : pending_) deps.push_back(c.id);
  } else {
    for (const Event& w : *wait) {
      ready_s = std::max(ready_s, w.modeled_end_s);
      if (w.queue != this) continue;  // foreign: host-synchronised above
      // lint: alloc-ok(bounded by the caller's wait list; typically tiny)
      if (has_pending(w.id)) deps.push_back(w.id);
    }
  }
  double& lane_end = (ooo && is_link_transfer(e.kind)) ? transfer_lane_end_s_
                                                       : kernel_lane_end_s_;
  const double start_s = ooo ? std::max(ready_s, lane_end) : ready_s;
  e.modeled_start_s = start_s;
  e.modeled_end_s = start_s + duration_s;
  // The lane frees after the command's *occupancy*, which for pipelined
  // link transfers is shorter than the full latency-inclusive duration;
  // dependants still wait for modeled_end_s via the wait list.
  const double busy_s = occupancy_s >= 0.0 ? occupancy_s : duration_s;
  lane_end = std::max(lane_end, start_s + busy_s);
  chain_end_s_ = e.modeled_end_s;
  now_s_ = std::max(now_s_, e.modeled_end_s);

  // lint: alloc-ok(event log growth is amortised O(1); needed for lookup)
  events_.push_back(std::move(e));
  completion_dirty_ = true;
  Event& recorded = events_.back();
  emit_device_span(recorded, wait, busy_s);

  if (eager()) {
    // A checker session may activate mid-stream; flush anything the queue
    // deferred before it so execution order stays a DAG linearization.
    if (!pending_.empty()) drain(0);
    const ExecutorStats before = executor_stats();
    if (exec) recorded.host_ns = exec();
    accumulate_dispatch(dispatch_stats_, before, executor_stats());
    return recorded;
  }

  PendingCmd cmd;
  cmd.id = recorded.id;
  cmd.event_index = events_.size() - 1;
  cmd.deps = std::move(deps);
  cmd.exec = std::move(exec);
  // lint: alloc-ok(pending DAG node recording; amortised O(1))
  pending_.push_back(std::move(cmd));
  return recorded;
}

void Queue::drain(std::uint64_t target_id) {
  if (pending_.empty()) return;

  // Select the commands to run: everything (target 0) or the target's
  // transitive same-queue dependency closure.
  std::vector<char> selected(pending_.size(), 0);
  if (target_id == 0) {
    std::fill(selected.begin(), selected.end(), 1);
  } else {
    auto index_of = [this](std::uint64_t id) -> std::ptrdiff_t {
      auto it = std::lower_bound(
          pending_.begin(), pending_.end(), id,
          [](const PendingCmd& c, std::uint64_t v) { return c.id < v; });
      if (it == pending_.end() || it->id != id) return -1;
      return it - pending_.begin();
    };
    const std::ptrdiff_t root = index_of(target_id);
    if (root < 0) return;  // already executed
    std::vector<std::size_t> stack{static_cast<std::size_t>(root)};
    selected[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      for (std::uint64_t dep : pending_[i].deps) {
        const std::ptrdiff_t j = index_of(dep);
        if (j >= 0 && !selected[static_cast<std::size_t>(j)]) {
          selected[static_cast<std::size_t>(j)] = 1;
          // lint: alloc-ok(drain-time DFS; drain is a sync point)
          stack.push_back(static_cast<std::size_t>(j));
        }
      }
    }
  }

  // Detach the selection from the pending list before running it: commands
  // being drained are no longer "pending", and any survivor's edge into the
  // drained set now reads as satisfied.
  std::vector<PendingCmd> cmds;
  std::vector<PendingCmd> rest;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    // lint: alloc-ok(drain-time partition of the pending list)
    (selected[i] ? cmds : rest).push_back(std::move(pending_[i]));
  }
  pending_ = std::move(rest);

  std::unordered_map<std::uint64_t, std::size_t> position;
  // lint: alloc-ok(drain-time id index, sized up front)
  position.reserve(cmds.size());
  // lint: alloc-ok(drain-time id index; capacity reserved above)
  for (std::size_t i = 0; i < cmds.size(); ++i) position.emplace(cmds[i].id, i);

  // Kahn-style wave release: every command whose in-set dependencies have
  // completed runs in the current wave.  A single-command wave runs on the
  // calling thread, so the kernel inside keeps the ThreadPool's full
  // group-level parallelism; a multi-command wave fans the commands out over
  // the pool and each kernel's nested parallel_for then runs inline — the
  // pool parallelises across commands instead of within one.
  const ExecutorStats before = executor_stats();
  std::vector<char> done(cmds.size(), 0);
  std::size_t executed = 0;
  std::vector<std::size_t> wave;
  while (executed < cmds.size()) {
    wave.clear();
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (std::uint64_t dep : cmds[i].deps) {
        auto it = position.find(dep);
        if (it != position.end() && !done[it->second]) {
          ready = false;
          break;
        }
      }
      // lint: alloc-ok(drain-time wave assembly; drain is a sync point)
      if (ready) wave.push_back(i);
    }
    // Unreachable through the public API (ids only point backwards), but a
    // corrupted graph must fail loudly rather than spin.
    require(!wave.empty(), Status::kInvalidOperation,
            "dependency cycle in command graph");
    auto run_one = [&](std::size_t k) {
      PendingCmd& c = cmds[wave[k]];
      if (c.exec) events_[c.event_index].host_ns = c.exec();
    };
    if (wave.size() == 1) {
      run_one(0);
    } else {
      ThreadPool::global().parallel_for(wave.size(), run_one);
    }
    for (std::size_t i : wave) done[i] = 1;
    executed += wave.size();
  }
  accumulate_dispatch(dispatch_stats_, before, executor_stats());
  completion_dirty_ = true;  // host_ns backfills invalidate the sorted view
}

void Queue::wait(const Event& e) {
  if (e.id == 0) return;
  if (e.queue == this) {
    kernels_since_sync_ = 0;  // clWaitForEvents is a host synchronisation
    if (has_pending(e.id)) drain(e.id);
    return;
  }
  if (e.queue != nullptr) e.queue->wait(e);
}

double Queue::finish() {
  drain(0);
  kernels_since_sync_ = 0;
  return now_s_;
}

void Queue::clear_events() {
  drain(0);
  events_.clear();
  completion_order_.clear();
  completion_dirty_ = false;
  launches_.clear();
  next_enqueue_index_ = 0;
}

const std::vector<Event>& Queue::events() const {
  if (completion_dirty_) {
    completion_order_ = events_;
    std::stable_sort(completion_order_.begin(), completion_order_.end(),
                     [](const Event& a, const Event& b) {
                       if (a.modeled_end_s != b.modeled_end_s) {
                         return a.modeled_end_s < b.modeled_end_s;
                       }
                       return a.enqueue_index < b.enqueue_index;
                     });
    completion_dirty_ = false;
  }
  return completion_order_;
}

Event Queue::enqueue(const Kernel& kernel, NDRange range,
                     const WorkloadProfile& profile) {
  return launch(kernel, range, profile, nullptr);
}

Event Queue::enqueue(const Kernel& kernel, NDRange range,
                     const WorkloadProfile& profile,
                     std::span<const Event> wait) {
  return launch(kernel, range, profile, &wait);
}

Event Queue::launch(const Kernel& kernel, NDRange range,
                    const WorkloadProfile& profile,
                    const std::span<const Event>* wait) {
  range.resolve_local(device().info().max_work_group_size);

  KernelLaunchStats stats{kernel.name(), range, profile,
                          kernels_since_sync_++};
  // lint: alloc-ok(opt-in launch recording for tests and diagnostics)
  if (record_launches_) launches_.push_back(stats);
  const TimingModel& model = device().model();
  const double dt = model.kernel_seconds(stats);
  const double watts = model.kernel_power_watts(stats);

  g_q_kernels.add(1);

  Event e;
  e.kind = CommandKind::kKernel;
  e.label = kernel.name();
  e.energy_j = watts * dt;
  // Kernel, range and device are captured by value/pointer: execution may
  // be deferred past the caller's scope in an out-of-order queue.
  auto exec = [kernel, range, dev = &device(), label = e.label,
               groups = static_cast<double>(range.num_groups()),
               functional = functional_]() -> std::uint64_t {
    const std::uint64_t t0 = scibench::now_ns();
    if (functional) execute_ndrange(kernel, range, *dev);
    const std::uint64_t t1 = scibench::now_ns();
    if (obs::timed_metrics_enabled()) g_q_kernel_host_ns.record(t1 - t0);
    if (obs::tracing_enabled()) {
      // lint: raw-span-ok(complete event from already-measured t0/duration)
      obs::emit_complete_arg(label.c_str(), "queue:kernel", t0, t1 - t0,
                             "groups", groups);
    }
    return t1 - t0;
  };
  return submit(std::move(e), dt, wait, std::move(exec));
}

Event Queue::write_bytes(Buffer& dst, const void* src, std::size_t offset,
                         std::size_t bytes,
                         const std::span<const Event>* wait) {
  require(offset + bytes <= dst.bytes(), Status::kInvalidBufferSize,
          "write exceeds buffer size");
  const bool blocking = wait == nullptr;
  if (blocking) kernels_since_sync_ = 0;  // blocking transfers synchronise

  g_q_transfers.add(1);
  g_q_bytes_written.add(static_cast<std::int64_t>(bytes));
  const double dt =
      device().model().transfer_seconds(bytes, TransferDir::kHostToDevice);

  Event e;
  e.kind = CommandKind::kWrite;
  e.label = transfer_label("write", dst.name(), bytes);
  e.bytes = bytes;
  // Like launch(), the mode is captured at enqueue time: a model-only
  // write moves no bytes, so the buffer's pages stay untouched.
  auto exec = [dptr = dst.data(), src, offset, bytes, label = e.label,
               functional = functional_]() -> std::uint64_t {
    const std::uint64_t t0 = scibench::now_ns();
    if (functional) {
      copy_bytes(dptr + offset, src, bytes);
      check::on_host_write(dptr, offset, bytes);  // transfers initialize
    }
    const std::uint64_t t1 = scibench::now_ns();
    if (obs::timed_metrics_enabled()) g_q_transfer_host_ns.record(t1 - t0);
    if (obs::tracing_enabled()) {
      // lint: raw-span-ok(complete event from already-measured t0/duration)
      obs::emit_complete_arg(label.c_str(), "queue:transfer", t0, t1 - t0,
                             "bytes", static_cast<double>(bytes));
    }
    return t1 - t0;
  };
  Event out = submit(std::move(e), dt, wait, std::move(exec));
  if (blocking && has_pending(out.id)) {
    drain(out.id);
    out = events_.back();  // pick up the backfilled host_ns
  }
  return out;
}

Event Queue::read_bytes(const Buffer& src, void* dst, std::size_t offset,
                        std::size_t bytes,
                        const std::span<const Event>* wait) {
  require(offset + bytes <= src.bytes(), Status::kInvalidBufferSize,
          "read exceeds buffer size");
  const bool blocking = wait == nullptr;
  if (blocking) kernels_since_sync_ = 0;  // blocking transfers synchronise

  g_q_transfers.add(1);
  g_q_bytes_read.add(static_cast<std::int64_t>(bytes));
  const double dt =
      device().model().transfer_seconds(bytes, TransferDir::kDeviceToHost);

  Event e;
  e.kind = CommandKind::kRead;
  e.label = transfer_label("read", src.name(), bytes);
  e.bytes = bytes;
  const void* sptr = src.data() + offset;
  auto exec = [sptr, dst, bytes, label = e.label,
               functional = functional_]() -> std::uint64_t {
    const std::uint64_t t0 = scibench::now_ns();
    if (functional) copy_bytes(dst, sptr, bytes);
    const std::uint64_t t1 = scibench::now_ns();
    if (obs::timed_metrics_enabled()) g_q_transfer_host_ns.record(t1 - t0);
    if (obs::tracing_enabled()) {
      // lint: raw-span-ok(complete event from already-measured t0/duration)
      obs::emit_complete_arg(label.c_str(), "queue:transfer", t0, t1 - t0,
                             "bytes", static_cast<double>(bytes));
    }
    return t1 - t0;
  };
  Event out = submit(std::move(e), dt, wait, std::move(exec));
  if (blocking && has_pending(out.id)) {
    drain(out.id);
    out = events_.back();
  }
  return out;
}

Event Queue::enqueue_copy(const Buffer& src, Buffer& dst) {
  return copy_impl(src, dst, nullptr);
}

Event Queue::enqueue_copy(const Buffer& src, Buffer& dst,
                          std::span<const Event> wait) {
  return copy_impl(src, dst, &wait);
}

Event Queue::copy_impl(const Buffer& src, Buffer& dst,
                       const std::span<const Event>* wait) {
  require(src.bytes() <= dst.bytes(), Status::kInvalidBufferSize,
          "copy exceeds destination buffer");
  std::function<void()> body;
  if (functional_) {
    body = [sptr = src.data(), dptr = dst.data(), bytes = src.bytes()] {
      copy_bytes(dptr, sptr, bytes);
      check::on_host_write(dptr, 0, bytes);
    };
  }
  return device_side_op(CommandKind::kCopy,
                        transfer_label("copy", dst.name(), src.bytes()),
                        2 * src.bytes(),  // read + write
                        std::move(body), wait);
}

Event Queue::enqueue_peer_copy(const Buffer& src, std::size_t src_offset,
                               Buffer& dst, std::size_t dst_offset,
                               std::size_t bytes) {
  return peer_copy_impl(src, src_offset, dst, dst_offset, bytes, nullptr);
}

Event Queue::enqueue_peer_copy(const Buffer& src, std::size_t src_offset,
                               Buffer& dst, std::size_t dst_offset,
                               std::size_t bytes,
                               std::span<const Event> wait) {
  return peer_copy_impl(src, src_offset, dst, dst_offset, bytes, &wait);
}

Event Queue::peer_copy_impl(const Buffer& src, std::size_t src_offset,
                            Buffer& dst, std::size_t dst_offset,
                            std::size_t bytes,
                            const std::span<const Event>* wait) {
  require(src_offset + bytes <= src.bytes(), Status::kInvalidBufferSize,
          "peer copy exceeds source buffer");
  require(dst_offset + bytes <= dst.bytes(), Status::kInvalidBufferSize,
          "peer copy exceeds destination buffer");
  require(&dst.context() == ctx_, Status::kInvalidValue,
          "peer copy destination must belong to this queue's context");

  // Link cost: the installed topology model when one exists (direct P2P or
  // host-staged, its call), else conservative host staging priced by the
  // two endpoints' own host-link models.  Same-device pairs still go
  // through the model — a simulated multi-device rig may map several
  // contexts onto one spec entry.
  const Device& src_dev = src.context().device();
  const Device& dst_dev = ctx_->device();
  double dt = 0.0;
  double busy = -1.0;  // lane occupancy; -1 = full duration (no pipelining)
  if (const LinkModel* lm = link_model()) {
    dt = lm->peer_seconds(src_dev, dst_dev, bytes);
    busy = lm->peer_occupancy_seconds(src_dev, dst_dev, bytes);
  } else {
    dt = src_dev.model().transfer_seconds(bytes, TransferDir::kDeviceToHost) +
         dst_dev.model().transfer_seconds(bytes, TransferDir::kHostToDevice);
  }

  g_q_transfers.add(1);
  g_q_bytes_written.add(static_cast<std::int64_t>(bytes));

  Event e;
  e.kind = CommandKind::kPeerCopy;
  e.label = transfer_label("peer", dst.name(), bytes);
  e.bytes = bytes;
  std::function<void()> body;
  if (functional_) {
    body = [sptr = src.data() + src_offset, dbase = dst.data(), dst_offset,
            bytes] {
      copy_bytes(dbase + dst_offset, sptr, bytes);
      check::on_host_write(dbase, dst_offset, bytes);
    };
  }
  auto exec = [body = std::move(body), label = e.label,
               bytes]() -> std::uint64_t {
    const std::uint64_t t0 = scibench::now_ns();
    if (body) body();
    const std::uint64_t t1 = scibench::now_ns();
    if (obs::timed_metrics_enabled()) g_q_transfer_host_ns.record(t1 - t0);
    if (obs::tracing_enabled()) {
      // lint: raw-span-ok(complete event from already-measured t0/duration)
      obs::emit_complete_arg(label.c_str(), "queue:transfer", t0, t1 - t0,
                             "bytes", static_cast<double>(bytes));
    }
    return t1 - t0;
  };
  return submit(std::move(e), dt, wait, std::move(exec), busy);
}

Event Queue::device_side_op(CommandKind kind, std::string label,
                            std::size_t bytes, std::function<void()> body,
                            const std::span<const Event>* wait) {
  // Device-side moves run at global-memory bandwidth, not over the host
  // interconnect; model them as a streaming launch of the right size.
  WorkloadProfile p;
  p.bytes_read = static_cast<double>(bytes) / 2;
  p.bytes_written = static_cast<double>(bytes) / 2;
  p.working_set_bytes = static_cast<double>(bytes);
  p.pattern = AccessPattern::kStreaming;
  KernelLaunchStats stats{label, NDRange(std::max<std::size_t>(
                                     1, bytes / sizeof(float))),
                          p, kernels_since_sync_++};
  const double dt = device().model().kernel_seconds(stats);

  (kind == CommandKind::kCopy ? g_q_copies : g_q_fills).add(1);

  Event e;
  e.kind = kind;
  e.label = std::move(label);
  e.bytes = bytes;  // modeled device-memory traffic of the copy/fill
  e.energy_j = device().model().kernel_power_watts(stats) * dt;
  auto exec = [body = std::move(body)]() -> std::uint64_t {
    if (!body) return 0;
    const std::uint64_t t0 = scibench::now_ns();
    body();
    return scibench::now_ns() - t0;
  };
  return submit(std::move(e), dt, wait, std::move(exec));
}

double Queue::modeled_kernel_seconds() const noexcept {
  double s = 0.0;
  for (const Event& e : events_) {
    if (is_device_side(e.kind)) s += e.modeled_seconds();
  }
  return s;
}

double Queue::modeled_transfer_seconds() const noexcept {
  double s = 0.0;
  for (const Event& e : events_) {
    if (is_link_transfer(e.kind)) s += e.modeled_seconds();
  }
  return s;
}

double Queue::modeled_kernel_energy_j() const noexcept {
  double j = 0.0;
  for (const Event& e : events_) {
    if (is_device_side(e.kind)) j += e.energy_j;
  }
  return j;
}

double Queue::modeled_span_seconds() const noexcept {
  if (events_.empty()) return 0.0;
  double lo = events_.front().modeled_start_s;
  double hi = events_.front().modeled_end_s;
  for (const Event& e : events_) {
    lo = std::min(lo, e.modeled_start_s);
    hi = std::max(hi, e.modeled_end_s);
  }
  return hi - lo;
}

}  // namespace eod::xcl
