// Command queue with profiling (CL_QUEUE_PROFILING_ENABLE always on) and
// two execution modes (DESIGN.md §12):
//
//  * kInOrder (default) — commands execute in enqueue order, eagerly, and
//    the modeled device timeline is one contiguous chain: exactly the
//    paper's serial-stream behaviour.
//  * kOutOfOrder (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE analogue) — each
//    command's dependencies are its event wait list (or, when none is
//    given, *every* command enqueued before it — an implicit barrier, so
//    un-annotated code stays correct even after an explicit-DAG section
//    forked the pending graph).  Functional execution is deferred into a command DAG that a
//    topological scheduler drains over the work-stealing ThreadPool at
//    sync points (finish(), blocking reads, wait(), destruction), running
//    independent commands concurrently.  The modeled timeline advances per
//    dependency chain over two lanes — kernel-side work vs host-link
//    transfers (bandwidth from sim/device_spec) — so transfers genuinely
//    overlap compute in Event timestamps and the pid-2 device trace.
//
// Commands execute functionally on the host; their *modeled* duration
// advances the device's virtual timeline and is reported via Event.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xcl/buffer.hpp"
#include "xcl/context.hpp"
#include "xcl/event.hpp"
#include "xcl/executor.hpp"
#include "xcl/kernel.hpp"
#include "xcl/modeling.hpp"

namespace eod::xcl {

/// Queue execution mode (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE analogue).
enum class QueueMode : std::uint8_t { kInOrder, kOutOfOrder };

[[nodiscard]] const char* to_string(QueueMode mode) noexcept;
/// "inorder" | "in-order" | "ooo" | "out-of-order" -> mode; nullopt else.
[[nodiscard]] std::optional<QueueMode> parse_queue_mode(
    std::string_view name) noexcept;

/// Mode used by queues constructed without an explicit one.  kInOrder
/// unless the EOD_QUEUE environment variable says otherwise ("ooo" /
/// "out-of-order" / "inorder"): the no-recompile hatch the ooo-mode CI job
/// uses to run the whole suite out-of-order and flush hidden enqueue-order
/// assumptions.  Read once and cached.
[[nodiscard]] QueueMode default_queue_mode() noexcept;

class Queue {
 public:
  /// `mode` nullopt = default_queue_mode() (EOD_QUEUE-aware); an explicit
  /// mode always wins over the environment.
  explicit Queue(Context& ctx, std::optional<QueueMode> mode = std::nullopt);
  /// Drains any still-pending commands (clReleaseCommandQueue flushes).
  ~Queue();

  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  [[nodiscard]] Context& context() const noexcept { return *ctx_; }
  [[nodiscard]] const Device& device() const noexcept {
    return ctx_->device();
  }
  [[nodiscard]] QueueMode mode() const noexcept { return mode_; }

  /// Host -> device transfer (clEnqueueWriteBuffer).  The overload without
  /// a wait list is *blocking* (CL_TRUE): it depends on the implicit
  /// program-order chain and completes before returning, so callers may
  /// reuse `src` immediately (the pre-DAG contract).  With an explicit wait
  /// list the write is non-blocking in an out-of-order queue: the copy from
  /// `src` happens when the scheduler releases it, so the host memory must
  /// stay valid and unmodified until a sync point (the standard
  /// non-blocking clEnqueueWriteBuffer contract).
  template <typename T>
  Event enqueue_write(Buffer& dst, std::span<const T> src) {
    return write_bytes(dst, src.data(), 0, src.size_bytes(), nullptr);
  }
  template <typename T>
  Event enqueue_write(Buffer& dst, std::span<const T> src,
                      std::span<const Event> wait) {
    return write_bytes(dst, src.data(), 0, src.size_bytes(), &wait);
  }
  /// Sub-range write: `src` lands at elements [elem_offset, elem_offset +
  /// src.size()) of the buffer (clEnqueueWriteBuffer with a byte offset).
  /// Used by partitioned pipelines where each shard uploads only its stripe.
  template <typename T>
  Event enqueue_write(Buffer& dst, std::span<const T> src,
                      std::size_t elem_offset, std::span<const Event> wait) {
    return write_bytes(dst, src.data(), elem_offset * sizeof(T),
                       src.size_bytes(), &wait);
  }

  /// Device -> host transfer (clEnqueueReadBuffer).  Without a wait list
  /// the read is *blocking*: it drains its dependency chain and completes
  /// before returning, so `dst` is ready immediately (current callers'
  /// semantics).  With an explicit wait list the read is non-blocking in an
  /// out-of-order queue — `dst` is only valid after wait()/finish().
  template <typename T>
  Event enqueue_read(const Buffer& src, std::span<T> dst) {
    return read_bytes(src, dst.data(), 0, dst.size_bytes(), nullptr);
  }
  template <typename T>
  Event enqueue_read(const Buffer& src, std::span<T> dst,
                     std::span<const Event> wait) {
    return read_bytes(src, dst.data(), 0, dst.size_bytes(), &wait);
  }
  /// Sub-range read: elements [elem_offset, elem_offset + dst.size()) of
  /// the buffer (clEnqueueReadBuffer with a byte offset).  Used by tiled
  /// write-back pipelines where each tile's read waits only on its tile's
  /// kernel.
  template <typename T>
  Event enqueue_read(const Buffer& src, std::span<T> dst,
                     std::size_t elem_offset, std::span<const Event> wait) {
    return read_bytes(src, dst.data(), elem_offset * sizeof(T),
                      dst.size_bytes(), &wait);
  }

  /// Device-side fill (clEnqueueFillBuffer): replicates `value` across the
  /// buffer.  Timed as device-bandwidth work, not a PCIe transfer.
  template <typename T>
  Event enqueue_fill(Buffer& dst, const T& value) {
    return fill_impl(dst, value, nullptr);
  }
  template <typename T>
  Event enqueue_fill(Buffer& dst, const T& value,
                     std::span<const Event> wait) {
    return fill_impl(dst, value, &wait);
  }

  /// Device-to-device copy (clEnqueueCopyBuffer).
  Event enqueue_copy(const Buffer& src, Buffer& dst);
  Event enqueue_copy(const Buffer& src, Buffer& dst,
                     std::span<const Event> wait);

  /// Cross-device copy over the modeled interconnect (DESIGN.md §14):
  /// moves `bytes` from byte `src_offset` of `src` (a buffer of *any*
  /// context) into byte `dst_offset` of `dst`, which must belong to this
  /// queue's context.  Timed by the installed LinkModel — a direct P2P link
  /// traversal when the topology has one, host staging (source D2H + local
  /// H2D) otherwise — and placed on the modeled *transfer* lane, so an
  /// out-of-order queue overlaps halo exchanges with compute.  Wait-list
  /// events may come from the source device's queue; modeled time
  /// propagates across queues, so the copy cannot start before its producer
  /// finished on the remote timeline.
  Event enqueue_peer_copy(const Buffer& src, std::size_t src_offset,
                          Buffer& dst, std::size_t dst_offset,
                          std::size_t bytes);
  Event enqueue_peer_copy(const Buffer& src, std::size_t src_offset,
                          Buffer& dst, std::size_t dst_offset,
                          std::size_t bytes, std::span<const Event> wait);

  /// Kernel launch (clEnqueueNDRangeKernel).  `profile` characterizes the
  /// launch's work for the device timing model.
  Event enqueue(const Kernel& kernel, NDRange range,
                const WorkloadProfile& profile);
  Event enqueue(const Kernel& kernel, NDRange range,
                const WorkloadProfile& profile, std::span<const Event> wait);

  /// clWaitForEvents analogue: returns once the command behind `e` (and its
  /// transitive dependencies) has executed.  No-op for completed commands.
  void wait(const Event& e);

  /// clFinish analogue: drains every pending command, marks a host
  /// synchronisation point (resetting the modeled unflushed command depth)
  /// and returns the virtual timeline position — the queue's modeled
  /// *completion horizon* (max command end), i.e. the pipeline makespan in
  /// an out-of-order queue.
  double finish();

  /// When false, commands are modeled (timed, event-recorded) but not
  /// functionally executed: kernels do not run, and copies, fills, writes
  /// and reads move no bytes (a write leaves the buffer, a read leaves the
  /// host destination, as it was).  Each command keeps the mode it was
  /// enqueued under.  Used by device sweeps where results have already been
  /// validated once: the modeled timeline is identical, only the host-side
  /// work is skipped.  Defaults to true.
  void set_functional(bool f) noexcept { functional_ = f; }
  [[nodiscard]] bool functional() const noexcept { return functional_; }

  /// All events recorded since construction or reset, in modeled
  /// *completion* order (ties broken by enqueue order).  Each event carries
  /// its enqueue_index, so program order is always recoverable — figure
  /// drivers stay stable under out-of-order completion.
  [[nodiscard]] const std::vector<Event>& events() const;
  /// Number of commands recorded (cheaper than events().size(): no sort).
  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }
  /// Drains pending commands, then forgets all history.
  void clear_events();

  /// When enabled, every kernel launch's full KernelLaunchStats is kept
  /// (used by the workload characterizer).  Off by default.
  void set_record_launches(bool record) noexcept {
    record_launches_ = record;
  }
  [[nodiscard]] const std::vector<KernelLaunchStats>& launches()
      const noexcept {
    return launches_;
  }

  /// Host-side dispatch counters accumulated over this queue's functional
  /// kernel launches (deltas of the global executor counters around each
  /// enqueue — or around each graph drain in an out-of-order queue;
  /// meaningful while one queue launches at a time, as the harness does).
  /// arena_bytes_hwm is a maximum, the rest are sums.
  [[nodiscard]] const ExecutorStats& dispatch_stats() const noexcept {
    return dispatch_stats_;
  }

  /// Sum of modeled seconds of all device-side events — kernels plus
  /// device-bandwidth copies/fills (the "iteration time" the paper reports:
  /// total compute time across all kernels of a benchmark).
  [[nodiscard]] double modeled_kernel_seconds() const noexcept;
  /// Sum of modeled seconds of all host-link transfer events (write/read).
  [[nodiscard]] double modeled_transfer_seconds() const noexcept;
  /// Sum of modeled kernel energy in joules.
  [[nodiscard]] double modeled_kernel_energy_j() const noexcept;
  /// Modeled end-to-end makespan: latest command end minus earliest command
  /// start.  Equal to the duration sum in an in-order queue; smaller when
  /// an out-of-order queue overlaps transfers with compute.
  [[nodiscard]] double modeled_span_seconds() const noexcept;

  /// Internal: buffer-release barrier, reached via
  /// Context::drain_queues_for_buffer_release().  Executes any still-
  /// deferred commands so a releasing Buffer's storage cannot be touched
  /// afterwards; unlike finish() it is not a host synchronisation point
  /// (the modeled launch depth is untouched) and is a no-op on a queue
  /// with nothing pending — in-order queues never pay anything here.
  void drain_pending();

 private:
  /// Deferred command node: the functional work of one enqueue plus the
  /// in-queue dependency edges the scheduler honours when draining.
  struct PendingCmd {
    std::uint64_t id = 0;
    std::size_t event_index = 0;  ///< into events_ (host_ns backfill)
    std::vector<std::uint64_t> deps;  ///< pending in-queue dependency ids
    /// Functional work; returns host wall ns spent (backfilled into the
    /// event).  Runs on a ThreadPool worker when the wave has siblings.
    std::function<std::uint64_t()> exec;
  };

  Event launch(const Kernel& kernel, NDRange range,
               const WorkloadProfile& profile,
               const std::span<const Event>* wait);
  Event write_bytes(Buffer& dst, const void* src, std::size_t offset,
                    std::size_t bytes, const std::span<const Event>* wait);
  Event read_bytes(const Buffer& src, void* dst, std::size_t offset,
                   std::size_t bytes, const std::span<const Event>* wait);
  Event copy_impl(const Buffer& src, Buffer& dst,
                  const std::span<const Event>* wait);
  Event peer_copy_impl(const Buffer& src, std::size_t src_offset,
                       Buffer& dst, std::size_t dst_offset, std::size_t bytes,
                       const std::span<const Event>* wait);
  /// Copy/fill: modeled as a device-bandwidth streaming op on the kernel
  /// lane, with `body` as the deferred functional work.
  Event device_side_op(CommandKind kind, std::string label,
                       std::size_t bytes, std::function<void()> body,
                       const std::span<const Event>* wait);
  template <typename T>
  Event fill_impl(Buffer& dst, const T& value,
                  const std::span<const Event>* wait) {
    require(dst.bytes() % sizeof(T) == 0, Status::kInvalidValue,
            "fill pattern does not divide buffer size");
    auto view = dst.view<T>();
    std::function<void()> body;
    if (functional_) {
      body = [view, value] {
        for (auto& v : view) v = value;
      };
    }
    return device_side_op(CommandKind::kFill,
                          transfer_label("fill", dst.name(), dst.bytes()),
                          dst.bytes(), std::move(body), wait);
  }

  /// Validates a wait list (null events and forward references are
  /// rejected) and synchronously drains any *foreign* pending dependency,
  /// so cross-queue waits are satisfied before this command records.
  void resolve_wait_list(const std::span<const Event>* wait);
  /// Records the command's event (modeled placement on the right lane),
  /// then either runs `exec` eagerly (in-order queue, or while a checker
  /// session pins serial execution) or defers it into the pending graph.
  /// `occupancy_s` is how long the command keeps its lane busy; negative
  /// (the default) means the full `duration_s`.  Link transfers pass a
  /// smaller occupancy so back-to-back messages pipeline on the lane while
  /// each still completes after its full modeled latency (DESIGN.md §14).
  Event submit(Event e, double duration_s,
               const std::span<const Event>* wait,
               std::function<std::uint64_t()> exec,
               double occupancy_s = -1.0);
  /// Runs `target_id`'s transitive dependency closure (0 = everything) in
  /// topological waves over the ThreadPool; detects cycles defensively.
  void drain(std::uint64_t target_id);
  [[nodiscard]] bool has_pending(std::uint64_t id) const noexcept;
  /// True when functional execution must happen at enqueue time.
  [[nodiscard]] bool eager() const noexcept;

  /// Lane ids of this queue on the modeled-device trace track, allocated on
  /// first traced command.  Out-of-order queues mirror link transfers onto
  /// a second lane so overlap is visible in the viewer.
  std::uint32_t obs_lane();
  std::uint32_t obs_transfer_lane();
  /// Mirrors one command onto the pid-2 device track with the full DAG
  /// argument block: `wait` is the caller's wait list (edge ids), `busy_s`
  /// the lane occupancy submit() charged for it.
  void emit_device_span(const Event& e, const std::span<const Event>* wait,
                        double busy_s);

  Context* ctx_;
  QueueMode mode_ = QueueMode::kInOrder;
  std::uint32_t trace_queue_id_ = 0;  ///< process-wide queue sequence id
  double now_s_ = 0.0;  // completion horizon (max modeled command end)
  double chain_end_s_ = 0.0;     // end of the last-enqueued command
  double kernel_lane_end_s_ = 0.0;
  double transfer_lane_end_s_ = 0.0;
  bool functional_ = true;
  bool record_launches_ = false;
  std::size_t kernels_since_sync_ = 0;
  std::uint64_t next_enqueue_index_ = 0;
  std::int64_t obs_lane_ = -1;
  std::int64_t obs_transfer_lane_ = -1;
  std::vector<Event> events_;  // enqueue order (internal)
  mutable std::vector<Event> completion_order_;  // lazily sorted view
  mutable bool completion_dirty_ = false;
  std::vector<PendingCmd> pending_;  // enqueue order; drained at sync points
  std::vector<KernelLaunchStats> launches_;
  ExecutorStats dispatch_stats_;
};

}  // namespace eod::xcl
