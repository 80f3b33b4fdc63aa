// Process-wide trace recording in Chrome trace_event format (DESIGN.md §11).
//
// The recorder is built for the hot dispatch path: emission is a relaxed
// enabled-flag check when tracing is off (a single atomic load, no branch
// taken), and when on, one fixed-size TraceEvent copied into a per-thread
// ring buffer behind that thread's private (uncontended) mutex — no heap
// allocation, no global lock, no formatting.  Buffers are only walked when
// the run finishes and `write_chrome_trace()` serialises everything into one
// JSON file loadable in chrome://tracing or Perfetto.
//
// Two timelines coexist in one trace:
//   * pid 1 ("host") — real wall-clock lanes, one per OS thread (executor
//     workers, the measuring caller), timestamped with scibench::now_ns().
//   * pid 2 ("device (modeled)") — the virtual device timeline a Queue
//     advances, one lane per queue, timestamped with the modeled start/end
//     seconds of each command.  The two pids render as separate processes,
//     so the wildly different timebases never overlap.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace eod::obs {

/// Trace-viewer process ids for the two timelines.
inline constexpr std::uint32_t kHostPid = 1;
inline constexpr std::uint32_t kDevicePid = 2;

/// Chrome trace_event phases used by the recorder.
inline constexpr char kPhaseComplete = 'X';
inline constexpr char kPhaseInstant = 'i';
inline constexpr char kPhaseCounter = 'C';

/// Wait-list ids carried per device-command span.  Longer wait lists are
/// truncated (none in the tree today exceed this); the `barrier` flag still
/// recovers same-queue ordering for any dropped edge.
inline constexpr std::size_t kTraceDepCap = 8;

/// One recorded event.  Fixed-size so ring-buffer writes never allocate;
/// names are truncated copies, safe regardless of the caller's lifetime.
struct TraceEvent {
  char name[56] = {};
  const char* cat = "";  ///< static-string category ("executor", "queue", …)
  char ph = kPhaseComplete;
  std::uint32_t pid = kHostPid;
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;   ///< host: absolute now_ns(); device: modeled ns
  std::uint64_t dur_ns = 0;  ///< complete events only
  char arg_name[16] = {};    ///< optional single numeric argument
  double arg_value = 0.0;
  // Command-DAG args, set only on modeled device-command spans (cmd_id != 0
  // is the discriminant).  Serialised into the Chrome event's "args" so the
  // command graph — nodes, wait-list edges, barrier ordering, lane
  // occupancy — is recoverable from the artifact alone (eod_prof's input).
  std::uint64_t cmd_id = 0;     ///< process-wide xcl::Event id
  std::uint64_t busy_ns = 0;    ///< lane occupancy; 0 = the full dur_ns
  std::uint64_t bytes = 0;      ///< payload of transfer/copy/fill commands
  std::uint64_t deps[kTraceDepCap] = {};  ///< wait-list command ids
  std::uint32_t queue_id = 0;   ///< owning queue's process-wide sequence id
  std::uint32_t dep_count = 0;  ///< ids recorded in deps[]
  bool barrier = false;  ///< also ordered after every prior same-queue cmd
};

/// Argument block for one modeled device-command span (see emit_command_span).
struct CommandSpanArgs {
  std::uint64_t cmd_id = 0;
  std::uint32_t queue_id = 0;
  bool barrier = false;
  std::uint64_t busy_ns = 0;  ///< 0 = lane busy for the full duration
  std::uint64_t bytes = 0;
  double energy_j = 0.0;
  std::uint32_t dep_count = 0;
  std::uint64_t deps[kTraceDepCap] = {};
};

namespace detail {
extern bool g_tracing_enabled;  // written only while no emitters run
extern bool g_timed_metrics_enabled;
}  // namespace detail

/// Fast-path check every instrumentation point guards on.  Plain bool:
/// toggled between runs (CLI flags / env), never concurrently with emission.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled;
}
void set_tracing_enabled(bool enabled) noexcept;

/// Gates metric instrumentation that needs extra clock reads on otherwise
/// clock-free paths (e.g. executor steal latency).  Enabled alongside
/// tracing or --metrics so a plain run pays nothing.
[[nodiscard]] inline bool timed_metrics_enabled() noexcept {
  return detail::g_timed_metrics_enabled;
}
void set_timed_metrics(bool enabled) noexcept;

/// Monotonic host timestamp (scibench::now_ns domain).
[[nodiscard]] std::uint64_t trace_clock_ns() noexcept;

/// Records a complete ('X') span on the calling thread's host lane.
void emit_complete(const char* name, const char* cat, std::uint64_t start_ns,
                   std::uint64_t dur_ns);
/// Same, with one numeric argument rendered into the event's "args".
void emit_complete_arg(const char* name, const char* cat,
                       std::uint64_t start_ns, std::uint64_t dur_ns,
                       const char* arg_name, double arg_value);
/// Records a complete span on an explicit (pid, tid) lane — used for the
/// modeled-device timeline (pid kDevicePid).
void emit_complete_on(std::uint32_t pid, std::uint32_t tid, const char* name,
                      const char* cat, std::uint64_t start_ns,
                      std::uint64_t dur_ns, const char* arg_name,
                      double arg_value);
/// Records one device-command span on a kDevicePid lane, carrying the full
/// command-DAG argument block (command id, queue id, wait-list ids, barrier
/// flag, lane occupancy, payload bytes, energy) in the event's "args".
void emit_command_span(std::uint32_t tid, const char* name, const char* cat,
                       std::uint64_t start_ns, std::uint64_t dur_ns,
                       const CommandSpanArgs& args);
/// Instant event on the calling thread's host lane.
void emit_instant(const char* name, const char* cat);
/// Counter sample (renders as a stacked counter track in the viewer).
void emit_counter(const char* name, double value);

/// Names the calling thread's host lane (e.g. "pool-worker-3").  The first
/// non-empty name sticks; cheap to call unconditionally on thread start.
void set_thread_lane_name(const char* name);

/// Allocates a fresh lane id on the modeled-device pid and names it.
[[nodiscard]] std::uint32_t alloc_device_lane(const std::string& name);

/// Events recorded / dropped (ring overwrote them) since the last reset.
[[nodiscard]] std::uint64_t trace_events_recorded() noexcept;
[[nodiscard]] std::uint64_t trace_events_dropped() noexcept;

/// Serialises every thread's buffered events (plus process/thread metadata)
/// as Chrome trace JSON.  A lane whose ring wrapped also gets a
/// "trace_events_dropped" metadata event whose args.dropped is the number
/// of events it lost.  Host timestamps are rebased so the earliest host
/// event starts near zero; device-lane timestamps are kept as modeled ns.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Drops all buffered events and lane metadata (device lanes included) so
/// consecutive measurements can produce independent traces.
void reset_tracing();

/// The trace path requested by the EOD_TRACE environment escape hatch:
/// unset/"0"/"" → empty; "1" → "eod_trace.json"; anything else is taken as
/// the output path itself.
[[nodiscard]] std::string env_trace_path();

/// RAII complete-span guard.  Costs one enabled check when tracing is off.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat) {
    if (tracing_enabled()) {
      name_ = name;
      cat_ = cat;
      start_ = trace_clock_ns();
      active_ = true;
    }
  }
  /// Span with one numeric argument attached at close.
  TraceSpan(const char* name, const char* cat, const char* arg_name,
            double arg_value)
      : TraceSpan(name, cat) {
    arg_name_ = arg_name;
    arg_value_ = arg_value;
  }
  ~TraceSpan() {
    if (!active_) return;
    const std::uint64_t dur = trace_clock_ns() - start_;
    if (arg_name_ != nullptr) {
      emit_complete_arg(name_, cat_, start_, dur, arg_name_, arg_value_);
    } else {
      emit_complete(name_, cat_, start_, dur);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches/overrides the numeric argument before the span closes.
  void set_arg(const char* name, double value) noexcept {
    arg_name_ = name;
    arg_value_ = value;
  }

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  const char* arg_name_ = nullptr;
  double arg_value_ = 0.0;
  std::uint64_t start_ = 0;
  bool active_ = false;
};

}  // namespace eod::obs
