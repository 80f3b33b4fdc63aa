#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "scibench/timer.hpp"

namespace eod::obs {

namespace detail {
bool g_tracing_enabled = false;
bool g_timed_metrics_enabled = false;
}  // namespace detail

namespace {

/// Events kept per thread before the ring wraps.  ~200 B each (the DAG
/// argument block roughly doubled the pre-profiler event), so the default
/// is ~25 MiB per active lane — enough for every tiny/small run while
/// bounding a runaway large trace.  Overridable via EOD_TRACE_EVENTS.
std::size_t ring_capacity() {
  static const std::size_t cap = [] {
    if (const char* env = std::getenv("EOD_TRACE_EVENTS")) {
      const unsigned long long v = std::strtoull(env, nullptr, 10);
      if (v >= 1024) return static_cast<std::size_t>(v);
    }
    return std::size_t{1} << 17;
  }();
  return cap;
}

/// One host lane: a ring of events owned by one thread.  The mutex is
/// normally uncontended (only its owner appends); the flusher takes it to
/// read a consistent snapshot, which makes the recorder clean under tsan.
struct Lane {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::uint64_t total = 0;  ///< events ever emitted (>= ring.size() => wrap)
  std::uint32_t tid = 0;
  std::string name;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Lane>> lanes;     ///< every host lane ever made
  std::vector<std::string> device_lanes;        ///< names; tid = index
  std::uint32_t next_tid = 1;
  std::uint64_t origin_ns = 0;  ///< host rebase point (set on enable)
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: lanes outlive thread exit
  return *r;
}

Lane& thread_lane() {
  thread_local std::shared_ptr<Lane> lane = [] {
    auto l = std::make_shared<Lane>();
    Registry& r = registry();
    std::scoped_lock lock(r.mu);
    l->tid = r.next_tid++;
    r.lanes.push_back(l);
    return l;
  }();
  return *lane;
}

void append(Lane& lane, const TraceEvent& e) {
  std::scoped_lock lock(lane.mu);
  if (lane.ring.empty()) lane.ring.resize(ring_capacity());
  lane.ring[lane.total % lane.ring.size()] = e;
  ++lane.total;
}

void fill_name(TraceEvent& e, const char* name) {
  std::strncpy(e.name, name, sizeof(e.name) - 1);
}

void fill_arg(TraceEvent& e, const char* arg_name, double arg_value) {
  std::strncpy(e.arg_name, arg_name, sizeof(e.arg_name) - 1);
  e.arg_value = arg_value;
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void write_event_json(std::string& out, const TraceEvent& e,
                      std::uint64_t host_origin_ns) {
  // Host timestamps are rebased to the enable point; device-lane events
  // already live on their own modeled timeline starting at zero.
  const std::uint64_t ts =
      e.pid == kDevicePid
          ? e.ts_ns
          : (e.ts_ns >= host_origin_ns ? e.ts_ns - host_origin_ns : 0);
  char buf[224];  // sized for the widest args block (DAG fields, %.17g)
  out += "{\"name\":\"";
  json_escape_into(out, e.name);
  out += "\",\"cat\":\"";
  json_escape_into(out, e.cat);
  std::snprintf(buf, sizeof(buf),
                "\",\"ph\":\"%c\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f", e.ph,
                e.pid, e.tid, static_cast<double>(ts) / 1e3);
  out += buf;
  if (e.ph == kPhaseComplete) {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1e3);
    out += buf;
  }
  if (e.ph == kPhaseCounter) {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.17g}",
                  e.arg_value);
    out += buf;
  } else if (e.cmd_id != 0) {
    // Device-command span: the DAG argument block.  "deps" carries the
    // command's wait-list ids; "barrier" marks same-queue total ordering
    // (in-order chain / ooo implicit barrier); "busy_ns" is the lane
    // occupancy when shorter than the duration (pipelined link transfers).
    std::snprintf(buf, sizeof(buf),
                  ",\"args\":{\"energy_j\":%.17g,\"cmd\":%llu,\"q\":%u,"
                  "\"barrier\":%u,\"busy_ns\":%llu,\"bytes\":%llu,"
                  "\"deps\":[",
                  e.arg_value, static_cast<unsigned long long>(e.cmd_id),
                  e.queue_id, e.barrier ? 1u : 0u,
                  static_cast<unsigned long long>(e.busy_ns),
                  static_cast<unsigned long long>(e.bytes));
    out += buf;
    for (std::uint32_t i = 0; i < e.dep_count && i < kTraceDepCap; ++i) {
      std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : ",",
                    static_cast<unsigned long long>(e.deps[i]));
      out += buf;
    }
    out += "]}";
  } else if (e.arg_name[0] != '\0') {
    out += ",\"args\":{\"";
    json_escape_into(out, e.arg_name);
    std::snprintf(buf, sizeof(buf), "\":%.17g}", e.arg_value);
    out += buf;
  }
  out += '}';
}

void write_metadata_json(std::string& out, std::uint32_t pid,
                         std::uint32_t tid, const char* kind,
                         const std::string& name) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                "\"args\":{\"name\":\"",
                kind, pid, tid);
  out += buf;
  json_escape_into(out, name.c_str());
  out += "\"}}";
}

}  // namespace

void set_tracing_enabled(bool enabled) noexcept {
  if (enabled && !detail::g_tracing_enabled) {
    registry().origin_ns = scibench::now_ns();
  }
  detail::g_tracing_enabled = enabled;
}

void set_timed_metrics(bool enabled) noexcept {
  detail::g_timed_metrics_enabled = enabled;
}

std::uint64_t trace_clock_ns() noexcept { return scibench::now_ns(); }

void emit_complete(const char* name, const char* cat, std::uint64_t start_ns,
                   std::uint64_t dur_ns) {
  TraceEvent e;
  fill_name(e, name);
  e.cat = cat;
  e.ph = kPhaseComplete;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  Lane& lane = thread_lane();
  e.tid = lane.tid;
  append(lane, e);
}

void emit_complete_arg(const char* name, const char* cat,
                       std::uint64_t start_ns, std::uint64_t dur_ns,
                       const char* arg_name, double arg_value) {
  TraceEvent e;
  fill_name(e, name);
  e.cat = cat;
  e.ph = kPhaseComplete;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  fill_arg(e, arg_name, arg_value);
  Lane& lane = thread_lane();
  e.tid = lane.tid;
  append(lane, e);
}

void emit_complete_on(std::uint32_t pid, std::uint32_t tid, const char* name,
                      const char* cat, std::uint64_t start_ns,
                      std::uint64_t dur_ns, const char* arg_name,
                      double arg_value) {
  TraceEvent e;
  fill_name(e, name);
  e.cat = cat;
  e.ph = kPhaseComplete;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  if (arg_name != nullptr) fill_arg(e, arg_name, arg_value);
  append(thread_lane(), e);
}

void emit_command_span(std::uint32_t tid, const char* name, const char* cat,
                       std::uint64_t start_ns, std::uint64_t dur_ns,
                       const CommandSpanArgs& args) {
  TraceEvent e;
  fill_name(e, name);
  e.cat = cat;
  e.ph = kPhaseComplete;
  e.pid = kDevicePid;
  e.tid = tid;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  fill_arg(e, "energy_j", args.energy_j);
  e.cmd_id = args.cmd_id;
  e.queue_id = args.queue_id;
  e.barrier = args.barrier;
  e.busy_ns = args.busy_ns;
  e.bytes = args.bytes;
  e.dep_count = std::min<std::uint32_t>(args.dep_count, kTraceDepCap);
  for (std::uint32_t i = 0; i < e.dep_count; ++i) e.deps[i] = args.deps[i];
  append(thread_lane(), e);
}

void emit_instant(const char* name, const char* cat) {
  TraceEvent e;
  fill_name(e, name);
  e.cat = cat;
  e.ph = kPhaseInstant;
  e.ts_ns = trace_clock_ns();
  Lane& lane = thread_lane();
  e.tid = lane.tid;
  append(lane, e);
}

void emit_counter(const char* name, double value) {
  TraceEvent e;
  fill_name(e, name);
  e.cat = "counter";
  e.ph = kPhaseCounter;
  e.ts_ns = trace_clock_ns();
  e.arg_value = value;
  Lane& lane = thread_lane();
  e.tid = lane.tid;
  append(lane, e);
}

void set_thread_lane_name(const char* name) {
  Lane& lane = thread_lane();
  std::scoped_lock lock(lane.mu);
  if (lane.name.empty()) lane.name = name;
}

std::uint32_t alloc_device_lane(const std::string& name) {
  Registry& r = registry();
  std::scoped_lock lock(r.mu);
  r.device_lanes.push_back(name);
  return static_cast<std::uint32_t>(r.device_lanes.size() - 1);
}

std::uint64_t trace_events_recorded() noexcept {
  Registry& r = registry();
  std::scoped_lock lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& lane : r.lanes) {
    std::scoped_lock lane_lock(lane->mu);
    total += lane->total;
  }
  return total;
}

std::uint64_t trace_events_dropped() noexcept {
  Registry& r = registry();
  std::scoped_lock lock(r.mu);
  std::uint64_t dropped = 0;
  for (const auto& lane : r.lanes) {
    std::scoped_lock lane_lock(lane->mu);
    if (!lane->ring.empty() && lane->total > lane->ring.size()) {
      dropped += lane->total - lane->ring.size();
    }
  }
  return dropped;
}

bool write_chrome_trace(const std::string& path) {
  Registry& r = registry();
  std::string out;
  out.reserve(std::size_t{1} << 20);
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  std::scoped_lock lock(r.mu);
  comma();
  write_metadata_json(out, kHostPid, 0, "process_name", "host");
  comma();
  write_metadata_json(out, kDevicePid, 0, "process_name",
                      "device (modeled)");
  for (std::size_t d = 0; d < r.device_lanes.size(); ++d) {
    comma();
    write_metadata_json(out, kDevicePid, static_cast<std::uint32_t>(d),
                        "thread_name", r.device_lanes[d]);
  }
  for (const auto& lane : r.lanes) {
    std::scoped_lock lane_lock(lane->mu);
    if (lane->total == 0) continue;
    comma();
    write_metadata_json(
        out, kHostPid, lane->tid, "thread_name",
        lane->name.empty() ? "thread-" + std::to_string(lane->tid)
                           : lane->name);
    // Ring order: when wrapped, the oldest surviving event sits at
    // total % size.  A wrapped lane says how many events it lost, so a
    // reader can refuse the truncated trace.
    const std::size_t size = lane->ring.size();
    const std::size_t kept = std::min<std::uint64_t>(lane->total, size);
    if (lane->total > size) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"trace_events_dropped\",\"ph\":\"M\","
                    "\"pid\":%u,\"tid\":%u,\"args\":{\"dropped\":%llu}}",
                    kHostPid, lane->tid,
                    static_cast<unsigned long long>(lane->total - size));
      comma();
      out += buf;
    }
    const std::size_t start =
        lane->total > size ? lane->total % size : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      comma();
      write_event_json(out, lane->ring[(start + i) % size], r.origin_ns);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out;
  return f.good();
}

void reset_tracing() {
  Registry& r = registry();
  std::scoped_lock lock(r.mu);
  for (const auto& lane : r.lanes) {
    std::scoped_lock lane_lock(lane->mu);
    lane->total = 0;
  }
  r.device_lanes.clear();
  r.origin_ns = scibench::now_ns();
}

std::string env_trace_path() {
  const char* env = std::getenv("EOD_TRACE");
  if (env == nullptr || env[0] == '\0' ||
      (env[0] == '0' && env[1] == '\0')) {
    return {};
  }
  if (env[0] == '1' && env[1] == '\0') return "eod_trace.json";
  return env;
}

}  // namespace eod::obs
