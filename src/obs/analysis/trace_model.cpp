#include "obs/analysis/trace_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace eod::prof {

namespace {

/// Chrome "ts"/"dur" are µs doubles the writer produced from integer ns
/// with three decimals; round back to the exact nanosecond.
std::uint64_t us_to_ns(double us) {
  return static_cast<std::uint64_t>(std::llround(us * 1e3));
}

constexpr std::uint32_t kDevicePid = 2;

}  // namespace

std::string TraceDoc::lane_name(std::uint32_t pid, std::uint32_t tid) const {
  for (const TraceLane& l : lanes) {
    if (l.pid == pid && l.tid == tid) return l.name;
  }
  return "pid" + std::to_string(pid) + ".tid" + std::to_string(tid);
}

TraceDoc parse_trace(const Json& doc) {
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace: missing traceEvents array");
  }
  TraceDoc out;
  std::unordered_set<std::uint64_t> seen_ids;
  for (const Json& e : events->array) {
    if (!e.is_object()) continue;
    const std::string ph = e.string_or("ph", "");
    const auto pid = static_cast<std::uint32_t>(e.number_or("pid", 0));
    const auto tid = static_cast<std::uint32_t>(e.number_or("tid", 0));
    if (ph == "M") {
      const std::string kind = e.string_or("name", "");
      const Json* args = e.find("args");
      if (args == nullptr) continue;
      if (kind == "thread_name") {
        out.lanes.push_back({pid, tid, args->string_or("name", "")});
      } else if (kind == "trace_events_dropped") {
        out.events_dropped +=
            static_cast<std::uint64_t>(args->number_or("dropped", 0.0));
      }
      continue;
    }
    if (ph != "X") continue;
    const Json* args = e.find("args");
    const Json* cmd = args != nullptr ? args->find("cmd") : nullptr;
    if (pid != kDevicePid || cmd == nullptr) {
      ++out.host_events;
      continue;
    }
    TraceCommand c;
    c.id = static_cast<std::uint64_t>(cmd->number);
    if (c.id == 0) throw std::runtime_error("trace: command with id 0");
    if (!seen_ids.insert(c.id).second) {
      throw std::runtime_error("trace: duplicate command id " +
                               std::to_string(c.id));
    }
    c.queue = static_cast<std::uint32_t>(args->number_or("q", 0));
    c.tid = tid;
    c.name = e.string_or("name", "");
    c.cat = e.string_or("cat", "");
    c.start_ns = us_to_ns(e.number_or("ts", 0.0));
    c.dur_ns = us_to_ns(e.number_or("dur", 0.0));
    c.busy_ns = static_cast<std::uint64_t>(args->number_or("busy_ns", 0.0));
    c.bytes = static_cast<std::uint64_t>(args->number_or("bytes", 0.0));
    c.energy_j = args->number_or("energy_j", 0.0);
    c.barrier = args->number_or("barrier", 0.0) != 0.0;
    if (const Json* deps = args->find("deps");
        deps != nullptr && deps->is_array()) {
      c.deps.reserve(deps->array.size());
      for (const Json& d : deps->array) {
        c.deps.push_back(static_cast<std::uint64_t>(d.number));
      }
    }
    out.commands.push_back(std::move(c));
  }
  // Id order is issue order (xcl hands out ids from one process-wide
  // counter and wait lists only point backward), which makes it a
  // topological order of the DAG — every analysis pass relies on this.
  std::sort(out.commands.begin(), out.commands.end(),
            [](const TraceCommand& a, const TraceCommand& b) {
              return a.id < b.id;
            });
  return out;
}

TraceDoc load_trace(const std::string& path) {
  return parse_trace(load_json(path));
}

}  // namespace eod::prof
