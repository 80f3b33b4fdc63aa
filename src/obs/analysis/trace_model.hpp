// Parsed-back trace model (DESIGN.md §16).  write_chrome_trace emits Chrome
// trace_event JSON; this module reconstructs the device-command DAG from
// that artifact *alone* — every edge is recoverable from the span args
// ("cmd", "q", "barrier", "deps"), no in-process state required.  This is
// what lets eod_prof profile a run after the fact, on another machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analysis/json.hpp"

namespace eod::prof {

/// One device-side command span recovered from a pid-2 "X" event carrying a
/// "cmd" arg.  Times are integer nanoseconds on the modeled device timeline
/// (the writer renders ns as µs with three decimals, so the round-trip is
/// exact).
struct TraceCommand {
  std::uint64_t id = 0;       ///< xcl::Event::id — globally unique, id order
                              ///< is issue order (wait lists point backward)
  std::uint32_t queue = 0;    ///< trace queue id ("q" arg)
  std::uint32_t tid = 0;      ///< device lane the span was drawn on
  std::string name;           ///< event label (kernel / transfer label)
  std::string cat;            ///< "device:kernel" | "device:transfer" | ...
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;   ///< modeled latency (span width)
  std::uint64_t busy_ns = 0;  ///< lane occupancy; < dur_ns for pipelined
                              ///< link transfers, == dur_ns otherwise
  std::uint64_t bytes = 0;    ///< payload of transfers/copies/fills, 0 else
  double energy_j = 0.0;
  bool barrier = false;  ///< orders against *all* prior same-queue commands
  std::vector<std::uint64_t> deps;  ///< explicit wait-list command ids

  [[nodiscard]] std::uint64_t end_ns() const noexcept {
    return start_ns + dur_ns;
  }
  /// When the lane frees up: start + busy for pipelined transfers.
  [[nodiscard]] std::uint64_t busy_end_ns() const noexcept {
    return start_ns + (busy_ns != 0 ? busy_ns : dur_ns);
  }
  [[nodiscard]] std::uint64_t occupancy_ns() const noexcept {
    return busy_ns != 0 ? busy_ns : dur_ns;
  }
  [[nodiscard]] bool is_kernel() const noexcept {
    return cat == "device:kernel";
  }
  /// Link transfers move bytes across the modeled interconnect (writes,
  /// reads, peer copies) — the spans that saturate sim::Interconnect.
  [[nodiscard]] bool is_link_transfer() const noexcept {
    return cat == "device:transfer" || cat == "device:peer";
  }
};

/// One named lane (host thread or modeled device/link lane).
struct TraceLane {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;
};

/// Everything the profiler needs from one trace file.
struct TraceDoc {
  std::vector<TraceLane> lanes;          ///< from "M" thread_name metadata
  std::vector<TraceCommand> commands;    ///< device commands, sorted by id
  std::size_t host_events = 0;           ///< pid-1 "X" span count (context)
  std::uint64_t events_dropped = 0;      ///< lost to wrapped lane rings

  /// Lane name for (pid, tid), or "pid<p>.tid<t>" when unnamed.
  [[nodiscard]] std::string lane_name(std::uint32_t pid,
                                      std::uint32_t tid) const;
};

/// Extracts the command DAG from a parsed Chrome trace document.  Throws
/// std::runtime_error when the document lacks "traceEvents" or a command
/// span is malformed (missing "cmd", duplicate id).
[[nodiscard]] TraceDoc parse_trace(const Json& doc);

/// load_json + parse_trace.
[[nodiscard]] TraceDoc load_trace(const std::string& path);

}  // namespace eod::prof
