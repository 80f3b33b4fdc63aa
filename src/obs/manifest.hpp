// Run manifest (DESIGN.md §11): a machine-readable, self-describing record
// of one measurement — what ran, where, with what configuration, what came
// out, and where the companion artifacts (trace, metrics) live.  Modeled on
// the self-describing run artifacts GEMMbench and the HPCC FPGA suite argue
// reproducible benchmarking requires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace eod::obs {

struct RunManifest {
  // Identity: what was measured.
  std::string benchmark;
  std::string size;
  std::string device;
  /// Every device participating in the run: the single measured device for
  /// ordinary runs, the full --devices set (in CLI order) for partitioned
  /// multi-device runs (DESIGN.md §14).
  std::vector<std::string> devices;
  std::string dispatch;  ///< kernel tier the functional pass ran under
  /// Value of the EOD_DISPATCH env hatch at measurement time (empty when
  /// unset); recorded so a manifest can distinguish "tier chosen by flag"
  /// from "tier pinned by the environment".
  std::string dispatch_env;
  std::string queue;  ///< queue mode ("inorder" | "ooo")
  std::uint64_t seed = 0;

  // Provenance.
  std::string git_describe;  ///< `git describe --always --dirty` or "unknown"
  std::string timestamp;     ///< ISO-8601 UTC wall time of the write

  // Sample statistics of the measurement group.
  std::size_t samples = 0;
  std::size_t loop_iterations = 0;
  double time_mean_ms = 0.0;
  double time_median_ms = 0.0;
  double time_cov = 0.0;
  double energy_median_j = 0.0;
  bool validated = false;
  bool validation_ok = false;

  // Companion artifacts (empty = not written).  These are the *final*
  // collision-suffixed paths (see unique_artifact_path), so the manifest is
  // the one authoritative pointer to where the run's files actually landed.
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;  ///< eod_prof report written by --profile
  /// Trace events the per-thread rings overwrote before trace_path was
  /// written (obs::trace_events_dropped()); nonzero means the trace is
  /// missing its oldest spans.
  std::uint64_t trace_events_dropped = 0;

  /// Serialises the manifest (embedding `metrics` under "metrics") to
  /// `path`.  Returns false when the file cannot be written.
  bool write_json(const std::string& path,
                  const MetricsSnapshot& metrics) const;

  [[nodiscard]] std::string to_json(const MetricsSnapshot& metrics) const;
};

/// Makes a requested artifact path collision-safe: inserts ".<pid>.<n>"
/// before the filename's extension (appends it when there is none), where
/// <n> is a process-wide monotonic run counter.  Two concurrent processes —
/// or two measurement groups in one process — asked to write the same
/// --trace path then land on distinct files instead of clobbering each
/// other; the final path is recorded in the manifest.
/// "trace.json" → "trace.12345.0.json".  Empty stays empty.
[[nodiscard]] std::string unique_artifact_path(const std::string& requested);

/// Result of `git describe --always --dirty` in the current directory,
/// cached for the process; "unknown" when git or the repo is unavailable.
[[nodiscard]] const std::string& git_describe();

/// Current UTC wall time as "YYYY-MM-DDTHH:MM:SSZ".
[[nodiscard]] std::string utc_timestamp();

}  // namespace eod::obs
