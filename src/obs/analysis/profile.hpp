// One-call run profiling: binds a run's artifacts (trace + manifest)
// together, resolves the modeled interconnect peak from the manifest's
// device, and produces the schedule profile.  This is what both the
// eod_prof CLI and the harness's in-process --profile flag call.
#pragma once

#include <string>

#include "obs/analysis/schedule.hpp"

namespace eod::prof {

struct ProfileInputs {
  /// Trace to analyze; when empty, resolved from the manifest's
  /// "trace_path" (relative paths are tried against the manifest's
  /// directory too).
  std::string trace_path;
  /// Optional manifest: provides run identity and the device whose
  /// DeviceSpec supplies the link-saturation peak.
  std::string manifest_path;
  /// Explicit interconnect peak override, GB/s; 0 = derive from manifest.
  double transfer_peak_gbs = 0.0;
};

struct ProfileReport {
  std::string benchmark;
  std::string device;
  std::string queue;
  std::string trace_path;  ///< the trace actually analyzed
  double transfer_peak_gbs = 0.0;
  ScheduleProfile schedule;

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_json() const;
};

/// Profiles one run from its artifacts.  Throws std::runtime_error when no
/// trace can be resolved, an artifact is malformed, or the trace's ring
/// dropped events (the message names the count).
[[nodiscard]] ProfileReport profile_run(const ProfileInputs& inputs);

}  // namespace eod::prof
