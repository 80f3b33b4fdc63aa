#include "obs/analysis/profile.hpp"

#include <filesystem>
#include <stdexcept>
#include <string>

#include "obs/analysis/json.hpp"
#include "sim/device_spec.hpp"

namespace eod::prof {

ProfileReport profile_run(const ProfileInputs& inputs) {
  namespace fs = std::filesystem;
  ProfileReport report;
  report.trace_path = inputs.trace_path;
  report.transfer_peak_gbs = inputs.transfer_peak_gbs;

  if (!inputs.manifest_path.empty()) {
    const Json manifest = load_json(inputs.manifest_path);
    report.benchmark = manifest.string_or("benchmark", "");
    report.device = manifest.string_or("device", "");
    report.queue = manifest.string_or("queue", "");
    if (report.trace_path.empty()) {
      report.trace_path = manifest.string_or("trace_path", "");
      // The manifest records the path as the run saw it; when the CLI runs
      // from elsewhere, retry relative to the manifest's own directory.
      if (!report.trace_path.empty() && !fs::exists(report.trace_path)) {
        const fs::path sibling =
            fs::path(inputs.manifest_path).parent_path() / report.trace_path;
        if (fs::exists(sibling)) report.trace_path = sibling.string();
      }
    }
    if (report.transfer_peak_gbs <= 0.0 && !report.device.empty()) {
      try {
        report.transfer_peak_gbs =
            sim::spec_by_name(report.device).transfer_bandwidth_gbs;
      } catch (const std::invalid_argument&) {
        // Unknown device (e.g. "host"): saturation stays unreported.
      }
    }
  }
  if (report.trace_path.empty()) {
    throw std::runtime_error(
        "no trace to profile: pass a trace path or a manifest whose "
        "trace_path is set");
  }
  ScheduleOptions options;
  options.transfer_peak_gbs = report.transfer_peak_gbs;
  const TraceDoc doc = load_trace(report.trace_path);
  // Edges into dropped commands cannot be recovered, so a schedule over a
  // truncated trace would be silently wrong.
  if (doc.events_dropped != 0) {
    throw std::runtime_error(
        report.trace_path + " is truncated: its trace ring dropped " +
        std::to_string(doc.events_dropped) +
        " events; re-run with a larger EOD_TRACE_EVENTS");
  }
  report.schedule = analyze_schedule(doc, options);
  return report;
}

std::string ProfileReport::to_text() const {
  std::string out;
  if (!benchmark.empty()) {
    out += "run: " + benchmark + " on " + device + " (queue " + queue +
           ")\n";
  }
  out += "trace: " + trace_path + "\n\n";
  out += schedule.to_text();
  return out;
}

std::string ProfileReport::to_json() const {
  std::string out = "{\n";
  out += "  \"benchmark\": \"" + benchmark + "\",\n";
  out += "  \"device\": \"" + device + "\",\n";
  out += "  \"queue\": \"" + queue + "\",\n";
  out += "  \"trace_path\": \"" + trace_path + "\",\n";
  std::string schedule_json = schedule.to_json();
  // Splice the schedule object in as the "schedule" member.
  out += "  \"schedule\": " + schedule_json;
  if (!out.empty() && out.back() == '\n') out.pop_back();
  out += "\n}\n";
  return out;
}

}  // namespace eod::prof
