#include "obs/manifest.hpp"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <fstream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace eod::obs {

std::string unique_artifact_path(const std::string& requested) {
  if (requested.empty()) return requested;
  // Uniqueness only needs atomicity of the increment, not ordering.
  static std::atomic<std::uint64_t> run_counter{0};
  const std::uint64_t n =
      run_counter.fetch_add(1, std::memory_order_relaxed);
#if defined(_WIN32)
  const long pid = 0;
#else
  const long pid = static_cast<long>(getpid());
#endif
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".%ld.%llu", pid,
                static_cast<unsigned long long>(n));
  // Insert before the extension of the *filename* component, so directory
  // names containing dots are never split.
  const std::size_t slash = requested.find_last_of("/\\");
  const std::size_t dot = requested.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return requested + suffix;
  }
  return requested.substr(0, dot) + suffix + requested.substr(dot);
}

const std::string& git_describe() {
  static const std::string desc = [] {
    std::string out = "unknown";
#if !defined(_WIN32)
    // Best-effort provenance: works when the binary runs from inside the
    // repo checkout; silently falls back otherwise.
    if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
      char buf[128] = {};
      if (std::fgets(buf, sizeof(buf), p) != nullptr) {
        std::string s(buf);
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
          s.pop_back();
        }
        if (!s.empty()) out = s;
      }
      pclose(p);
    }
#endif
    return out;
  }();
  return desc;
}

const std::string& host_thp_mode() {
  static const std::string mode = [] {
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string line;
    if (!std::getline(in, line) || line.empty()) line = "unavailable";
    return line;
  }();
  return mode;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string RunManifest::to_json(const MetricsSnapshot& metrics) const {
  auto str = [](const std::string& s) { return '"' + json_escape(s) + '"'; };
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string out = "{\n";
  out += "  \"benchmark\": " + str(benchmark) + ",\n";
  out += "  \"size\": " + str(size) + ",\n";
  out += "  \"device\": " + str(device) + ",\n";
  out += "  \"devices\": [";
  for (std::size_t i = 0; i < devices.size(); ++i) {
    out += (i == 0 ? "" : ", ") + str(devices[i]);
  }
  out += "],\n";
  out += "  \"dispatch\": " + str(dispatch) + ",\n";
  out += "  \"dispatch_env\": " + str(dispatch_env) + ",\n";
  out += "  \"queue\": " + str(queue) + ",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"git_describe\": " + str(git_describe) + ",\n";
  out += "  \"timestamp\": " + str(timestamp) + ",\n";
  out += "  \"host_thp\": " + str(host_thp) + ",\n";
  out += "  \"samples\": " + std::to_string(samples) + ",\n";
  out += "  \"loop_iterations\": " + std::to_string(loop_iterations) + ",\n";
  out += "  \"time_mean_ms\": " + num(time_mean_ms) + ",\n";
  out += "  \"time_median_ms\": " + num(time_median_ms) + ",\n";
  out += "  \"time_cov\": " + num(time_cov) + ",\n";
  out += "  \"energy_median_j\": " + num(energy_median_j) + ",\n";
  out += "  \"validated\": " + std::string(validated ? "true" : "false") +
         ",\n";
  out += "  \"validation_ok\": " +
         std::string(validation_ok ? "true" : "false") + ",\n";
  out += "  \"trace_path\": " + str(trace_path) + ",\n";
  out += "  \"metrics_path\": " + str(metrics_path) + ",\n";
  out += "  \"profile_path\": " + str(profile_path) + ",\n";
  out += "  \"trace_events_dropped\": " +
         std::to_string(trace_events_dropped) + ",\n";
  // Embed the metrics snapshot body ({"metrics":{...}}) inline so one file
  // fully describes the run even when no separate --metrics file exists.
  std::string snap = metrics.to_json();
  // Strip the outer braces/newline of the snapshot object and re-indent it
  // as the "metrics" member.
  const std::size_t open = snap.find('{');
  const std::size_t close = snap.rfind('}');
  out += "  " + snap.substr(open + 1, close - open - 1);
  out += "}\n";
  return out;
}

bool RunManifest::write_json(const std::string& path,
                             const MetricsSnapshot& metrics) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << to_json(metrics);
  return f.good();
}

}  // namespace eod::obs
