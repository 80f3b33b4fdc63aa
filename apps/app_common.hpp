// Shared main-loop for the standalone benchmark applications.
//
// Each application follows the paper's §4.4.5 convention:
//   Benchmark Device -- Arguments
// where Device is the uniform -p/-d/-t selection and Arguments are the
// benchmark-specific Table 3 options parsed by the app.  The app runs the
// measurement methodology (>= 2 s loop, 50 samples by default), validates
// against the serial reference, and prints a LibSciBench-style summary.
#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "harness/cli.hpp"
#include "harness/partition.hpp"
#include "harness/runner.hpp"
#include "obs/analysis/profile.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace eod::apps {

/// Splits argv at "--": everything before is uniform device/suite options,
/// everything after is benchmark-specific arguments (Table 3 style).  When
/// no "--" is present, all arguments are treated as uniform options and the
/// benchmark-specific argument list is the leftover positionals.
struct SplitArgs {
  harness::CliOptions cli;
  std::vector<std::string> benchmark_args;
};

inline SplitArgs split_args(int argc, const char** argv) {
  int split = argc;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--") {
      split = i;
      break;
    }
  }
  SplitArgs out;
  out.cli = harness::parse_cli(split, argv);
  if (split == argc) {
    out.benchmark_args = out.cli.positional;
  } else {
    for (int i = split + 1; i < argc; ++i) {
      out.benchmark_args.emplace_back(argv[i]);
    }
  }
  return out;
}

/// Rejects a --size the dwarf does not support before any setup runs,
/// naming the supported sizes; each app's handler prints the message and
/// exits 2.
inline void require_supported_size(const dwarfs::Dwarf& dwarf,
                                   const harness::CliOptions& cli) {
  if (!cli.size) return;
  const std::vector<dwarfs::ProblemSize> sizes = dwarf.supported_sizes();
  if (std::find(sizes.begin(), sizes.end(), *cli.size) != sizes.end()) {
    return;
  }
  std::string msg = dwarf.name();
  msg += " does not support --size ";
  msg += dwarfs::to_string(*cli.size);
  msg += "; supported:";
  for (const dwarfs::ProblemSize s : sizes) {
    msg += ' ';
    msg += dwarfs::to_string(s);
  }
  throw std::invalid_argument(msg);
}

/// Runs an already-configured dwarf under the harness and prints the
/// standard report.  Returns the process exit code.
inline int run_configured(dwarfs::Dwarf& dwarf,
                          const harness::CliOptions& cli) {
  xcl::Device& device = cli.resolve_device();
  harness::MeasureOptions opts;
  opts.samples = cli.samples;
  opts.min_loop_seconds = cli.min_loop_seconds;
  opts.functional = true;
  opts.validate = true;
  opts.reuse_setup = true;  // the app configured the dwarf itself
  opts.dispatch = cli.dispatch;
  opts.queue_mode = cli.queue_mode;
  // Observability sinks (DESIGN.md §11): --trace / --metrics flags, with
  // EOD_TRACE=1 (or =path) as the no-recompile escape hatch.  Either sink
  // also produces the run manifest next to the process.
  opts.trace_path =
      !cli.trace_path.empty() ? cli.trace_path : obs::env_trace_path();
  opts.metrics_path = cli.metrics_path;
  opts.profile = cli.profile;
  if (!opts.trace_path.empty() || !opts.metrics_path.empty() ||
      opts.profile) {
    opts.manifest_path = "manifest.json";
  }

  const harness::Measurement m = harness::measure(
      dwarf, cli.size.value_or(dwarfs::ProblemSize::kTiny), device, opts);

  std::cout << dwarf.name() << " (" << dwarf.berkeley_dwarf() << ") on "
            << device.name() << '\n';
  std::cout << "validation: " << (m.validation.ok ? "PASS" : "FAIL") << " ("
            << m.validation.detail << ")\n";
  for (const harness::KernelSegment& s : m.segments) {
    std::cout << "  kernel " << s.kernel << ": " << s.launches
              << " launch(es), " << s.modeled_seconds * 1e3
              << " ms/iteration\n";
  }
  const scibench::Summary t = m.time_summary();
  std::cout << "kernel time: mean " << t.mean << " ms, median " << t.median
            << " ms, cov " << t.cov() << " (" << t.n << " samples, "
            << m.loop_iterations << "-iteration loops)\n";
  std::cout << "transfers: " << m.transfer_seconds * 1e3
            << " ms/iteration; energy: " << m.energy_summary().median
            << " J\n";
  std::cout << "pipeline span ("
            << xcl::to_string(cli.queue_mode.value_or(
                   xcl::default_queue_mode()))
            << " queue): " << m.span_seconds * 1e3 << " ms/iteration\n";
  if (m.check_performed) {
    std::cout << m.check_report.to_text();
  }
  // Print the *final* collision-suffixed paths the measurement reports
  // back, not the requested ones — they are what actually landed on disk.
  if (!m.trace_path.empty()) {
    std::cout << "trace: " << m.trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!m.metrics_path.empty()) {
    std::cout << "metrics: " << m.metrics_path << '\n';
  }
  if (!m.profile_path.empty()) {
    std::cout << "profile: " << m.profile_path << '\n';
  }
  if (!m.manifest_path.empty()) {
    std::cout << "manifest: " << m.manifest_path << '\n';
  }
  const bool check_failed =
      m.check_performed && m.check_report.error_count() > 0;
  return (m.validation.ok && !check_failed) ? 0 : 1;
}

/// Turns the trace recorder on for a partitioned multi-device run when
/// --trace / EOD_TRACE / --profile asks for one.  Must run before the
/// partitioned execution so the per-device command spans are recorded;
/// report_partitioned() serialises and analyzes them afterwards.  Returns
/// the *requested* trace path ("trace.json" when only --profile asked).
inline std::string begin_partitioned_trace(const harness::CliOptions& cli) {
  std::string path =
      !cli.trace_path.empty() ? cli.trace_path : obs::env_trace_path();
  if (path.empty() && cli.profile) path = "trace.json";
  if (!path.empty()) {
    obs::reset_tracing();
    obs::set_thread_lane_name("harness");
    obs::set_tracing_enabled(true);
  }
  return path;
}

/// Prints the standard report for a partitioned multi-device run
/// (DESIGN.md §14), writes the trace/metrics/profile artifacts, and writes
/// the run manifest (with the full --devices set) when an observability
/// flag asked for artifacts.  `requested_trace` is
/// begin_partitioned_trace()'s return value.  Returns the process exit
/// code.
inline int report_partitioned(const dwarfs::Dwarf& dwarf,
                              const harness::PartitionedResult& r,
                              const harness::CliOptions& cli,
                              const std::string& requested_trace) {
  std::cout << dwarf.name() << " (" << dwarf.berkeley_dwarf()
            << ") partitioned across " << r.shards.size() << " device(s)\n";
  for (const harness::Shard& s : r.shards) {
    std::cout << "  " << s.device->name() << ": block rows ["
              << s.block_begin << ", " << s.block_end << ")\n";
  }
  std::cout << "validation: " << (r.validation.ok ? "PASS" : "FAIL") << " ("
            << r.validation.detail << ")\n";
  std::cout << "modeled makespan: " << r.makespan_s * 1e3 << " ms ("
            << r.compute_makespan_s * 1e3 << " ms after uploads)\n";
  std::cout << "halo exchange: " << r.halo_transfers << " peer copies, "
            << r.halo_bytes << " bytes, " << r.halo_seconds * 1e3
            << " ms modeled link time\n";
  std::string trace_path;
  if (!requested_trace.empty()) {
    obs::set_tracing_enabled(false);
    trace_path = obs::unique_artifact_path(requested_trace);
    if (!obs::write_chrome_trace(trace_path)) trace_path.clear();
    if (!trace_path.empty()) {
      std::cout << "trace: " << trace_path
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
  }
  std::string metrics_path;
  if (!cli.metrics_path.empty()) {
    metrics_path = obs::unique_artifact_path(cli.metrics_path);
    if (!obs::snapshot_metrics().write_file(metrics_path)) {
      metrics_path.clear();
    } else {
      std::cout << "metrics: " << metrics_path << '\n';
    }
  }
  std::string profile_path;
  if (cli.profile && !trace_path.empty()) {
    try {
      prof::ProfileInputs inputs;
      inputs.trace_path = trace_path;
      prof::ProfileReport report = prof::profile_run(inputs);
      report.benchmark = dwarf.name();
      report.device = r.shards.front().device->name();
      report.queue = xcl::to_string(xcl::QueueMode::kOutOfOrder);
      const std::string path =
          trace_path.substr(0, trace_path.rfind(".json")) + ".profile.json";
      std::ofstream f(path, std::ios::trunc);
      if (f && (f << report.to_json()).good()) {
        profile_path = path;
        std::cout << "profile: " << profile_path << '\n';
      }
    } catch (const std::exception& e) {
      std::cerr << "profile analysis failed: " << e.what() << '\n';
    }
  }
  if (!trace_path.empty() || !metrics_path.empty() ||
      !profile_path.empty()) {
    obs::RunManifest man;
    man.benchmark = dwarf.name();
    man.size = dwarfs::to_string(
        cli.size.value_or(dwarfs::ProblemSize::kTiny));
    man.device = r.shards.front().device->name();
    for (const harness::Shard& s : r.shards) {
      man.devices.push_back(s.device->name());
    }
    man.dispatch = xcl::to_string(
        cli.dispatch.value_or(xcl::default_dispatch_mode()));
    man.queue = xcl::to_string(xcl::QueueMode::kOutOfOrder);
    man.git_describe = obs::git_describe();
    man.timestamp = obs::utc_timestamp();
    man.samples = 1;
    man.loop_iterations = 1;
    man.time_mean_ms = r.makespan_s * 1e3;
    man.time_median_ms = r.makespan_s * 1e3;
    man.validated = true;
    man.validation_ok = r.validation.ok;
    man.trace_path = trace_path;
    if (!trace_path.empty()) {
      man.trace_events_dropped = obs::trace_events_dropped();
    }
    man.metrics_path = metrics_path;
    man.profile_path = profile_path;
    const std::string manifest_path =
        obs::unique_artifact_path("manifest.json");
    if (man.write_json(manifest_path, obs::snapshot_metrics())) {
      std::cout << "manifest: " << manifest_path << '\n';
    }
  }
  return r.validation.ok ? 0 : 1;
}

/// Fetches argument i (0-based) from a Table 3 argument list or returns
/// the fallback.
inline std::string arg_or(const std::vector<std::string>& args,
                          std::size_t i, const std::string& fallback) {
  return i < args.size() ? args[i] : fallback;
}

/// Finds "-x value" style options in a benchmark argument list.
inline std::string flag_value(const std::vector<std::string>& args,
                              const std::string& flag,
                              const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

inline bool has_flag(const std::vector<std::string>& args,
                     const std::string& flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
  }
  return false;
}

}  // namespace eod::apps
