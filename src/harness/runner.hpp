// The measurement engine: reproduces the paper's methodology (§2, §4.3).
//
//  * Each benchmark executes "in a loop for a minimum of two seconds, to
//    ensure that sampling ... was not significantly affected by operating
//    system noise".
//  * 50 samples per (benchmark, problem size) group, the sample size given
//    by the t-test power calculation (power 0.8 at half-a-sigma separation).
//  * Per-kernel timing segments and energy (RAPL on CPUs/MIC, NVML on GPUs).
//
// The kernels are executed functionally once (optionally validated against
// the serial reference); the per-device timing distribution is produced by
// the device's timing model plus its clock-dependent measurement noise.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "xcl/check/report.hpp"
#include "scibench/sample_set.hpp"
#include "scibench/stats.hpp"
#include "sim/counters.hpp"
#include "xcl/device.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace eod::harness {

struct MeasureOptions {
  std::size_t samples = 50;       ///< paper: 50 per group
  double min_loop_seconds = 2.0;  ///< paper: >= 2 s measurement loop
  bool functional = true;         ///< execute kernels on the host
  bool validate = false;          ///< compare against the serial reference
  std::uint64_t seed = 1;         ///< measurement-noise stream seed
  /// Skip setup() because the dwarf already holds this size's dataset
  /// (device sweeps reuse one generated workload, as the paper does).
  bool reuse_setup = false;
  /// Collect PAPI-style hardware counters by replaying the benchmark's
  /// memory trace through the device's cache hierarchy (§4.3; only
  /// benchmarks that expose a trace produce cache events).  Replays are
  /// memoized (sim::ReplayCache), so a sweep pays each (trace, hierarchy)
  /// cell once.
  bool collect_counters = false;
  /// Refuse counter replays whose trace_size_hint() exceeds this many
  /// accesses (0 = unlimited).  A guard, not a truncation: the trace is
  /// either replayed fully or not at all.
  std::size_t max_trace_accesses = 0;
  /// Kernel-tier override for this group's functional execution (the
  /// --dispatch= flag): kAuto/kSpan take the span tier where legal, kItem
  /// pins the per-item reference path for A/B runs, kSimd selects
  /// hand-vectorized bodies (DESIGN.md §13), kChecked runs the functional
  /// pass under a CheckSession (DESIGN.md §10) and attaches the resulting
  /// CheckReport to the Measurement.  Restored afterwards.  nullopt defers
  /// to default_dispatch_mode() (kAuto unless the EOD_DISPATCH env hatch
  /// says otherwise), mirroring queue_mode.
  std::optional<xcl::DispatchMode> dispatch;
  /// Queue execution mode for the measurement queue (the --queue= flag):
  /// kInOrder serialises commands exactly as the paper's testbed drivers
  /// did; kOutOfOrder lets dependency-expressed dwarfs overlap transfers
  /// with compute (DESIGN.md §12).  nullopt defers to default_queue_mode()
  /// (kInOrder unless the EOD_QUEUE env hatch says otherwise).
  std::optional<xcl::QueueMode> queue_mode;
  /// Observability sinks (DESIGN.md §11); empty = disabled, zero overhead.
  /// When trace_path is set the group runs with the trace recorder on and
  /// writes a Chrome trace_event JSON there; metrics_path receives a
  /// process-metrics snapshot (.tsv suffix for TSV, JSON otherwise);
  /// manifest_path receives the run manifest with the metrics embedded.
  std::string trace_path;
  std::string metrics_path;
  std::string manifest_path;
  /// Run the eod_prof schedule analysis in-process after the artifacts are
  /// written (the --profile flag): the trace is parsed back from disk —
  /// validating that the DAG is recoverable from the artifact alone — and
  /// the report lands next to it as <trace>.profile.json, recorded in the
  /// manifest.  Implies a default trace_path of "trace.json" when none was
  /// requested.
  bool profile = false;
};

/// Per-kernel aggregate over one application iteration.
struct KernelSegment {
  std::string kernel;
  std::size_t launches = 0;
  double modeled_seconds = 0.0;
};

/// One (benchmark, size, device) measurement group.
struct Measurement {
  std::string benchmark;
  std::string device;
  dwarfs::ProblemSize size = dwarfs::ProblemSize::kTiny;

  std::size_t loop_iterations = 1;  ///< iterations per >= 2 s sample loop
  /// Modeled per-iteration segment times, seconds.
  double kernel_seconds = 0.0;
  double transfer_seconds = 0.0;
  /// Modeled end-to-end makespan of the iteration's command graph.  Equals
  /// kernel_seconds + transfer_seconds on an in-order queue; smaller when
  /// an out-of-order queue overlaps transfers with compute.
  double span_seconds = 0.0;
  double energy_joules = 0.0;  ///< modeled device energy per iteration
  std::vector<KernelSegment> segments;

  /// 50 sampled per-iteration kernel times, milliseconds.
  std::vector<double> time_samples_ms;
  /// 50 sampled whole-loop energies, joules (RAPL/NVML emulation).
  std::vector<double> energy_samples_j;

  bool validated = false;
  dwarfs::Validation validation;

  /// PAPI-style counters for the kernel segment (§4.3), present when
  /// collect_counters was requested and the benchmark exposes a trace.
  bool counters_collected = false;
  sim::CounterSet counters;

  /// Shadow-memory checker findings (DESIGN.md §10), present when the
  /// group's functional pass ran under --dispatch=checked.
  bool check_performed = false;
  xcl::check::CheckReport check_report;

  /// Final collision-suffixed artifact paths actually written (see
  /// obs::unique_artifact_path); empty when the sink was not requested or
  /// the write failed.
  std::string trace_path;
  std::string metrics_path;
  std::string manifest_path;
  std::string profile_path;

  [[nodiscard]] scibench::Summary time_summary() const {
    return scibench::summarize(time_samples_ms);
  }
  [[nodiscard]] scibench::Summary energy_summary() const {
    return scibench::summarize(energy_samples_j);
  }
};

/// Runs one measurement group.  The dwarf must NOT be bound; it is set up,
/// bound to `device`, run, optionally validated, and unbound.
[[nodiscard]] Measurement measure(dwarfs::Dwarf& dwarf,
                                  dwarfs::ProblemSize size,
                                  xcl::Device& device,
                                  const MeasureOptions& options = {});

/// Convenience sweep over every testbed device (Table 1 order).  Devices
/// are measured model-only after a single functional pass, exactly like
/// moving one binary across the cluster.  Model-only passes move no bytes,
/// so `dwarf`'s host results after the sweep are the functional pass's.
[[nodiscard]] std::vector<Measurement> measure_all_devices(
    dwarfs::Dwarf& dwarf, dwarfs::ProblemSize size,
    const MeasureOptions& options = {});
/// The same sweep over a freshly created `benchmark` dwarf.
[[nodiscard]] std::vector<Measurement> measure_all_devices(
    const std::string& benchmark, dwarfs::ProblemSize size,
    const MeasureOptions& options = {});

}  // namespace eod::harness
