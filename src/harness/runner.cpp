#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>

#include "dwarfs/registry.hpp"
#include "obs/analysis/profile.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "xcl/check/session.hpp"
#include "sim/energy_model.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::harness {

namespace {

std::uint64_t mix_seed(const std::string& benchmark,
                       const std::string& device, dwarfs::ProblemSize size,
                       std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
  auto fold = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ull;
    }
  };
  fold(benchmark);
  fold(device);
  h ^= static_cast<std::uint64_t>(size) + 0x9e37ull;
  return h;
}

/// "trace.123.0.json" -> "trace.123.0.profile.json": the report lands next
/// to the trace it describes, with the same collision suffix.
std::string profile_path_for(const std::string& trace_path) {
  const std::size_t slash = trace_path.find_last_of("/\\");
  const std::size_t dot = trace_path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return trace_path + ".profile.json";
  }
  return trace_path.substr(0, dot) + ".profile.json";
}

}  // namespace

Measurement measure(dwarfs::Dwarf& dwarf, dwarfs::ProblemSize size,
                    xcl::Device& device, const MeasureOptions& options) {
  Measurement m;
  m.benchmark = dwarf.name();
  m.device = device.name();
  m.size = size;

  // Observability sinks (DESIGN.md §11).  Recording is scoped to this
  // group: the flags are restored on every exit path, and the recorder is
  // reset up front so consecutive measurements write independent traces.
  // --profile analyzes the written trace, so it implies one.
  const std::string requested_trace =
      options.trace_path.empty() && options.profile
          ? std::string("trace.json")
          : options.trace_path;
  const bool want_trace = !requested_trace.empty();
  const bool want_obs = want_trace || !options.metrics_path.empty() ||
                        !options.manifest_path.empty();
  struct ObsGuard {
    bool prev_trace = obs::tracing_enabled();
    bool prev_timed = obs::timed_metrics_enabled();
    ~ObsGuard() {
      obs::set_tracing_enabled(prev_trace);
      obs::set_timed_metrics(prev_timed);
    }
  } obs_guard;
  if (want_trace) {
    obs::reset_tracing();
    obs::set_thread_lane_name("harness");
    obs::set_tracing_enabled(true);
  }
  if (want_obs) obs::set_timed_metrics(true);
  std::optional<obs::TraceSpan> measure_span;
  if (want_trace) measure_span.emplace("measure", "harness");

  if (!options.reuse_setup) {
    obs::TraceSpan span("setup", "harness");
    dwarf.setup(size);
  }

  // Tier override for the functional pass, restored on every exit path.
  // An unset option defers to default_dispatch_mode(), so `EOD_DISPATCH=simd
  // ctest` steers every measurement in the suite without the runner
  // stomping the hatch with kAuto.
  const xcl::DispatchMode dispatch =
      options.dispatch.value_or(xcl::default_dispatch_mode());
  struct DispatchModeGuard {
    xcl::DispatchMode prev = xcl::dispatch_mode();
    ~DispatchModeGuard() { xcl::set_dispatch_mode(prev); }
  } dispatch_guard;
  xcl::set_dispatch_mode(dispatch);

  // --dispatch=checked: the whole functional pass (bind-time allocations
  // included, so the shadow sees every buffer from birth) runs under a
  // CheckSession; the report lands on the Measurement.
  std::optional<xcl::check::CheckSession> check_session;
  if (dispatch == xcl::DispatchMode::kChecked && options.functional) {
    check_session.emplace();
  }

  xcl::Context ctx(device);
  xcl::Queue queue(ctx, options.queue_mode);
  queue.set_functional(options.functional);
  queue.set_record_launches(options.collect_counters);

  {
    obs::TraceSpan span("bind", "harness");
    dwarf.bind(ctx, queue);
  }
  queue.clear_events();  // bind-time transfers are host-setup, not measured
  {
    // The single functional pass: the warmup-equivalent real execution the
    // sampled loop is modeled from.
    obs::TraceSpan span("functional", "harness");
    dwarf.run();
  }

  // Aggregate the iteration's events into per-kernel segments (the paper
  // records kernel, setup and transfer segments via LibSciBench).
  std::map<std::string, KernelSegment> segs;
  for (const xcl::Event& e : queue.events()) {
    if (xcl::is_device_side(e.kind)) {
      KernelSegment& s = segs[e.label];
      s.kernel = e.label;
      ++s.launches;
      s.modeled_seconds += e.modeled_seconds();
      m.energy_joules += e.energy_j;
    } else {
      m.transfer_seconds += e.modeled_seconds();
    }
  }
  m.kernel_seconds = queue.modeled_kernel_seconds();
  m.span_seconds = queue.modeled_span_seconds();
  for (auto& [_, s] : segs) m.segments.push_back(s);

  dwarf.finish();
  if (options.validate) {
    obs::TraceSpan span("validate", "harness");
    m.validation = dwarf.validate();
    m.validated = true;
  }

  if (check_session.has_value()) {
    m.check_report = check_session->take_report();
    m.check_performed = true;
    check_session.reset();  // unpins kChecked before the unbind below
  }

  if (options.collect_counters) {
    // §4.3: cache/TLB events from a trace replay through this device's
    // hierarchy (two passes so the counters reflect the warm steady state,
    // like the paper's in-loop sampling), plus instruction/branch
    // estimates from the aggregate workload profile of the launch plan.
    // The replay runs through the batched/coalesced engine and is memoized
    // by trace content + hierarchy geometry, so repeated sweeps over the
    // same cell replay nothing.
    obs::TraceSpan span("counters.replay", "harness");
    const std::size_t hint = dwarf.trace_size_hint();
    const bool oversized = options.max_trace_accesses != 0 &&
                           hint > options.max_trace_accesses;
    sim::HierarchyCounters warm;
    bool have_trace = false;
    if (!oversized) {
      const sim::ReplayMemoEntry memo = sim::memoized_replay(
          [&dwarf](sim::TraceWriter& w) { dwarf.stream_trace(w); },
          sim::spec_by_name(device.name()),
          m.benchmark + "/" + dwarfs::to_string(size) + "/" + m.device);
      have_trace = memo.accesses > 0;
      warm = memo.warm;
    }
    xcl::WorkloadProfile total;
    for (const xcl::KernelLaunchStats& launch : queue.launches()) {
      total.flops += launch.profile.flops;
      total.int_ops += launch.profile.int_ops;
      total.bytes_read += launch.profile.bytes_read;
      total.bytes_written += launch.profile.bytes_written;
      total.branch_divergence = std::max(total.branch_divergence,
                                         launch.profile.branch_divergence);
    }
    m.counters = sim::derive_papi_counters(
        total, warm, device.info().clock_mhz * 1e-3, m.kernel_seconds,
        device.info().simd_width);
    m.counters_collected = have_trace;
  }
  dwarf.unbind();

  // ---- sampling: the >= 2 s loop, 50 samples, device-specific noise ----
  const double iter_s = std::max(m.kernel_seconds, 1e-9);
  m.loop_iterations = static_cast<std::size_t>(
      std::max(1.0, std::ceil(options.min_loop_seconds / iter_s)));

  const double cov = device.model().measurement_noise_cov();
  // Averaging over the loop shrinks the independent per-iteration spread,
  // but a run-level component (thermal / DVFS state of the run) does not
  // average out -- which is why the paper still sees clock-dependent CoV
  // after its 2 s loops.
  const double eff_cov = std::max(
      0.0005, cov / std::sqrt(static_cast<double>(m.loop_iterations)) +
                  0.08 * cov);

  std::mt19937_64 rng(mix_seed(m.benchmark, m.device, size, options.seed));
  std::normal_distribution<double> noise(1.0, eff_cov);
  // Occasional straggler iterations skew timing distributions right; add a
  // small lognormal tail so box plots look like real measurements.
  std::lognormal_distribution<double> tail(0.0, 0.5);

  const double power =
      m.kernel_seconds > 0.0 ? m.energy_joules / m.kernel_seconds : 0.0;
  const sim::EnergyInstrument instrument =
      device.type() == xcl::DeviceType::kGpu ? sim::EnergyInstrument::kNvml
                                             : sim::EnergyInstrument::kRapl;
  sim::EnergyMeter meter(instrument,
                         mix_seed(m.benchmark, m.device, size,
                                  options.seed ^ 0xE4E46Full));

  m.time_samples_ms.reserve(options.samples);
  m.energy_samples_j.reserve(options.samples);
  {
    obs::TraceSpan sampling_span("sampling", "harness", "samples",
                                 static_cast<double>(options.samples));
    for (std::size_t i = 0; i < options.samples; ++i) {
      obs::TraceSpan sample_span("sample", "harness");
      double factor = noise(rng);
      if ((rng() & 0x1F) == 0) {  // ~3% of samples catch a straggler
        factor += 0.02 * eff_cov / 0.002 * tail(rng) * 0.1;
      }
      factor = std::max(0.5, factor);
      m.time_samples_ms.push_back(iter_s * factor * 1e3);
      sample_span.set_arg("sample_ms", m.time_samples_ms.back());
      // §5.2: energy is measured "solely over the kernel execution", i.e.
      // one application iteration's kernels, not the whole 2 s sampling
      // loop.
      m.energy_samples_j.push_back(
          meter.measure(power, iter_s * factor).joules);
    }
  }

  // ---- artifact writes: trace, metrics snapshot, run manifest ----
  if (want_obs) {
    measure_span.reset();  // close the root span before serialising
    if (want_trace) {
      obs::set_tracing_enabled(false);  // stop recording into the file walk
      m.trace_path = obs::unique_artifact_path(requested_trace);
      if (!obs::write_chrome_trace(m.trace_path)) m.trace_path.clear();
    }
    const obs::MetricsSnapshot snap = obs::snapshot_metrics();
    if (!options.metrics_path.empty()) {
      m.metrics_path = obs::unique_artifact_path(options.metrics_path);
      if (!snap.write_file(m.metrics_path)) m.metrics_path.clear();
    }
    // In-process schedule analysis (--profile): parse the trace back from
    // disk — proving the DAG is recoverable from the artifact alone — and
    // drop the report next to it, before the manifest records its path.
    if (options.profile && !m.trace_path.empty()) {
      try {
        prof::ProfileInputs inputs;
        inputs.trace_path = m.trace_path;
        try {
          inputs.transfer_peak_gbs =
              sim::spec_by_name(m.device).transfer_bandwidth_gbs;
        } catch (const std::invalid_argument&) {
          // Not a Table 1 device (e.g. a test stub): no saturation peak.
        }
        prof::ProfileReport report = prof::profile_run(inputs);
        report.benchmark = m.benchmark;
        report.device = m.device;
        report.queue = xcl::to_string(queue.mode());
        const std::string path = profile_path_for(m.trace_path);
        std::ofstream f(path, std::ios::trunc);
        if (f && (f << report.to_json()).good()) m.profile_path = path;
      } catch (const std::exception&) {
        // A malformed trace must not fail the measurement it describes.
        m.profile_path.clear();
      }
    }
    if (!options.manifest_path.empty()) {
      obs::RunManifest manifest;
      manifest.benchmark = m.benchmark;
      manifest.size = dwarfs::to_string(size);
      manifest.device = m.device;
      manifest.devices = {m.device};
      manifest.dispatch = xcl::to_string(dispatch);
      if (const char* env = std::getenv("EOD_DISPATCH")) {
        manifest.dispatch_env = env;
      }
      manifest.queue = xcl::to_string(queue.mode());
      manifest.seed = options.seed;
      manifest.git_describe = obs::git_describe();
      manifest.timestamp = obs::utc_timestamp();
      manifest.samples = m.time_samples_ms.size();
      manifest.loop_iterations = m.loop_iterations;
      const scibench::Summary t = m.time_summary();
      manifest.time_mean_ms = t.mean;
      manifest.time_median_ms = t.median;
      manifest.time_cov = t.cov();
      manifest.energy_median_j = m.energy_summary().median;
      manifest.validated = m.validated;
      manifest.validation_ok = m.validation.ok;
      manifest.trace_path = m.trace_path;
      if (want_trace) {
        manifest.trace_events_dropped = obs::trace_events_dropped();
      }
      manifest.metrics_path = m.metrics_path;
      manifest.profile_path = m.profile_path;
      m.manifest_path = obs::unique_artifact_path(options.manifest_path);
      if (!manifest.write_json(m.manifest_path, snap)) {
        m.manifest_path.clear();
      }
    }
  }
  return m;
}

std::vector<Measurement> measure_all_devices(dwarfs::Dwarf& dwarf,
                                             dwarfs::ProblemSize size,
                                             const MeasureOptions& options) {
  std::vector<Measurement> out;
  MeasureOptions per_device = options;
  if (options.collect_counters) {
    // Warm the replay memo for every hierarchy in one streamed fan-out:
    // the trace is generated twice (cold + warm pass) for all 15 devices
    // together instead of twice per device.
    dwarf.setup(size);
    per_device.reuse_setup = true;
    const std::size_t hint = dwarf.trace_size_hint();
    if (hint > 0 && (options.max_trace_accesses == 0 ||
                     hint <= options.max_trace_accesses)) {
      std::vector<const sim::DeviceSpec*> specs;
      for (xcl::Device* dev : sim::testbed_devices()) {
        specs.push_back(&sim::spec_by_name(dev->name()));
      }
      (void)sim::prime_replay_memo(
          [&dwarf](sim::TraceWriter& w) { dwarf.stream_trace(w); }, specs,
          dwarf.name() + "/" + dwarfs::to_string(size));
    }
  }
  for (xcl::Device* dev : sim::testbed_devices()) {
    out.push_back(measure(dwarf, size, *dev, per_device));
    // One functional (optionally validated) pass over one generated
    // dataset is enough: results are device-independent, so later devices
    // run model-only, as if the same verified binary were shipped around
    // the cluster.
    per_device.functional = false;
    per_device.validate = false;
    per_device.reuse_setup = true;
  }
  return out;
}

std::vector<Measurement> measure_all_devices(const std::string& benchmark,
                                             dwarfs::ProblemSize size,
                                             const MeasureOptions& options) {
  const std::unique_ptr<dwarfs::Dwarf> dwarf = dwarfs::create_dwarf(benchmark);
  return measure_all_devices(*dwarf, size, options);
}

}  // namespace eod::harness
