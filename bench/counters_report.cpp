// §4.3/§4.4 hardware-counter report: the per-benchmark, per-size cache
// verification data the paper collected but omitted "for brevity" ("cache
// miss results are not presented in this paper but were used to verify the
// selection of suitable problem sizes for each benchmark").
//
// For every trace-enabled benchmark and size class, replays the memory
// trace through the Skylake hierarchy and prints the PAPI-event rates the
// paper lists: IPC, L1/L2 data cache misses, L3 request/miss rate and miss
// ratio, data TLB miss rate, and branch mispredictions.
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>

#include "dwarfs/registry.hpp"
#include "figure_common.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"

int main(int argc, char** argv) {
  using namespace eod;
  using namespace eod::sim;

  // --max-accesses N skips any trace whose size hint exceeds N (0, the
  // default, replays everything -- gem medium/large included).
  // --dispatch=auto|item|checked pins the kernel tier for the
  // functional passes below (A/B dispatch measurement; counters are
  // tier-invariant; checked adds the §10 shadow-memory report).  The
  // default honors the EOD_DISPATCH env hatch.
  std::size_t max_accesses = 0;
  xcl::DispatchMode dispatch = xcl::default_dispatch_mode();
  // --trace=FILE / --metrics=FILE record the whole report run (every
  // measure() call below) into one Chrome trace / metrics snapshot.
  std::string trace_path;
  std::string metrics_path;
  // Any other token, or a malformed value, exits 2 naming it.
  const auto reject = [](const std::string& message) {
    std::cerr << message
              << "\nusage: counters_report [--max-accesses N] "
                 "[--dispatch=MODE] [--trace=FILE] [--metrics=FILE]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-accesses") {
      if (i + 1 == argc) return reject(arg + " requires a value");
      try {
        max_accesses = harness::parse_number<std::size_t>(arg, argv[++i]);
      } catch (const std::invalid_argument& e) {
        return reject(e.what());
      }
    } else if (arg.rfind("--dispatch=", 0) == 0) {
      const auto mode = xcl::parse_dispatch_mode(arg.substr(11));
      if (!mode.has_value()) {
        return reject(std::string("bad --dispatch (") +
                      xcl::dispatch_mode_names() +
                      "): " + arg.substr(11));
      }
      dispatch = *mode;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else {
      return reject("unexpected argument " + arg);
    }
  }
  if (trace_path.empty()) trace_path = obs::env_trace_path();
  if (!trace_path.empty()) {
    obs::set_thread_lane_name("counters_report");
    obs::set_tracing_enabled(true);
  }
  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::set_timed_metrics(true);
  }

  // Replayed cells persist under results/ so re-runs replay nothing.
  ReplayCache::instance().set_disk_store(bench::replay_memo_path());

  std::cout << "PAPI-style counter rates on the Skylake i7-6700K (per "
               "instruction)\n";
  std::cout << std::left << std::setw(9) << "bench" << std::setw(8)
            << "size" << std::right << std::setw(7) << "IPC"
            << std::setw(11) << "L1_DCM" << std::setw(11) << "L2_DCM"
            << std::setw(11) << "L3_req" << std::setw(11) << "L3_miss"
            << std::setw(10) << "L3_ratio" << std::setw(10) << "TLB_DM"
            << std::setw(9) << "BR_MSP" << '\n';

  for (const char* name :
       {"kmeans", "csr", "crc", "fft", "dwt", "srad", "nw", "gem"}) {
    auto dwarf = dwarfs::create_dwarf(name);
    for (const dwarfs::ProblemSize size : dwarf->supported_sizes()) {
      harness::MeasureOptions opts;
      opts.functional = false;
      opts.collect_counters = true;
      opts.max_trace_accesses = max_accesses;
      opts.dispatch = dispatch;
      const harness::Measurement m = harness::measure(
          *dwarf, size, testbed_device("i7-6700K"), opts);
      if (!m.counters_collected) continue;
      const auto& c = m.counters;
      const auto ins = static_cast<double>(c.get(PapiEvent::kTotIns));
      auto rate = [&](PapiEvent e) {
        return ins > 0.0 ? static_cast<double>(c.get(e)) / ins : 0.0;
      };
      std::cout << std::left << std::setw(9) << name << std::setw(8)
                << to_string(size) << std::right << std::fixed
                << std::setprecision(2) << std::setw(7) << c.ipc()
                << std::scientific << std::setprecision(2) << std::setw(11)
                << rate(PapiEvent::kL1Dcm) << std::setw(11)
                << rate(PapiEvent::kL2Dcm) << std::setw(11)
                << c.l3_request_rate() << std::setw(11) << c.l3_miss_rate()
                << std::fixed << std::setw(10) << c.l3_miss_ratio()
                << std::scientific << std::setw(10) << c.tlb_miss_rate()
                << std::fixed << std::setw(9)
                << c.branch_misprediction_rate() << '\n';
      std::cout.unsetf(std::ios::fixed | std::ios::scientific);
    }
  }
  std::cout << "\n(tiny rows show near-zero L1 misses, medium rows near-"
               "zero L3 misses, large rows real DRAM traffic -- the §4.4 "
               "size-selection verification.)\n";

  const ReplayCache::Stats rc = ReplayCache::instance().stats();
  std::cout << "replay memo: " << rc.hits << " hits, " << rc.misses
            << " misses, " << rc.loaded << " loaded from disk, "
            << rc.stores << " stored\n";

  // Host-side substrate observability: replay two small benchmarks
  // functionally (one plain-loop kernel set, one barrier-heavy) and report
  // what the work-stealing executor did -- the dispatch-cost bookkeeping
  // that guards the ~ns-resolution samples above against harness overhead.
  xcl::reset_executor_stats();
  // Under --dispatch=auto kmeans runs on the span tier; hmm runs its
  // forward/backward sweeps on fibers with a __local sum and its gamma and
  // update kernels (no span body) on the loop path.  So every counter but
  // `checked` is nonzero; checked groups count only under
  // --dispatch=checked.
  for (const char* name : {"kmeans", "hmm"}) {
    auto dwarf = dwarfs::create_dwarf(name);
    harness::MeasureOptions opts;
    opts.functional = true;
    opts.dispatch = dispatch;
    const harness::Measurement m = harness::measure(
        *dwarf, dwarfs::ProblemSize::kTiny, testbed_device("i7-6700K"),
        opts);
    if (m.check_performed) {
      std::cout << name << ' ' << m.check_report.to_text();
    }
  }
  std::cout << '\n'
            << describe_executor_stats(xcl::executor_stats())
            << "(functional replay of kmeans+hmm tiny, --dispatch="
            << xcl::to_string(dispatch)
            << "; stolen chunks > 0 only on multi-core hosts.)\n";

  if (!trace_path.empty()) {
    obs::set_tracing_enabled(false);
    if (obs::write_chrome_trace(trace_path)) {
      std::cout << "trace: " << trace_path
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
  }
  if (!metrics_path.empty()) {
    if (obs::snapshot_metrics().write_file(metrics_path)) {
      std::cout << "metrics: " << metrics_path << '\n';
    }
  }
  return 0;
}
