// Ablation: analytic working-set residence (what the timing model uses)
// versus the trace-driven cache simulator (ground truth within the
// simulation), on the benchmarks that expose memory traces.
//
// For each (benchmark, size) the analytic rule predicts the smallest
// Skylake cache level holding the working set; the simulator replays the
// trace twice (cold + steady state) and reports where the steady-state
// traffic actually settles.  Disagreements would mean the model's
// residence heuristic -- the mechanism behind the i5-3550 medium-size
// cliff and the spectral-dwarf CPU penalty -- is unsound.
#include <iomanip>
#include <iostream>

#include "dwarfs/registry.hpp"
#include "figure_common.hpp"
#include "sim/cache_sim.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/perf_model.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace {

using namespace eod;

int analytic_level(double ws, const sim::DeviceSpec& d) {
  if (ws <= static_cast<double>(d.l1.size_bytes)) return 1;
  if (ws <= static_cast<double>(d.l2.size_bytes)) return 2;
  if (d.l3.size_bytes != 0 && ws <= static_cast<double>(d.l3.size_bytes)) {
    return 3;
  }
  return 4;
}

int simulated_level(const dwarfs::Dwarf& dwarf, const sim::DeviceSpec& d) {
  // Memoized coalesced replay; .warm holds the steady-state pass (the
  // seed's cold/warm cumulative diff, with the reset folded in).
  const sim::ReplayMemoEntry memo = sim::memoized_replay(
      [&dwarf](sim::TraceWriter& w) { dwarf.stream_trace(w); }, d,
      dwarf.name() + "/ablate");
  const double n = static_cast<double>(memo.warm.total_accesses);
  const double l1 = static_cast<double>(memo.warm.l1_dcm) / n;
  const double l2 = static_cast<double>(memo.warm.l2_dcm) / n;
  const double l3 = static_cast<double>(memo.warm.l3_tcm) / n;
  // Steady-state service level: the deepest level with meaningful misses
  // one level up and (almost) none itself.
  if (l3 > 1e-3) return 4;
  if (l2 > 1e-3) return 3;
  if (l1 > 5e-3) return 2;
  return 1;
}

// Built by append rather than `"L" + std::to_string(l)`: GCC 12's -Wrestrict
// issues a false positive on small-literal concatenation at -O3 (PR105651).
std::string level_name(int level) {
  std::string s("L");
  s += std::to_string(level);
  return s;
}

}  // namespace

int main() {
  // Persist replayed cells so report re-runs replay nothing.
  eod::sim::ReplayCache::instance().set_disk_store(
      eod::bench::replay_memo_path());
  const sim::DeviceSpec& sky = sim::skylake();
  std::cout << "Analytic residence rule vs trace-driven simulation "
               "(Skylake hierarchy)\n";
  std::cout << std::left << std::setw(10) << "benchmark" << std::setw(9)
            << "size" << std::setw(14) << "ws(KiB)" << std::setw(10)
            << "analytic" << std::setw(11) << "simulated" << "verdict\n";

  int mismatches = 0;
  const char* names[] = {"kmeans", "csr", "crc"};  // trace-enabled dwarfs
  for (const char* name : names) {
    auto dwarf = dwarfs::create_dwarf(name);
    for (const dwarfs::ProblemSize size :
         {dwarfs::ProblemSize::kTiny, dwarfs::ProblemSize::kSmall,
          dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kLarge}) {
      dwarf->setup(size);
      const double ws =
          static_cast<double>(dwarf->footprint_bytes(size));
      const int predicted = analytic_level(ws, sky);
      const int simulated = simulated_level(*dwarf, sky);
      // The rule is sound if it matches or errs by at most one level on
      // boundary-straddling sizes.
      const bool ok = std::abs(predicted - simulated) <= 1;
      if (!ok) ++mismatches;
      std::cout << std::left << std::setw(10) << name << std::setw(9)
                << to_string(size) << std::setw(14) << std::fixed
                << std::setprecision(1) << ws / 1024.0 << std::setw(10)
                << level_name(predicted) << std::setw(11)
                << level_name(simulated)
                << (predicted == simulated
                        ? "exact"
                        : (ok ? "within one level" : "MISMATCH"))
                << '\n';
      std::cout.unsetf(std::ios::fixed);
    }
  }
  std::cout << (mismatches == 0
                    ? "\nanalytic residence rule is consistent with the "
                      "trace-driven simulator\n"
                    : "\nANALYTIC RULE DISAGREES WITH SIMULATION\n");

  // Second ablation: the analytic memory *time* versus the trace-fed
  // per-level-traffic memory time, on the Skylake model.
  std::cout << "\nanalytic vs trace-fed memory term (kmeans, Skylake):\n";
  const sim::DevicePerfModel model(sky);
  int time_mismatches = 0;
  {
    auto dwarf = dwarfs::create_dwarf("kmeans");
    for (const dwarfs::ProblemSize size :
         {dwarfs::ProblemSize::kTiny, dwarfs::ProblemSize::kSmall,
          dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kLarge}) {
      dwarf->setup(size);
      xcl::Context ctx(sim::testbed_device("i7-6700K"));
      xcl::Queue q(ctx);
      q.set_functional(false);
      q.set_record_launches(true);
      dwarf->bind(ctx, q);
      q.clear_events();
      dwarf->run();
      // Steady-state counters via the same memoized replay engine.
      const sim::ReplayMemoEntry memo = sim::memoized_replay(
          [&dwarf](sim::TraceWriter& w) { dwarf->stream_trace(w); }, sky,
          std::string("kmeans/") + to_string(size));
      const xcl::KernelLaunchStats& launch = q.launches().front();
      const double analytic = model.analyze(launch).memory_s;
      const double traced =
          model.memory_seconds_from_counters(launch, memo.warm);
      const double ratio = traced > 0.0 ? analytic / traced : 0.0;
      // Agreement within ~3x validates the cheap analytic term.
      const bool ok = ratio > 1.0 / 3.0 && ratio < 3.0;
      if (!ok) ++time_mismatches;
      std::cout << "  " << std::left << std::setw(8) << to_string(size)
                << "analytic " << std::scientific << std::setprecision(2)
                << analytic << " s,  trace-fed " << traced << " s  ("
                << std::fixed << std::setprecision(2) << ratio << "x"
                << (ok ? ")" : ", DIVERGES)") << '\n';
      std::cout.unsetf(std::ios::fixed | std::ios::scientific);
      dwarf->unbind();
    }
  }
  const sim::ReplayCache::Stats rc = sim::ReplayCache::instance().stats();
  std::cout << "\nreplay memo: " << rc.hits << " hits, " << rc.misses
            << " misses, " << rc.loaded << " loaded from disk, "
            << rc.stores << " stored\n";
  return (mismatches == 0 && time_mismatches == 0) ? 0 : 1;
}
