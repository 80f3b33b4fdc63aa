// Porting the problem-size methodology to a next-generation accelerator --
// the §6 claim: the size classes "can now be easily adjusted for next
// generation accelerator systems using the methodology outlined in
// Section 4.4".
//
// Defines a hypothetical next-gen CPU (bigger L1/L2, victim-cache-style
// L3), re-derives the tiny/small/medium/large scale parameters for kmeans,
// fft and lud with the generalized solver, and verifies the re-derived
// tiny and small kmeans classes with the trace-driven cache simulator,
// exactly as §4.4 verifies the Skylake classes with PAPI.  (The medium
// class fills a 96 MiB L3: its two replays stream about 0.5e9 accesses,
// seconds of simulation for an example.)
#include <iomanip>
#include <map>
#include <iostream>

#include "dwarfs/fft/fft.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/lud/lud.hpp"
#include "harness/problem_size.hpp"
#include "sim/cache_sim.hpp"

int main() {
  using namespace eod;
  using namespace eod::harness;
  using dwarfs::ProblemSize;

  // A plausible next-generation server CPU: 48 KiB L1d, 2 MiB L2,
  // 96 MiB L3 (Golden-Cove-class core with a big victim L3).
  sim::DeviceSpec nextgen;
  nextgen.name = "NextGen-CPU";
  nextgen.l1 = {48 * 1024, 64, 12, 1.0, 800.0};
  nextgen.l2 = {2 * 1024 * 1024, 64, 16, 3.0, 400.0};
  nextgen.l3 = {96ull * 1024 * 1024, 64, 16, 14.0, 200.0};
  const SizeClassBounds bounds = SizeClassBounds::from_device(nextgen);

  std::cout << "Re-deriving Table 2 for " << nextgen.name
            << " (L1 48 KiB / L2 2 MiB / L3 96 MiB):\n\n";

  // ---- kmeans: Equation 1 drives the solver ----
  const auto kmeans_footprint = [](std::size_t points) {
    return dwarfs::KMeans::working_set_bytes(points, 26, 5);
  };
  std::cout << "kmeans (Pn, 26 features, 5 clusters):\n";
  std::map<ProblemSize, std::size_t> kmeans_phi;
  for (const ProblemSize s : dwarfs::kAllSizes) {
    const std::size_t phi =
        solve_scale_parameter(bounds, s, kmeans_footprint, 1, 1u << 26);
    kmeans_phi[s] = phi;
    std::cout << "  " << std::left << std::setw(8) << to_string(s)
              << "Phi = " << std::setw(10) << phi << " ("
              << std::fixed << std::setprecision(1)
              << kmeans_footprint(phi) / 1024.0 << " KiB)\n";
    std::cout.unsetf(std::ios::fixed);
  }

  // ---- fft: power-of-two lengths ----
  const auto fft_footprint = [](std::size_t log2n) {
    return (std::size_t{1} << log2n) * 2 * 2 * sizeof(float);
  };
  std::cout << "\nfft (power-of-two N):\n";
  for (const ProblemSize s : dwarfs::kAllSizes) {
    const std::size_t log2n =
        solve_scale_parameter(bounds, s, fft_footprint, 1, 30);
    std::cout << "  " << std::left << std::setw(8) << to_string(s)
              << "N = " << (std::size_t{1} << log2n) << '\n';
  }

  // ---- lud: block-multiple matrix dimensions ----
  const auto lud_footprint = [](std::size_t blocks) {
    const std::size_t n = blocks * dwarfs::Lud::kBlock;
    return n * n * sizeof(float);
  };
  std::cout << "\nlud (n x n floats, n a multiple of 16):\n";
  for (const ProblemSize s : dwarfs::kAllSizes) {
    const std::size_t blocks =
        solve_scale_parameter(bounds, s, lud_footprint, 1, 4096);
    std::cout << "  " << std::left << std::setw(8) << to_string(s)
              << "n = " << blocks * dwarfs::Lud::kBlock << '\n';
  }

  // ---- §4.4-style verification on the new hierarchy ----
  std::cout << "\nverifying the re-derived kmeans classes with the cache "
               "simulator:\n";
  int failures = 0;
  for (const ProblemSize s : {ProblemSize::kTiny, ProblemSize::kSmall}) {
    dwarfs::KMeans km;
    dwarfs::KMeans::Params p;
    p.points = kmeans_phi[s];
    km.configure(p);
    sim::CacheHierarchy h(nextgen);
    const auto replay = [&] {
      km.stream_trace([&h](const sim::MemAccess& a) {
        h.access(a.address, a.bytes, a.is_write);
      });
    };
    replay();
    const auto cold = h.counters();
    replay();
    const auto warm = h.counters();
    const double n =
        static_cast<double>(warm.total_accesses - cold.total_accesses);
    const double miss_into[] = {
        static_cast<double>(warm.l1_dcm - cold.l1_dcm) / n,
        static_cast<double>(warm.l2_dcm - cold.l2_dcm) / n,
        static_cast<double>(warm.l3_tcm - cold.l3_tcm) / n};
    // tiny -> no steady L1 misses, small -> no L2 misses, medium -> no L3.
    const int level = static_cast<int>(s);
    const double beyond = miss_into[level];
    const bool ok = beyond < 5e-3;
    if (!ok) ++failures;
    std::cout << "  " << std::left << std::setw(8) << to_string(s)
              << "traffic past intended level: " << std::scientific
              << std::setprecision(2) << beyond
              << (ok ? "  [fits]" : "  [SPILLS]") << '\n';
    std::cout.unsetf(std::ios::scientific);
  }
  std::cout << (failures == 0
                    ? "\nthe methodology ports cleanly to the new "
                      "hierarchy\n"
                    : "\nRE-DERIVED SIZES DO NOT FIT\n");
  return failures;
}
