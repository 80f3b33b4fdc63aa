// Work-group size auto-tuning -- §7 future work, implemented.
//
// Sweeps candidate local work-group sizes for a bandwidth-bound and a
// compute-bound kernel shape on four representative devices, printing the
// full sweep and the tuner's pick.  Wide-wavefront AMD parts must reject
// the Rodinia-style blocks of 16; CPUs are near-indifferent -- exactly the
// "platform-specific optimization" pitfall the paper found in the original
// OpenDwarfs codes.
#include <iomanip>
#include <iostream>
#include <vector>

#include "harness/autotune.hpp"
#include "sim/testbed.hpp"

int main() {
  using namespace eod;
  using namespace eod::harness;

  xcl::WorkloadProfile compute;
  compute.flops = 2e9;
  compute.bytes_read = 2e7;
  compute.working_set_bytes = 2e7;
  compute.pattern = xcl::AccessPattern::kTiled;

  xcl::WorkloadProfile bandwidth;
  bandwidth.flops = 5e7;
  bandwidth.bytes_read = 4e8;
  bandwidth.bytes_written = 1e8;
  bandwidth.working_set_bytes = 5e8;
  bandwidth.pattern = xcl::AccessPattern::kStreaming;

  const std::size_t global_items = 1 << 20;
  const char* devices[] = {"i7-6700K", "GTX 1080", "R9 290X",
                           "Xeon Phi 7210"};

  for (const auto& [label, profile] :
       {std::pair{"compute-bound tiled kernel", compute},
        std::pair{"bandwidth-bound streaming kernel", bandwidth}}) {
    std::cout << "== " << label << " (" << global_items
              << " work-items) ==\n";
    for (const char* name : devices) {
      xcl::Device& dev = sim::testbed_device(name);
      const auto sweep =
          sweep_work_group_sizes(dev, global_items, profile);
      std::cout << std::left << std::setw(16) << name << " ";
      for (const TuneResult& r : sweep) {
        std::cout << "wg" << r.work_group << "="
                  << std::setprecision(4) << r.modeled_seconds * 1e3
                  << "ms ";
      }
      const TuneResult best = autotune_work_group(dev, global_items,
                                                  profile);
      std::cout << " -> best wg = " << best.work_group << '\n';
    }
    std::cout << '\n';
  }

  // Show the cost of NOT tuning: a fixed wg of 16 (common in Rodinia-era
  // codes) versus the tuned choice, per device.
  std::cout << "penalty of a hard-coded work-group of 16:\n";
  for (const char* name : devices) {
    xcl::Device& dev = sim::testbed_device(name);
    const auto sweep = sweep_work_group_sizes(dev, global_items, compute,
                                              {16});
    const TuneResult best = autotune_work_group(dev, global_items, compute);
    if (sweep.empty()) continue;
    std::cout << "  " << std::left << std::setw(16) << name << " "
              << std::setprecision(3)
              << sweep.front().modeled_seconds / best.modeled_seconds
              << "x slower than tuned (wg " << best.work_group << ")\n";
  }
  return 0;
}
