// Regenerates Figure 5: kernel execution energy for the large problem size
// on the Intel Skylake i7-6700K (RAPL) and the Nvidia GTX 1080 (NVML).
//
// §5.2: "All the benchmarks use more energy on the CPU, with the exception
// of crc"; the log panel (5b) exists because several GPU energies are
// below 1 J.
#include <iostream>

#include "dwarfs/registry.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/testbed.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  using namespace eod::harness;

  CliOptions cli;
  try {
    cli = parse_cli(argc, argv);
    require_no_positionals(cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << usage(argv[0]) << '\n';
    return 2;
  }
  MeasureOptions opts;
  opts.samples = cli.samples;
  opts.functional = cli.validate;
  opts.validate = cli.validate;

  // The eight benchmarks of Fig. 5, large problem size.
  const std::vector<std::string> benchmarks = {
      "kmeans", "lud", "csr", "fft", "dwt", "gem", "srad", "crc"};
  const char* devices[] = {"i7-6700K", "GTX 1080"};

  std::cout << "Figure 5: kernel execution energy (large problem size) on "
               "Core i7-6700K (RAPL) and Nvidia GTX 1080 (NVML)\n\n";
  std::vector<Measurement> all;
  for (const std::string& name : benchmarks) {
    auto dwarf = dwarfs::create_dwarf(name);
    MeasureOptions per = opts;
    for (const char* dev : devices) {
      all.push_back(measure(*dwarf, dwarfs::ProblemSize::kLarge,
                            sim::testbed_device(dev), per));
      per.functional = false;  // model-only on the second device
      per.validate = false;
      per.reuse_setup = true;
    }
  }
  print_energy_panel(std::cout, "Fig 5a/5b: energy (J), large", all);

  // The §5.2 headline claim, checked programmatically.
  std::cout << "\nCPU-vs-GPU energy ratio per benchmark (paper: >1 "
               "everywhere except crc):\n";
  int bad = 0;
  for (std::size_t i = 0; i < all.size(); i += 2) {
    const double cpu_j = all[i].energy_summary().median;
    const double gpu_j = all[i + 1].energy_summary().median;
    const double ratio = cpu_j / gpu_j;
    const bool expect_cpu_higher = all[i].benchmark != "crc";
    const bool ok = expect_cpu_higher ? ratio > 1.0 : ratio < 1.0;
    std::cout << "  " << all[i].benchmark << ": " << ratio
              << (ok ? "  [matches paper]" : "  [SHAPE MISMATCH]") << '\n';
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}
