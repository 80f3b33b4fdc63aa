// Shared driver for the figure-regeneration binaries: runs one benchmark
// over the requested problem sizes across the whole simulated testbed and
// prints the per-device panels the paper plots.
//
// By default devices are measured model-only (the suite's correctness is
// covered by ctest); pass --validate to run the first device functionally
// and check the serial reference, or --long-table for R-compatible output.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "dwarfs/registry.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

namespace eod::bench {

#ifdef EOD_REPO_ROOT
/// The checked-in replay memo, resolved from the source tree so a report
/// run from any directory (build/ included) reads and extends the same file.
inline std::string replay_memo_path() {
  return std::string(EOD_REPO_ROOT) + "/results/replay_memo.tsv";
}
#endif

struct FigureSpec {
  std::string figure;     // e.g. "Figure 1"
  std::string benchmark;  // e.g. "crc"
  std::vector<dwarfs::ProblemSize> sizes;
  bool include_knl = false;  // the paper omits KNL after Fig. 1
};

inline int run_figure(const FigureSpec& spec, int argc, const char** argv) {
  using namespace eod::harness;
  CliOptions cli;
  try {
    cli = parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << usage(argv[0]) << '\n';
    return 2;
  }

  MeasureOptions opts;
  opts.samples = cli.samples;
  opts.min_loop_seconds = cli.min_loop_seconds;
  opts.functional = cli.validate;
  opts.validate = cli.validate;

  std::vector<dwarfs::ProblemSize> sizes = spec.sizes;
  if (cli.size.has_value()) sizes = {*cli.size};

  std::cout << spec.figure << ": " << spec.benchmark
            << " kernel execution times across the simulated testbed\n";
  int failures = 0;
  for (const dwarfs::ProblemSize size : sizes) {
    auto all = measure_all_devices(spec.benchmark, size, opts);
    if (!spec.include_knl) {
      std::erase_if(all, [](const Measurement& m) {
        return m.device == "Xeon Phi 7210";
      });
    }
    if (opts.validate && all.front().validated &&
        !all.front().validation.ok) {
      std::cerr << "VALIDATION FAILED: " << all.front().validation.detail
                << '\n';
      ++failures;
    }
    if (cli.long_table) {
      print_long_table(std::cout, all);
    } else {
      print_panel(std::cout,
                  spec.benchmark + " " + to_string(size), all);
    }
    std::cout << '\n';
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace eod::bench
