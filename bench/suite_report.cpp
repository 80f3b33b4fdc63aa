// Full-suite driver: runs every benchmark at every supported size across
// the whole testbed and emits the LibSciBench-style long table (one row
// per sample) that the paper's analysis/plotting scripts consume -- the
// equivalent of the Python driver scripts in the paper's GitHub repository
// ("For reproducibility the entire set of Python scripts with all problem
// sizes is available in a GitHub repository").
//
//   suite_report [--samples N] [--out DIR]
//
// Writes one whitespace-separated .dat file per benchmark (R: read.table)
// plus a combined summary to stdout.  An unknown token, a missing value or
// a --samples that is not an integer >= 1 exits 2 naming the token.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "dwarfs/registry.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  using namespace eod::harness;

  std::size_t samples = 50;
  std::string out_dir = "suite_results";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag != "--samples" && flag != "--out") {
        throw std::invalid_argument("unexpected argument " + flag);
      }
      if (i + 1 == argc) throw std::invalid_argument(flag + " requires a value");
      const std::string value = argv[++i];
      if (flag == "--samples") {
        samples = parse_number<std::size_t>(flag, value, 1);
      } else {
        out_dir = value;
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\nusage: suite_report [--samples N] [--out DIR]\n";
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  MeasureOptions opts;
  opts.samples = samples;
  opts.functional = false;  // validated by the test suite; sweep the model

  for (const std::string& name : dwarfs::benchmark_names()) {
    auto probe = dwarfs::create_dwarf(name);
    std::vector<Measurement> all;
    for (const dwarfs::ProblemSize size : probe->supported_sizes()) {
      auto group = measure_all_devices(name, size, opts);
      all.insert(all.end(), std::make_move_iterator(group.begin()),
                 std::make_move_iterator(group.end()));
    }
    const std::string path = out_dir + "/" + name + ".dat";
    std::ofstream file(path);
    print_long_table(file, all);
    std::cout << name << ": " << all.size() << " measurement groups, "
              << all.size() * samples << " samples -> " << path << '\n';
    print_panel(std::cout, name + " (largest size)",
                {all.end() - std::min<std::size_t>(all.size(), 15),
                 all.end()});
    std::cout << '\n';
  }
  return 0;
}
