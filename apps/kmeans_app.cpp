// Standalone kmeans benchmark (Table 3: kmeans -g -f 26 -p Phi).
//   kmeans_app [-p P -d D -t T] [--size S] -- -g -f <features> -p <points>
#include "app_common.hpp"
#include "dwarfs/kmeans/kmeans.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::KMeans dwarf;
    apps::require_supported_size(dwarf, a.cli);
    dwarfs::KMeans::Params params = dwarfs::KMeans::params_for(
        a.cli.size.value_or(dwarfs::ProblemSize::kTiny));
    // -g (generate random points) is implied: the suite always generates.
    params.features = static_cast<unsigned>(std::stoul(apps::flag_value(
        a.benchmark_args, "-f", std::to_string(params.features))));
    params.points = std::stoul(apps::flag_value(
        a.benchmark_args, "-p", std::to_string(params.points)));
    dwarf.configure(params);
    std::cout << "kmeans -g -f " << params.features << " -p "
              << params.points << '\n';
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: kmeans_app [device options] -- -g -f <features> "
                 "-p <points>\n";
    return 2;
  }
}
