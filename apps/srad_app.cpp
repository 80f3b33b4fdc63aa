// Standalone srad benchmark
// (Table 3: srad Phi1 Phi2 0 127 0 127 0.5 1).
//   srad_app [device options] -- <rows> <cols> <y1> <y2> <x1> <x2>
//            <lambda> <iterations>
#include "app_common.hpp"
#include "dwarfs/srad/srad.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Srad dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const auto preset = dwarfs::Srad::extent_for(
        a.cli.size.value_or(dwarfs::ProblemSize::kTiny));
    dwarfs::Srad::Params p;
    p.rows = std::stoul(
        apps::arg_or(a.benchmark_args, 0, std::to_string(preset.rows)));
    p.cols = std::stoul(
        apps::arg_or(a.benchmark_args, 1, std::to_string(preset.cols)));
    // args 2-5 are the ROI (fixed 0..127 in the paper; informational here).
    p.lambda = std::stof(apps::arg_or(a.benchmark_args, 6, "0.5"));
    p.iterations = static_cast<unsigned>(
        std::stoul(apps::arg_or(a.benchmark_args, 7, "1")));
    dwarf.configure(p);
    std::cout << "srad " << p.rows << ' ' << p.cols << " 0 127 0 127 "
              << p.lambda << ' ' << p.iterations << '\n';
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: srad_app [device options] -- <rows> <cols> 0 127 "
                 "0 127 <lambda> <iters>\n";
    return 2;
  }
}
