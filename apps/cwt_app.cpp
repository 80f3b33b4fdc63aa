// Standalone cwt extension benchmark (the continuous wavelet transform the
// paper planned to add, §2).
//   cwt_app [device options] -- <signal length> [<scales>]
#include "app_common.hpp"
#include "dwarfs/cwt/cwt.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Cwt dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::size_t n = std::stoul(apps::arg_or(
        a.benchmark_args, 0,
        std::to_string(dwarfs::Cwt::length_for(
            a.cli.size.value_or(dwarfs::ProblemSize::kTiny)))));
    const auto scales = static_cast<unsigned>(std::stoul(
        apps::arg_or(a.benchmark_args, 1,
                     std::to_string(dwarfs::Cwt::kScales))));
    dwarf.configure(n, scales);
    std::cout << "cwt " << n << ' ' << scales << " scales\n";
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: cwt_app [device options] -- <length >= 16> "
                 "[<scales>]\n";
    return 2;
  }
}
