// Standalone dwt benchmark (Table 3: dwt -l 3 Phi-gum.ppm).
//   dwt_app [device options] -- -l <levels> [<width>x<height> | file.ppm]
#include "app_common.hpp"
#include "dwarfs/dwt/dwt.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Dwt dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const unsigned long levels =
        std::stoul(apps::flag_value(a.benchmark_args, "-l", "3"));
    dwarfs::Dwt::Extent e = dwarfs::Dwt::extent_for(
        a.cli.size.value_or(dwarfs::ProblemSize::kTiny));
    // Last positional: WxH geometry (the suite synthesizes the image, so a
    // Phi-gum.ppm name is honoured by its encoded geometry class).
    for (const std::string& arg : a.benchmark_args) {
      const auto x = arg.find('x');
      if (x != std::string::npos && arg.find(".ppm") == std::string::npos) {
        e.width = std::stoul(arg.substr(0, x));
        e.height = std::stoul(arg.substr(x + 1));
      }
    }
    // Reject before narrowing: -l 4294967297 must not wrap to 1.
    dwarfs::Dwt::require_levels(e, levels);
    dwarf.configure(e, static_cast<unsigned>(levels));
    std::cout << "dwt -l " << levels << ' ' << e.width << 'x' << e.height
              << "-gum.ppm\n";
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: dwt_app [device options] -- -l <levels> "
                 "<width>x<height>\n";
    return 2;
  }
}
