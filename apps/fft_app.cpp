// Standalone fft benchmark (Table 3: fft Phi).
//   fft_app [device options] -- <length (power of two)>
#include "app_common.hpp"
#include "dwarfs/fft/fft.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Fft dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::size_t n = std::stoul(apps::arg_or(
        a.benchmark_args, 0,
        std::to_string(dwarfs::Fft::length_for(
            a.cli.size.value_or(dwarfs::ProblemSize::kTiny)))));
    dwarf.configure(n);
    std::cout << "fft " << n << '\n';
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: fft_app [device options] -- <power-of-two "
                 "length>\n";
    return 2;
  }
}
