// Standalone hmm benchmark (Table 3: hmm -n Phi1 -s Phi2 -v s).
//   hmm_app [device options] -- -n <states> -s <symbols> [-t <seq len>]
#include "app_common.hpp"
#include "dwarfs/hmm/hmm.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Hmm dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const auto preset = dwarfs::Hmm::params_for(
        a.cli.size.value_or(dwarfs::ProblemSize::kTiny));
    dwarfs::Hmm::Params p;
    p.states = static_cast<unsigned>(std::stoul(apps::flag_value(
        a.benchmark_args, "-n", std::to_string(preset.states))));
    p.symbols = static_cast<unsigned>(std::stoul(apps::flag_value(
        a.benchmark_args, "-s", std::to_string(preset.symbols))));
    const std::size_t t = std::stoul(apps::flag_value(
        a.benchmark_args, "-t", std::to_string(dwarfs::Hmm::kSeqLen)));
    dwarf.configure(p, t);
    std::cout << "hmm -n " << p.states << " -s " << p.symbols << " -v s\n";
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: hmm_app [device options] -- -n <states> -s "
                 "<symbols> [-t <sequence length>]\n";
    return 2;
  }
}
