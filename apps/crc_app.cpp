// Standalone crc benchmark (Table 3: crc -i 1000 Phi.txt).  The input file
// is generated; pass the size directly.
//   crc_app [device options] -- -i <iterations> <bytes>
#include "app_common.hpp"
#include "dwarfs/crc/crc.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Crc dwarf;
    apps::require_supported_size(dwarf, a.cli);
    std::size_t bytes = dwarfs::Crc::buffer_bytes_for(
        a.cli.size.value_or(dwarfs::ProblemSize::kTiny));
    for (std::size_t i = 0; i < a.benchmark_args.size(); ++i) {
      if (a.benchmark_args[i] == "-i") {
        ++i;  // iteration count is handled by the harness's >=2 s loop
        continue;
      }
      bytes = std::stoul(a.benchmark_args[i]);
    }
    dwarf.configure(bytes);
    std::cout << "crc -i 1000 " << bytes << ".txt\n";
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: crc_app [device options] -- -i <iters> <bytes>\n";
    return 2;
  }
}
