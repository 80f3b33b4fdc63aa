// Standalone nqueens benchmark (Table 3: n-queens Phi).
//   nqueens_app [device options] -- <board size>
#include "app_common.hpp"
#include "dwarfs/nqueens/nqueens.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Nqueens dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const auto board = static_cast<unsigned>(std::stoul(
        apps::arg_or(a.benchmark_args, 0,
                     std::to_string(dwarfs::Nqueens::kBoard))));
    const unsigned depth =
        std::min(dwarfs::Nqueens::kDepth, board - 1);
    dwarf.configure(board, depth);
    std::cout << "n-queens " << board << '\n';
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: nqueens_app [device options] -- <board size>\n";
    return 2;
  }
}
