// Standalone b_eff interconnect benchmark (effective-bandwidth sweep).
//   beff_app [device options] -- [max message bytes]
// Prints the host-link bandwidth curve (unidirectional write/read and the
// bidirectional echo) for the selected device; with --devices "A,B,..."
// also sweeps the b_eff ring pattern over the modeled peer links
// (DESIGN.md §14).
#include <iomanip>

#include "app_common.hpp"
#include "dwarfs/beff/beff.hpp"
#include "harness/partition.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Beff dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::size_t max_bytes = std::stoul(apps::arg_or(
        a.benchmark_args, 0,
        std::to_string(dwarfs::Beff::max_message_for(
            a.cli.size.value_or(dwarfs::ProblemSize::kTiny)))));
    dwarf.configure(max_bytes);
    std::cout << "beff " << max_bytes << '\n';
    const int code = apps::run_configured(dwarf, a.cli);

    std::cout << "\nhost-link bandwidth sweep (GB/s):\n"
              << std::left << std::setw(12) << "bytes" << std::setw(10)
              << "write" << std::setw(10) << "read" << "bidir\n";
    for (const dwarfs::BeffPoint& p : dwarf.points()) {
      std::cout << std::left << std::setw(12) << p.bytes << std::setw(10)
                << p.write_gbs << std::setw(10) << p.read_gbs << p.bi_gbs
                << '\n';
    }

    const std::vector<xcl::Device*> devices = a.cli.resolve_devices();
    if (devices.size() > 1) {
      std::cout << "\nring sweep over " << devices.size()
                << " devices (aggregate GB/s):\n"
                << std::left << std::setw(12) << "bytes" << "ring\n";
      for (const harness::RingPoint& p :
           harness::ring_sweep(devices, max_bytes)) {
        std::cout << std::left << std::setw(12) << p.bytes << p.ring_gbs
                  << '\n';
      }
    }
    return code;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: beff_app [device options] -- <max message bytes "
                 "(power of two >= 1024)>\n";
    return 2;
  }
}
