// Standalone lud benchmark (Table 3: lud -s Phi).
//   lud_app [device options] -- -s <matrix dimension>
// With --devices "A,B,..." the factorization is partitioned across several
// simulated devices over the modeled interconnect (DESIGN.md §14).
#include "app_common.hpp"
#include "dwarfs/lud/lud.hpp"
#include "harness/partition.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Lud dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::size_t n = std::stoul(apps::flag_value(
        a.benchmark_args, "-s",
        std::to_string(dwarfs::Lud::dim_for(
            a.cli.size.value_or(dwarfs::ProblemSize::kTiny)))));
    dwarf.configure(n);
    std::cout << "lud -s " << n << '\n';
    const std::vector<xcl::Device*> devices = a.cli.resolve_devices();
    if (devices.size() > 1) {
      const std::string trace = apps::begin_partitioned_trace(a.cli);
      harness::PartitionOptions popts;
      popts.validate = true;
      popts.dispatch = a.cli.dispatch;
      const harness::PartitionedResult r =
          harness::run_partitioned_lud(dwarf, devices, popts);
      return apps::report_partitioned(dwarf, r, a.cli, trace);
    }
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: lud_app [device options] -- -s <dimension "
                 "(multiple of 16)>\n";
    return 2;
  }
}
