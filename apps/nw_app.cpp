// Standalone nw benchmark (Table 3: nw Phi 10).
//   nw_app [device options] -- <length> <penalty>
// With --devices "A,B,..." the wavefront is partitioned across several
// simulated devices over the modeled interconnect (DESIGN.md §14).
#include "app_common.hpp"
#include "dwarfs/nw/nw.hpp"
#include "harness/partition.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Nw dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::size_t n = std::stoul(apps::arg_or(
        a.benchmark_args, 0,
        std::to_string(dwarfs::Nw::length_for(
            a.cli.size.value_or(dwarfs::ProblemSize::kTiny)))));
    const auto penalty = static_cast<std::int32_t>(
        std::stol(apps::arg_or(a.benchmark_args, 1, "10")));
    dwarf.configure(n, penalty);
    std::cout << "nw " << n << ' ' << penalty << '\n';
    const std::vector<xcl::Device*> devices = a.cli.resolve_devices();
    if (devices.size() > 1) {
      const std::string trace = apps::begin_partitioned_trace(a.cli);
      harness::PartitionOptions popts;
      popts.validate = true;
      popts.dispatch = a.cli.dispatch;
      const harness::PartitionedResult r =
          harness::run_partitioned_nw(dwarf, devices, popts);
      return apps::report_partitioned(dwarf, r, a.cli, trace);
    }
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: nw_app [device options] -- <length (multiple of "
                 "16)> <penalty>\n";
    return 2;
  }
}
