// Standalone csr benchmark (Table 3: `csr -i Psi`, where Psi is the file
// written by createcsr -n Phi -d 5000).  Accepts either `-i <file>` (the
// paper's two-stage workflow, see createcsr_app) or direct generator
// parameters `-n <dimension> -d <density, 5000 = 0.5%>`.
#include "app_common.hpp"
#include "dwarfs/csr/csr_io.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Csr dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::string file = apps::flag_value(a.benchmark_args, "-i", "");
    if (!file.empty()) {
      dwarf.configure_with_matrix(dwarfs::load_csr(file));
      std::cout << "csr -i " << file << '\n';
      return apps::run_configured(dwarf, a.cli);
    }
    const std::size_t n = std::stoul(apps::flag_value(
        a.benchmark_args, "-n",
        std::to_string(dwarfs::Csr::dim_for(
            a.cli.size.value_or(dwarfs::ProblemSize::kTiny)))));
    // Table 3 footnote: -d 5000 means 0.5% dense (per ten-mille).
    const double d =
        std::stod(apps::flag_value(a.benchmark_args, "-d", "5000"));
    dwarf.configure(n, d / 1e6);
    std::cout << "createcsr -n " << n << " -d " << d << " | csr\n";
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: csr_app [device options] -- -i <file.csr>\n"
                 "       csr_app [device options] -- -n <dim> -d <density "
                 "(5000 = 0.5%)>\n";
    return 2;
  }
}
