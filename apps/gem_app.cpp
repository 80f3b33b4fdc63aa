// Standalone gem benchmark (Table 3: gem Phi 80 1 0; Phi is the molecule).
//   gem_app [device options] -- <molecule|atom count> 80 1 0
#include "app_common.hpp"
#include "dwarfs/gem/gem.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  using dwarfs::ProblemSize;
  try {
    const apps::SplitArgs a = apps::split_args(argc, argv);
    dwarfs::Gem dwarf;
    apps::require_supported_size(dwarf, a.cli);
    const std::string pqr = apps::flag_value(a.benchmark_args, "-i", "");
    if (!pqr.empty()) {
      dwarf.configure_with_molecule(dwarfs::load_pqr(pqr));
      std::cout << "gem -i " << pqr << " 80 1 0\n";
      return apps::run_configured(dwarf, a.cli);
    }
    std::size_t atoms =
        dwarfs::Gem::atoms_for(a.cli.size.value_or(ProblemSize::kTiny));
    std::string label = std::to_string(atoms) + " atoms";
    if (!a.benchmark_args.empty()) {
      const std::string& mol = a.benchmark_args.front();
      bool named = false;
      for (const ProblemSize s :
           {ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
            ProblemSize::kLarge}) {
        if (mol == dwarfs::Gem::molecule_for(s)) {
          atoms = dwarfs::Gem::atoms_for(s);
          label = mol;
          named = true;
        }
      }
      if (!named) {
        atoms = std::stoul(mol);
        label = mol + " atoms";
      }
    }
    dwarf.configure(atoms);
    std::cout << "gem " << label << " 80 1 0\n";
    return apps::run_configured(dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << "usage: gem_app [device options] -- "
                 "<4TUT|2D3V|nucleosome|1KX5|atom count|-i file.pqr> 80 1 "
                 "0\n";
    return 2;
  }
}
