// createcsr -- the matrix generator of Table 3: `createcsr -n Phi -d 5000`
// writes the sparse matrix file (Psi) that the csr benchmark loads with
// `csr -i Psi`.
//
//   createcsr_app -n <dimension> -d <density, 5000 = 0.5%> [-o <file>]
#include <iostream>

#include "app_common.hpp"
#include "dwarfs/csr/csr_io.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  const std::vector<apps::Arg> args = {
      {"-n", "dimension", apps::Kind::kU64},
      {"-d", "density, 5000 = 0.5%", apps::Kind::kF64},
      {"-o", "file", apps::Kind::kPath}};
  try {
    const apps::Values v =
        apps::parse_args(args, std::vector<std::string>(argv + 1, argv + argc));
    const std::size_t n = apps::get<std::size_t>(v, "-n", 736);
    const double d = apps::get(v, "-d", 5000.0);
    const std::string out =
        v.count("-o") ? v.at("-o") : std::to_string(n) + ".csr";
    const dwarfs::CsrMatrix m = dwarfs::create_csr(n, d / 1e6, 0x637372ull);
    dwarfs::save_csr(m, out);
    std::cout << "createcsr -n " << n << " -d " << d << ": wrote " << out
              << " (" << m.n << "x" << m.n << ", " << m.nnz()
              << " nonzeros, " << m.bytes() / 1024.0 << " KiB)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n'
              << apps::usage_line("createcsr_app", args) << '\n';
    return 2;
  }
}
