// Suite-wide correctness check -- the paper's curation emphasis ("an
// increased emphasis on correctness of results"): runs every benchmark
// (including extensions) functionally at a chosen size and reports the
// serial-reference comparison for each, plus the footprint-vs-allocator
// check.
//
//   validate_suite [--size tiny|small] [device options]
#include <iomanip>
#include <iostream>

#include "dwarfs/registry.hpp"
#include "harness/cli.hpp"
#include "xcl/queue.hpp"

int main(int argc, const char** argv) {
  using namespace eod;
  harness::CliOptions cli;
  try {
    cli = harness::parse_cli(argc, argv);
    harness::require_no_positionals(cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << harness::usage(argv[0]) << '\n';
    return 2;
  }
  const dwarfs::ProblemSize requested =
      cli.size.value_or(dwarfs::ProblemSize::kTiny);
  xcl::Device& device = cli.resolve_device();

  std::cout << "Validating the suite on " << device.name() << " at "
            << to_string(requested) << "\n\n";
  std::cout << std::left << std::setw(10) << "benchmark" << std::setw(8)
            << "size" << std::setw(12) << "footprint" << std::setw(8)
            << "result" << "detail\n";

  int failures = 0;
  std::vector<std::string> names = dwarfs::benchmark_names();
  for (const auto& ext : dwarfs::extension_names()) names.push_back(ext);

  for (const std::string& name : names) {
    auto dwarf = dwarfs::create_dwarf(name);
    const auto sizes = dwarf->supported_sizes();
    const dwarfs::ProblemSize size =
        std::find(sizes.begin(), sizes.end(), requested) != sizes.end()
            ? requested
            : sizes.front();
    dwarf->setup(size);
    xcl::Context ctx(device);
    xcl::Queue q(ctx);
    dwarf->bind(ctx, q);
    const bool footprint_ok =
        ctx.allocated_bytes() <=
            dwarf->footprint_bytes(size) + dwarf->footprint_bytes(size) / 20 &&
        ctx.allocated_bytes() + 1024 >= dwarf->footprint_bytes(size);
    dwarf->run();
    dwarf->finish();
    const dwarfs::Validation v = dwarf->validate();
    dwarf->unbind();
    if (!v.ok || !footprint_ok) ++failures;
    std::cout << std::left << std::setw(10) << name << std::setw(8)
              << to_string(size) << std::setw(12)
              << (footprint_ok ? "matches" : "MISMATCH") << std::setw(8)
              << (v.ok ? "PASS" : "FAIL") << v.detail << '\n';
  }
  std::cout << '\n'
            << (failures == 0 ? "all benchmarks validate"
                              : "VALIDATION FAILURES PRESENT")
            << '\n';
  return failures == 0 ? 0 : 1;
}
