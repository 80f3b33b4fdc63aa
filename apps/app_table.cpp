#include <iomanip>

#include "app_common.hpp"
#include "dwarfs/beff/beff.hpp"
#include "dwarfs/crc/crc.hpp"
#include "dwarfs/csr/csr_io.hpp"
#include "dwarfs/cwt/cwt.hpp"
#include "dwarfs/dwt/dwt.hpp"
#include "dwarfs/fft/fft.hpp"
#include "dwarfs/gem/gem.hpp"
#include "dwarfs/hmm/hmm.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/lud/lud.hpp"
#include "dwarfs/nqueens/nqueens.hpp"
#include "dwarfs/nw/nw.hpp"
#include "dwarfs/registry.hpp"
#include "dwarfs/srad/srad.hpp"

namespace eod::apps {

namespace {

using dwarfs::Dwarf;
using dwarfs::ProblemSize;
using harness::parse_number;

bool contains(const std::vector<std::string>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

/// <width>x<height>, each side a std::size_t; throws naming `what`.
dwarfs::Dwt::Extent to_extent(const std::string& what,
                              const std::string& token) {
  const std::size_t x = token.find('x');
  if (x == std::string::npos) {
    throw std::invalid_argument(what + " expects <width>x<height>; got " +
                                token);
  }
  return {parse_number<std::size_t>(what, token.substr(0, x)),
          parse_number<std::size_t>(what, token.substr(x + 1))};
}

/// Throws naming `label`, the token and the legal values unless `token` is
/// one of `a`'s words or a value of its kind.
void check_value(const Arg& a, const std::string& label,
                 const std::string& token) {
  if (contains(a.words, token)) return;
  std::string words;
  for (const std::string& w : a.words) words += (words.empty() ? "" : "|") + w;
  const std::string what = words.empty() ? label : label + " (" + words + ")";
  switch (a.kind) {
    case Kind::kU32: (void)parse_number<unsigned>(what, token); return;
    case Kind::kU64: (void)parse_number<std::size_t>(what, token); return;
    case Kind::kI32: (void)parse_number<std::int32_t>(what, token); return;
    case Kind::kF32: (void)parse_number<float>(what, token); return;
    case Kind::kF64: (void)parse_number<double>(what, token); return;
    case Kind::kExtent: (void)to_extent(what, token); return;
    case Kind::kPath: return;
    case Kind::kWord: break;
  }
  throw std::invalid_argument(label + " expects " + words + "; got " +
                              (a.flag.empty() ? "" : a.flag + " ") + token);
}

/// lud and nw: partitioned across the --devices set when it names more
/// than one device (DESIGN.md §14), else the single-device measurement.
template <class D, harness::PartitionedResult (*Partition)(
                       D&, const std::vector<xcl::Device*>&,
                       const harness::PartitionOptions&)>
int run_striped(Dwarf& dwarf, const harness::CliOptions& cli) {
  const std::vector<xcl::Device*> devices = cli.resolve_devices();
  if (devices.size() <= 1) return run_configured(dwarf, cli);
  // Record before the run so the per-device command spans are traced;
  // --profile alone traces to trace.json.
  std::string trace =
      !cli.trace_path.empty() ? cli.trace_path : obs::env_trace_path();
  if (trace.empty() && cli.profile) trace = "trace.json";
  if (!trace.empty()) {
    obs::reset_tracing();
    obs::set_thread_lane_name("harness");
    obs::set_tracing_enabled(true);
  }
  harness::PartitionOptions popts;
  popts.validate = true;
  popts.dispatch = cli.dispatch;
  const harness::PartitionedResult r =
      Partition(static_cast<D&>(dwarf), devices, popts);
  return report_partitioned(dwarf, r, cli, trace);
}

/// beff: the measurement, then the host-link bandwidth curve, then the
/// b_eff ring sweep over the peer links when --devices names several.
int run_beff(Dwarf& dwarf, const harness::CliOptions& cli) {
  const auto& beff = static_cast<const dwarfs::Beff&>(dwarf);
  const int code = run_configured(dwarf, cli);
  std::cout << "\nhost-link bandwidth sweep (GB/s):\n"
            << std::left << std::setw(12) << "bytes" << std::setw(10)
            << "write" << std::setw(10) << "read" << "bidir\n";
  for (const dwarfs::BeffPoint& p : beff.points()) {
    std::cout << std::left << std::setw(12) << p.bytes << std::setw(10)
              << p.write_gbs << std::setw(10) << p.read_gbs << p.bi_gbs
              << '\n';
  }
  const std::vector<xcl::Device*> devices = cli.resolve_devices();
  if (devices.size() > 1) {
    std::cout << "\nring sweep over " << devices.size()
              << " devices (aggregate GB/s):\n"
              << std::left << std::setw(12) << "bytes" << "ring\n";
    for (const harness::RingPoint& p :
         harness::ring_sweep(devices, beff.max_bytes())) {
      std::cout << std::left << std::setw(12) << p.bytes << p.ring_gbs
                << '\n';
    }
  }
  return code;
}

std::vector<std::string> molecule_names() {
  std::vector<std::string> names;
  for (const ProblemSize s : dwarfs::kAllSizes) {
    names.emplace_back(dwarfs::Gem::molecule_for(s));
  }
  return names;
}

}  // namespace

Values parse_args(const std::vector<Arg>& args,
                  const std::vector<std::string>& tokens) {
  Values v;
  std::vector<std::string> loose;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto a = std::find_if(args.begin(), args.end(), [&](const Arg& x) {
      return !x.flag.empty() && x.flag == tokens[i];
    });
    if (a == args.end()) {
      loose.push_back(tokens[i]);
      continue;
    }
    if (++i == tokens.size()) {
      throw std::invalid_argument(a->flag + " requires a value");
    }
    check_value(*a, a->flag, tokens[i]);
    if (!v.emplace(a->flag, tokens[i]).second) {
      throw std::invalid_argument(a->flag + " is given twice");
    }
  }
  // The given flag that replaces `key`, if any.
  const auto replacer = [&](const std::string& key) {
    return std::find_if(args.begin(), args.end(), [&](const Arg& r) {
      return v.count(r.flag) != 0 && contains(r.replaces, key);
    });
  };
  std::size_t next = 0;
  std::size_t position = 0;
  for (const Arg& a : args) {
    if (!a.flag.empty()) {
      const auto r = replacer(a.flag);
      if (v.count(a.flag) != 0 && r != args.end()) {
        throw std::invalid_argument(a.flag + " cannot be combined with " +
                                    r->flag);
      }
      continue;
    }
    ++position;
    if (next == loose.size() || replacer(a.name) != args.end()) continue;
    check_value(a,
                a.kind == Kind::kWord ? "position " + std::to_string(position)
                                      : "<" + a.name + ">",
                loose[next]);
    v.emplace(a.name, loose[next++]);
  }
  if (next < loose.size()) {
    throw std::invalid_argument("unexpected argument " + loose[next]);
  }
  return v;
}

std::string usage_line(const std::string& command,
                       const std::vector<Arg>& args) {
  std::string line = "usage: " + command;
  for (const Arg& a : args) {
    const std::string value =
        a.kind == Kind::kWord ? a.words.front() : "<" + a.name + ">";
    line += " [" + (a.flag.empty() ? value : a.flag + " " + value) + "]";
  }
  return line;
}

const std::vector<Row>& table() {
  using namespace dwarfs;
  static const std::vector<Row> rows = {
      {"kmeans",
       {{"", "-g", Kind::kWord, {"-g"}},  // implied: points are generated
        {"-f", "features", Kind::kU32},
        {"-p", "points", Kind::kU64}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         KMeans::Params p = KMeans::params_for(s);
         p.features = get(v, "-f", p.features);
         p.points = get(v, "-p", p.points);
         static_cast<KMeans&>(d).configure(p);
         echo << "kmeans -g -f " << p.features << " -p " << p.points;
       }},
      {"lud", {{"-s", "dimension", Kind::kU64}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const std::size_t n = get(v, "-s", Lud::dim_for(s));
         static_cast<Lud&>(d).configure(n);
         echo << "lud -s " << n;
       },
       run_striped<Lud, harness::run_partitioned_lud>},
      // `csr -i Psi` loads createcsr_app's file; -n/-d generate it in place.
      {"csr",
       {{"-i", "file.csr", Kind::kPath, {}, {"-n", "-d"}},
        {"-n", "dimension", Kind::kU64},
        {"-d", "density, 5000 = 0.5%", Kind::kF64}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         auto& csr = static_cast<Csr&>(d);
         if (v.count("-i")) {
           csr.configure_with_matrix(load_csr(v.at("-i")));
           echo << "csr -i " << v.at("-i");
           return;
         }
         const std::size_t n = get(v, "-n", Csr::dim_for(s));
         const double density = get(v, "-d", 5000.0);
         csr.configure(n, density / 1e6);
         echo << "createcsr -n " << n << " -d " << density << " | csr";
       }},
      {"fft", {{"", "length", Kind::kU64}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const std::size_t n = get(v, "length", Fft::length_for(s));
         static_cast<Fft&>(d).configure(n);
         echo << "fft " << n;
       }},
      // The suite synthesizes the Phi-gum.ppm image; its geometry is WxH.
      {"dwt",
       {{"-l", "levels", Kind::kU32}, {"", "WxH", Kind::kExtent}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const unsigned levels = get(v, "-l", Dwt::kLevels);
         const Dwt::Extent e =
             v.count("WxH") ? to_extent("<WxH>", v.at("WxH")) : Dwt::extent_for(s);
         static_cast<Dwt&>(d).configure(e, levels);
         echo << "dwt -l " << levels << ' ' << e.width << 'x' << e.height
              << "-gum.ppm";
       }},
      // The region of interest is fixed at the paper's 0 127 0 127.
      {"srad",
       {{"", "rows", Kind::kU64},
        {"", "cols", Kind::kU64},
        {"", "y1", Kind::kWord, {"0"}},
        {"", "y2", Kind::kWord, {"127"}},
        {"", "x1", Kind::kWord, {"0"}},
        {"", "x2", Kind::kWord, {"127"}},
        {"", "lambda", Kind::kF32},
        {"", "iterations", Kind::kU32}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const Srad::Extent e = Srad::extent_for(s);
         Srad::Params p;
         p.rows = get(v, "rows", e.rows);
         p.cols = get(v, "cols", e.cols);
         p.lambda = get(v, "lambda", p.lambda);
         p.iterations = get(v, "iterations", p.iterations);
         static_cast<Srad&>(d).configure(p);
         echo << "srad " << p.rows << ' ' << p.cols << " 0 127 0 127 "
              << p.lambda << ' ' << p.iterations;
       }},
      // The harness's >= 2 s loop replaces the paper's -i 1000 iterations;
      // the input file is generated, so its size is given directly.
      {"crc",
       {{"-i", "iterations", Kind::kWord, {"1000"}},
        {"", "bytes", Kind::kU64}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const std::size_t bytes = get(v, "bytes", Crc::buffer_bytes_for(s));
         static_cast<Crc&>(d).configure(bytes);
         echo << "crc -i 1000 " << bytes << ".txt";
       }},
      {"nw",
       {{"", "length", Kind::kU64}, {"", "penalty", Kind::kI32}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const std::size_t n = get(v, "length", Nw::length_for(s));
         const std::int32_t penalty = get(v, "penalty", Nw::kPenalty);
         static_cast<Nw&>(d).configure(n, penalty);
         echo << "nw " << n << ' ' << penalty;
       },
       run_striped<Nw, harness::run_partitioned_nw>},
      // Table 3's trailing 80 1 0 is fixed; -i loads a .pqr in place of
      // the molecule.
      {"gem",
       {{"-i", "file.pqr", Kind::kPath, {}, {"molecule"}},
        {"", "molecule", Kind::kU64, molecule_names()},
        {"", "80", Kind::kWord, {"80"}},
        {"", "1", Kind::kWord, {"1"}},
        {"", "0", Kind::kWord, {"0"}}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         auto& gem = static_cast<Gem&>(d);
         if (v.count("-i")) {
           gem.configure_with_molecule(load_pqr(v.at("-i")));
           echo << "gem -i " << v.at("-i") << " 80 1 0";
           return;
         }
         const std::string mol = v.count("molecule") ? v.at("molecule") : "";
         const std::vector<std::string> names = molecule_names();
         const auto named = std::find(names.begin(), names.end(), mol);
         if (named != names.end()) {
           gem.configure(Gem::atoms_for(kAllSizes[named - names.begin()]));
           echo << "gem " << mol << " 80 1 0";
           return;
         }
         const std::size_t atoms = get(v, "molecule", Gem::atoms_for(s));
         gem.configure(atoms);
         echo << "gem " << (mol.empty() ? std::to_string(atoms) : mol)
              << " atoms 80 1 0";
       }},
      {"nqueens", {{"", "board", Kind::kU32}},
       [](Dwarf& d, const Values& v, ProblemSize, std::ostream& echo) {
         const unsigned board = get(v, "board", Nqueens::kBoard);
         static_cast<Nqueens&>(d).configure(
             board, std::min(Nqueens::kDepth, board - 1));
         echo << "n-queens " << board;
       }},
      {"hmm",
       {{"-n", "states", Kind::kU32},
        {"-s", "symbols", Kind::kU32},
        {"-t", "sequence length", Kind::kU64},
        {"-v", "", Kind::kWord, {"s"}}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         Hmm::Params p = Hmm::params_for(s);
         p.states = get(v, "-n", p.states);
         p.symbols = get(v, "-s", p.symbols);
         static_cast<Hmm&>(d).configure(p, get(v, "-t", Hmm::kSeqLen));
         echo << "hmm -n " << p.states << " -s " << p.symbols << " -v s";
       }},
      {"cwt",
       {{"", "length", Kind::kU64}, {"", "scales", Kind::kU32}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const std::size_t n = get(v, "length", Cwt::length_for(s));
         const unsigned scales = get(v, "scales", Cwt::kScales);
         static_cast<Cwt&>(d).configure(n, scales);
         echo << "cwt " << n << ' ' << scales << " scales";
       }},
      {"beff",
       {{"", "max message bytes", Kind::kU64}},
       [](Dwarf& d, const Values& v, ProblemSize s, std::ostream& echo) {
         const std::size_t bytes =
             get(v, "max message bytes", Beff::max_message_for(s));
         static_cast<Beff&>(d).configure(bytes);
         echo << "beff " << bytes;
       },
       run_beff},
  };
  return rows;
}

int app_main(std::string_view name, int argc, const char** argv) {
  const auto row = std::find_if(table().begin(), table().end(),
                                [&](const Row& r) { return r.name == name; });
  if (row == table().end()) {
    std::cerr << "no Table 3 row for " << name << '\n';
    return 2;
  }
  const std::string command = row->name + "_app [device options] --";
  if (std::any_of(argv + 1, argv + argc, [](std::string_view t) {
        return t == "-h" || t == "--help";
      })) {
    std::cout << usage_line(command, row->args) << "\ndevice options:\n"
              << harness::usage(row->name + "_app");
    return 0;
  }
  try {
    const SplitArgs a = split_args(argc, argv);
    const std::unique_ptr<Dwarf> dwarf = dwarfs::create_dwarf(row->name);
    require_supported_size(*dwarf, a.cli);
    const Values values = parse_args(row->args, a.benchmark_args);
    row->configure(*dwarf, values, a.cli.size.value_or(ProblemSize::kTiny),
                   std::cout);
    std::cout << '\n';
    return row->run(*dwarf, a.cli);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << usage_line(command, row->args) << '\n';
    return 2;
  }
}

}  // namespace eod::apps
