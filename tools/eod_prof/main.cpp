// eod_prof CLI (DESIGN.md §16).  Three subcommands over a run's artifacts:
//   profile   — event-DAG critical path, slack, lane utilization, overlap
//   roofline  — compute/memory-bound placement per (dwarf, device)
//   regress   — BENCH_*.json trajectory gate against a baseline directory
// Exit codes: 0 ok / clean, 1 regression detected, 2 usage / IO error.
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dwarfs/registry.hpp"
#include "obs/analysis/profile.hpp"
#include "obs/analysis/regress.hpp"
#include "obs/analysis/roofline.hpp"

namespace {

constexpr const char* kUsage =
    "usage: eod_prof <command> [options]\n"
    "\n"
    "commands:\n"
    "  profile   analyze one run's trace: critical path, per-command\n"
    "            slack, makespan attribution, lane utilization, overlap\n"
    "            efficiency; refuses (exit 2) a trace whose ring\n"
    "            dropped events\n"
    "    --trace <path>      Chrome trace to analyze\n"
    "    --manifest <path>   run manifest (resolves the trace and the\n"
    "                        device's interconnect peak)\n"
    "    --peak-gbs <x>      override the link-saturation peak\n"
    "    --format text|tsv|json   (default: text)\n"
    "  roofline  place benchmarks on modeled devices' rooflines\n"
    "    --size <s>          tiny|small|medium|large (default: tiny)\n"
    "    --devices <a,b>     Table 1 device names (default: i7-6700K)\n"
    "    --benchmarks <a,b>  benchmarks (default: the whole suite)\n"
    "    --format text|tsv|json   (default: text)\n"
    "  regress   compare BENCH_*.json trees; non-zero on regression\n"
    "    --baseline <dir>    checked-in baseline reports\n"
    "    --current <dir>     freshly produced reports\n"
    "    --wall              also gate wall-clock metrics (machine-bound)\n"
    "    --filter <a,b>      only compare keys containing one of these\n"
    "                        substrings (e.g. \"modeled,gbs\" restricts a\n"
    "                        cross-machine gate to deterministic values)\n"
    "    --value-tolerance <f>  relative drift allowed (default: 0.10)\n"
    "    --wall-tolerance <f>   wall median drift allowed (default: 0.25)\n"
    "    --verdict <path>    write the JSON verdict here even on failure\n"
    "common:\n"
    "  --out <path>          write the report to <path> instead of stdout\n";

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;
  std::vector<std::string> flags;

  [[nodiscard]] std::string option(const std::string& name,
                                   const std::string& fallback = {}) const {
    for (const auto& [k, v] : options) {
      if (k == name) return v;
    }
    return fallback;
  }
  [[nodiscard]] bool flag(const std::string& name) const {
    for (const std::string& f : flags) {
      if (f == name) return true;
    }
    return false;
  }
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    if (name == "wall") {
      args.flags.push_back(name);
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "eod_prof: --" << name << " needs a value\n";
      return false;
    }
    args.options.emplace_back(name, argv[++i]);
  }
  return true;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int emit(const Args& args, const std::string& report) {
  const std::string out_path = args.option("out");
  if (out_path.empty()) {
    std::cout << report;
    return 0;
  }
  std::ofstream f(out_path, std::ios::trunc);
  if (!f) {
    std::cerr << "eod_prof: cannot write " << out_path << "\n";
    return 2;
  }
  f << report;
  return f.good() ? 0 : 2;
}

int run_profile(const Args& args) {
  eod::prof::ProfileInputs inputs;
  inputs.trace_path = args.option("trace");
  inputs.manifest_path = args.option("manifest");
  if (const std::string peak = args.option("peak-gbs"); !peak.empty()) {
    inputs.transfer_peak_gbs = std::stod(peak);
  }
  if (inputs.trace_path.empty() && inputs.manifest_path.empty()) {
    std::cerr << "eod_prof profile: need --trace or --manifest\n";
    return 2;
  }
  const eod::prof::ProfileReport report = eod::prof::profile_run(inputs);
  const std::string format = args.option("format", "text");
  if (format == "tsv") return emit(args, report.schedule.to_tsv());
  if (format == "json") return emit(args, report.to_json());
  return emit(args, report.to_text());
}

int run_roofline(const Args& args) {
  const std::string size_name = args.option("size", "tiny");
  const auto size = eod::dwarfs::parse_problem_size(size_name);
  if (!size.has_value()) {
    std::cerr << "eod_prof roofline: unknown size '" << size_name << "'\n";
    return 2;
  }
  std::vector<std::string> devices =
      split_list(args.option("devices", "i7-6700K"));
  std::vector<std::string> benchmarks =
      split_list(args.option("benchmarks"));
  if (benchmarks.empty()) {
    benchmarks = eod::dwarfs::benchmark_names();
    for (const std::string& e : eod::dwarfs::extension_names()) {
      benchmarks.push_back(e);
    }
  }
  const eod::prof::RooflineReport report =
      eod::prof::roofline(benchmarks, *size, devices);
  const std::string format = args.option("format", "text");
  if (format == "tsv") return emit(args, report.to_tsv());
  if (format == "json") return emit(args, report.to_json());
  return emit(args, report.to_text());
}

int run_regress(const Args& args) {
  const std::string baseline = args.option("baseline");
  const std::string current = args.option("current");
  if (baseline.empty() || current.empty()) {
    std::cerr << "eod_prof regress: need --baseline and --current\n";
    return 2;
  }
  eod::prof::RegressOptions options;
  options.include_wall = args.flag("wall");
  options.key_filter = args.option("filter");
  if (const std::string t = args.option("value-tolerance"); !t.empty()) {
    options.value_tolerance = std::stod(t);
  }
  if (const std::string t = args.option("wall-tolerance"); !t.empty()) {
    options.wall_tolerance = std::stod(t);
  }
  const eod::prof::RegressVerdict verdict =
      eod::prof::compare_trajectory(baseline, current, options);
  // The verdict file is written before the exit status is decided so CI
  // can upload it even when the gate goes red.
  if (const std::string path = args.option("verdict"); !path.empty()) {
    std::ofstream f(path, std::ios::trunc);
    if (!f) {
      std::cerr << "eod_prof: cannot write " << path << "\n";
      return 2;
    }
    f << verdict.to_json();
  }
  const int status = emit(args, verdict.to_text());
  if (status != 0) return status;
  return verdict.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.positional.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string& command = args.positional.front();
  try {
    if (command == "profile") return run_profile(args);
    if (command == "roofline") return run_roofline(args);
    if (command == "regress") return run_regress(args);
  } catch (const std::exception& e) {
    std::cerr << "eod_prof " << command << ": " << e.what() << "\n";
    return 2;
  }
  std::cerr << "eod_prof: unknown command '" << command << "'\n"
            << kUsage;
  return 2;
}
