#include "harness/cli.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "sim/testbed.hpp"

namespace eod::harness {

template <class T>
T parse_number(const std::string& what, const std::string& token, T lo,
               T hi) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  // NaN fails both comparisons and an infinity is past lowest() or max().
  if (ec == std::errc() && ptr == end && value >= lo && value <= hi) {
    return value;
  }
  std::ostringstream legal;
  if constexpr (std::is_floating_point_v<T>) {
    legal << "a finite number";
    if (lo > std::numeric_limits<T>::lowest()) legal << " >= " << lo;
  } else {
    legal << "an integer in [" << lo << ", " << hi << ']';
  }
  throw std::invalid_argument(what + " expects " + legal.str() + "; got " +
                              (what.starts_with('-') ? what + " " : "") +
                              token);
}

template int parse_number(const std::string&, const std::string&, int, int);
template unsigned parse_number(const std::string&, const std::string&,
                               unsigned, unsigned);
template std::size_t parse_number(const std::string&, const std::string&,
                                  std::size_t, std::size_t);
template float parse_number(const std::string&, const std::string&, float,
                            float);
template double parse_number(const std::string&, const std::string&, double,
                             double);

xcl::Device& CliOptions::resolve_device() const {
  xcl::Platform& p = sim::testbed_platform();
  (void)platform;  // single simulated platform; kept for CLI fidelity
  if (device_name.has_value()) return sim::testbed_device(*device_name);
  if (type < 0) return p.device(device);
  const xcl::DeviceType t = type == 0   ? xcl::DeviceType::kCpu
                            : type == 1 ? xcl::DeviceType::kGpu
                                        : xcl::DeviceType::kAccelerator;
  return p.select(device, t);
}

std::vector<xcl::Device*> CliOptions::resolve_devices() const {
  if (devices.empty()) return {&resolve_device()};
  std::vector<xcl::Device*> out;
  for (const std::string& name : devices) {
    try {
      out.push_back(&sim::testbed_device(name));
    } catch (const std::exception&) {
      throw std::invalid_argument("--devices: no testbed device named \"" +
                                  name + "\"");
    }
  }
  return out;
}

CliOptions parse_cli(int argc, const char* const* argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string original = argv[i];
    std::string arg = original;
    // Long options accept both "--flag value" and "--flag=value".
    std::optional<std::string> inline_value;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      }
    }
    auto next = [&](const std::string& flag) -> std::string {
      if (inline_value.has_value()) return *inline_value;
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " requires a value");
      }
      return argv[++i];
    };
    if (arg == "-p" || arg == "--platform") {
      o.platform = parse_number<std::size_t>(arg, next(arg));
    } else if (arg == "-d" || arg == "--device") {
      o.device = parse_number<std::size_t>(arg, next(arg));
    } else if (arg == "-t" || arg == "--type") {
      o.type = parse_number<int>(arg, next(arg), 0, 2);
    } else if (arg == "--device-name") {
      o.device_name = next(arg);
    } else if (arg == "--devices") {
      // Comma-separated testbed names; validated against the testbed at
      // resolve_devices() time so parse stays platform-free.
      const std::string v = next(arg);
      o.devices.clear();
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string name =
            v.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
        if (name.empty()) {
          throw std::invalid_argument(
              "--devices expects a comma-separated list of device names: " +
              v);
        }
        o.devices.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--size") {
      const std::string v = next(arg);
      const auto s = dwarfs::parse_problem_size(v);
      if (!s.has_value()) {
        throw std::invalid_argument("bad --size (tiny|small|medium|large): " +
                                    v);
      }
      o.size = s;
    } else if (arg == "--samples") {
      o.samples = parse_number<std::size_t>(arg, next(arg), 1);
    } else if (arg == "--min-loop-seconds") {
      o.min_loop_seconds = parse_number<double>(arg, next(arg), 0.0);
    } else if (arg == "--validate") {
      o.validate = true;
    } else if (arg == "--all-devices") {
      o.all_devices = true;
    } else if (arg == "--long-table") {
      o.long_table = true;
    } else if (arg == "--dispatch") {
      const std::string v = next(arg);
      const auto mode = xcl::parse_dispatch_mode(v);
      if (!mode.has_value()) {
        // Hard failure, never a silent fallback to auto: a run that quietly
        // measured the wrong tier is worse than no run.  The valid-mode
        // list comes from the executor so it cannot drift.
        throw std::invalid_argument(
            std::string("bad --dispatch (") + xcl::dispatch_mode_names() +
            "): " + v);
      }
      o.dispatch = *mode;
    } else if (arg == "--queue") {
      const std::string v = next(arg);
      const auto mode = xcl::parse_queue_mode(v);
      if (!mode.has_value()) {
        throw std::invalid_argument("bad --queue (inorder|ooo): " + v);
      }
      o.queue_mode = *mode;
    } else if (arg == "--trace") {
      o.trace_path = next(arg);
    } else if (arg == "--metrics") {
      o.metrics_path = next(arg);
    } else if (arg == "--profile") {
      o.profile = true;
    } else {
      o.positional.push_back(original);
    }
  }
  return o;
}

void require_no_positionals(const CliOptions& o) {
  if (o.positional.empty()) return;
  throw std::invalid_argument("unexpected argument " + o.positional.front());
}

std::string usage(const std::string& program) {
  return "usage: " + program +
         " [-p P] [-d D] [-t 0|1|2] [--device-name NAME]\n"
         "          [--devices \"NAME,NAME,...\"]\n"
         "          [--size tiny|small|medium|large] [--samples N]\n"
         "          [--min-loop-seconds S] [--validate] [--all-devices]\n"
         "          [--long-table] [--dispatch " +
         std::string(xcl::dispatch_mode_names()) +
         "]\n"
         "          [--queue inorder|ooo] [--trace FILE] [--metrics FILE]\n"
         "          [--profile]\n"
         "device selection follows the paper's notation: -p <platform>\n"
         "-d <device index within type> -t <0=CPU, 1=GPU, 2=MIC>\n"
         "--trace writes a chrome://tracing JSON; --metrics a process\n"
         "metrics snapshot (.tsv for TSV); either also writes manifest.json\n"
         "(EOD_TRACE=1 enables tracing without the flag)\n"
         "--profile runs the eod_prof schedule analysis on the written\n"
         "trace (implying --trace trace.json when absent) and records the\n"
         "report path in the manifest\n"
         "--queue ooo lets dependency-expressed dwarfs overlap transfers\n"
         "with compute (EOD_QUEUE=ooo sets the default without the flag)\n"
         "--dispatch item pins the per-item reference path (auto runs each\n"
         "kernel's fast span body; EOD_DISPATCH sets the tier without the\n"
         "flag)\n"
         "--devices partitions supporting dwarfs (nw, lud) across several\n"
         "simulated devices over the modeled interconnect (DESIGN.md 14)\n";
}

}  // namespace eod::harness
