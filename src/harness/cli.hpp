// Uniform command-line conventions for benchmark binaries, matching the
// paper's device-selection notation: every application takes
//   -p <platform> -d <device> -t <type>   (type: 0 = CPU, 1 = GPU, 2 = MIC)
// plus suite options (--size, --samples, --validate, ...), "allowing each
// device to be selected in a uniform way between applications" (§4.4.5).
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "xcl/device.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace eod::harness {

struct CliOptions {
  std::size_t platform = 0;
  std::size_t device = 0;
  int type = -1;  ///< -1 = any; 0 = CPU, 1 = GPU, 2 = accelerator (MIC)
  std::optional<std::string> device_name;  ///< --device-name "GTX 1080"
  /// --devices "GTX 1080,TITAN X": comma-separated testbed device names for
  /// partitioned multi-device runs (DESIGN.md §14).  Order defines the
  /// stripe order; repeats are allowed (homogeneous pairs).  Unknown names
  /// are a hard error (exit 2), never a silent fallback.
  std::vector<std::string> devices;
  std::optional<dwarfs::ProblemSize> size;
  std::size_t samples = 50;
  double min_loop_seconds = 2.0;
  bool validate = false;
  bool all_devices = false;  ///< sweep the whole testbed
  bool long_table = false;   ///< emit the R-compatible long table
  /// --dispatch auto|item|checked: kernel-tier override for A/B runs
  /// (DESIGN.md §9, §10); item pins the per-item reference path.  Unset
  /// defers to default_dispatch_mode() (the EOD_DISPATCH env hatch).
  std::optional<xcl::DispatchMode> dispatch;
  /// --queue inorder|ooo: measurement-queue execution mode (DESIGN.md §12).
  /// Unset defers to default_queue_mode() (the EOD_QUEUE env hatch).
  std::optional<xcl::QueueMode> queue_mode;
  /// --trace FILE: write a Chrome trace_event JSON of the run (DESIGN.md
  /// §11); empty = recorder off.  The EOD_TRACE env var is the no-recompile
  /// escape hatch apps consult when the flag is absent.
  std::string trace_path;
  /// --metrics FILE: write a process-metrics snapshot (.tsv → TSV, else
  /// JSON); empty = off.
  std::string metrics_path;
  /// --profile: run the eod_prof schedule analysis in-process on the
  /// written trace (implies a default --trace when absent) and record the
  /// report path in the manifest.
  bool profile = false;
  std::vector<std::string> positional;

  /// Resolves the requested device within the simulated testbed platform.
  [[nodiscard]] xcl::Device& resolve_device() const;

  /// Resolves the --devices set; falls back to {resolve_device()} when the
  /// flag is absent so callers have one code path.  Throws
  /// std::invalid_argument for names not in the testbed.
  [[nodiscard]] std::vector<xcl::Device*> resolve_devices() const;
};

/// The strict number parser of every command line in the suite: the whole
/// token must parse (std::from_chars) to a finite value in [lo, hi], checked
/// before any narrowing cast.  Otherwise throws std::invalid_argument
/// "<what> expects <legal values>; got [<what> if a flag] <token>".
/// Instantiated for int, unsigned, std::size_t, float and double.
template <class T>
T parse_number(const std::string& what, const std::string& token,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max());

/// Parses the uniform options; throws std::invalid_argument naming the flag
/// on malformed input.  Unrecognised tokens land in `positional`.
[[nodiscard]] CliOptions parse_cli(int argc, const char* const* argv);

/// Throws std::invalid_argument naming the first token parse_cli did not
/// recognise, for command lines that take no positional argument.
void require_no_positionals(const CliOptions& o);

/// The usage text shared by all benchmark binaries.
[[nodiscard]] std::string usage(const std::string& program);

}  // namespace eod::harness
