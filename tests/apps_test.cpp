// Tests for the standalone applications' argument conventions (§4.4.5,
// Table 3): the "Benchmark Device -- Arguments" split, the argument table's
// parser, and the built app binaries' exit status and messages.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "../apps/app_common.hpp"
#include "dwarfs/csr/csr_io.hpp"
#include "dwarfs/gem/gem.hpp"
#include "dwarfs/hmm/hmm.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/registry.hpp"
#include "obs/analysis/json.hpp"

namespace eod::apps {
namespace {

TEST(SplitArgs, SeparatesDeviceAndBenchmarkArguments) {
  const char* argv[] = {"kmeans", "-p", "1",  "-d", "0", "-t", "1",
                        "--",     "-g", "-f", "26", "-p", "65600"};
  const SplitArgs s = split_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(s.cli.platform, 1u);
  EXPECT_EQ(s.cli.type, 1);
  // The benchmark's own -p must not be eaten by the device parser.
  ASSERT_EQ(s.benchmark_args.size(), 5u);
  EXPECT_EQ(s.benchmark_args[0], "-g");
  const Values v = parse_args(table().front().args, s.benchmark_args);
  EXPECT_EQ(v.at("-p"), "65600");
  EXPECT_EQ(v.at("-f"), "26");
}

TEST(SplitArgs, NoSeparatorFallsBackToPositionals) {
  const char* argv[] = {"fft", "--size", "small", "4096"};
  const SplitArgs s = split_args(4, argv);
  ASSERT_TRUE(s.cli.size.has_value());
  ASSERT_EQ(s.benchmark_args.size(), 1u);
  EXPECT_EQ(s.benchmark_args[0], "4096");
}

TEST(SplitArgs, EmptyBenchmarkSection) {
  const char* argv[] = {"crc", "-d", "2", "--"};
  const SplitArgs s = split_args(4, argv);
  EXPECT_EQ(s.cli.device, 2u);
  EXPECT_TRUE(s.benchmark_args.empty());
}

// A retired or misspelled tier is an argument error naming the legal set;
// every app's handler prints it and exits 2 before any setup runs.
TEST(SplitArgs, UnknownDispatchModeIsRejectedNamingTheLegalSet) {
  const char* argv[] = {"kmeans", "--dispatch", "simd", "--", "-g"};
  try {
    (void)split_args(static_cast<int>(std::size(argv)), argv);
    FAIL() << "--dispatch simd was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad --dispatch (auto|item|checked): simd");
  }
}

TEST(RunConfigured, ExecutesAndValidates) {
  dwarfs::KMeans dwarf;
  dwarfs::KMeans::Params p;
  p.points = 512;
  p.features = 8;
  p.rounds = 3;
  dwarf.configure(p);
  harness::CliOptions cli;
  cli.samples = 3;
  testing::internal::CaptureStdout();
  const int rc = run_configured(dwarf, cli);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("validation: PASS"), std::string::npos);
  EXPECT_NE(out.find("kmeans_assign"), std::string::npos);
}

TEST(RequireSupportedSize, RejectsUnsupportedSizeNamingSupportedOnes) {
  // hmm validates only at tiny: any other --size must be refused before
  // setup, not at enqueue time as an invalid work-group size.
  dwarfs::Hmm hmm;
  harness::CliOptions cli;
  cli.size = dwarfs::ProblemSize::kSmall;
  try {
    require_supported_size(hmm, cli);
    FAIL() << "hmm accepted --size small";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "hmm does not support --size small; supported: tiny");
  }
  cli.size = dwarfs::ProblemSize::kTiny;
  EXPECT_NO_THROW(require_supported_size(hmm, cli));
  cli.size.reset();  // no --size: the app's own arguments decide
  EXPECT_NO_THROW(require_supported_size(hmm, cli));
  cli.size = dwarfs::ProblemSize::kLarge;
  EXPECT_NO_THROW(require_supported_size(dwarfs::KMeans(), cli));
}

// ---------------------------------------------------------------------------
// Out-of-range Table 3 arguments must fail in configure(): the app prints
// the legal ranges and its usage line and exits 2 -- never a signal, never
// a runtime error at bind.

struct AppExit {
  int status = 0;
  std::string out;  // the app's standard output
  std::string err;  // the app's standard error
};

std::string slurp_and_remove(const std::string& path) {
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  std::filesystem::remove(path);
  return text.str();
}

// Runs a built app in `cwd` (the test's own directory when empty).
AppExit run_app(const std::string& app, const std::vector<std::string>& args,
                const std::filesystem::path& cwd = {}) {
  const std::string path = std::string(EOD_APP_DIR) + "/" + app;
  const std::string stem =
      (std::filesystem::temp_directory_path() /
       ("eod_apps_test_" + app + "_" + std::to_string(::getpid())))
          .string();
  const std::string out_path = stem + ".out";
  const std::string err_path = stem + ".err";
  std::vector<std::string> owned = {path};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (!cwd.empty()) {
    posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());
  }
  AppExit out;
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, path.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    ADD_FAILURE() << "cannot spawn " << path;
    return out;
  }
  ::waitpid(pid, &out.status, 0);
  out.out = slurp_and_remove(out_path);
  out.err = slurp_and_remove(err_path);
  return out;
}

void expect_usage_exit(const AppExit& r, const std::string& legal) {
  ASSERT_FALSE(WIFSIGNALED(r.status)) << "killed by signal "
                                      << WTERMSIG(r.status);
  ASSERT_TRUE(WIFEXITED(r.status));
  EXPECT_EQ(WEXITSTATUS(r.status), 2) << r.err;
  EXPECT_NE(r.err.find(legal), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
}

TEST(AppArgs, KmeansFewerPointsThanClustersExitsWithUsage) {
  expect_usage_exit(run_app("kmeans_app", {"--", "-g", "-f", "26", "-p", "0"}),
                    "points >= clusters (5)");
}

TEST(AppArgs, KmeansZeroFeaturesExitsWithUsage) {
  expect_usage_exit(run_app("kmeans_app", {"--", "-f", "0"}),
                    "features >= 1");
}

TEST(AppArgs, CsrZeroDimensionExitsWithUsage) {
  expect_usage_exit(run_app("csr_app", {"--", "-n", "0"}), "n >= 1");
}

TEST(AppArgs, CsrDensityAboveOneExitsWithUsage) {
  // 2e6 per million asks for more distinct columns per row than exist.
  expect_usage_exit(run_app("csr_app", {"--", "-n", "10", "-d", "2000000"}),
                    "0 <= density <= 1");
}

TEST(AppArgs, DwtLevelsBeyondTheExtentExitWithUsage) {
  // The tiny 72x54 image halves six times before a side drops below 2;
  // -l 40 used to print "dwt -l 40" and run six levels.
  expect_usage_exit(run_app("dwt_app", {"--", "-l", "40"}),
                    "72x54 image supports 1..6 levels");
}

TEST(AppArgs, DwtLevelsPastUnsignedRangeDoNotWrap) {
  // 2^32 + 1 used to wrap to 1 level in the cast to unsigned.
  expect_usage_exit(run_app("dwt_app", {"--", "-l", "4294967297"}),
                    "got -l 4294967297");
}

// n * n used to wrap to 0 elements, and the app segfaulted writing the
// diagonal; configure() now rejects the product before sizing anything.
TEST(AppArgs, LudDimensionWhoseSquareOverflowsExitsWithUsage) {
  expect_usage_exit(run_app("lud_app", {"--", "-s", "4294967296"}),
                    "lud: n x n = 4294967296 x 4294967296 elements overflow");
}

// Every token must be consumed by a declared argument: these used to be
// ignored while the app ran its defaults and exited 0.
TEST(AppArgs, UnknownDeviceOptionExitsNamingIt) {
  expect_usage_exit(run_app("lud_app", {"--bogus"}),
                    "unexpected argument --bogus");
  expect_usage_exit(run_app("lud_app", {"--bogus", "--", "-s", "16"}),
                    "unexpected argument --bogus");
}

TEST(AppArgs, UnknownTable3FlagExitsNamingIt) {
  expect_usage_exit(run_app("lud_app", {"--", "-z", "3"}),
                    "unexpected argument -z");
}

TEST(AppArgs, ExtraPositionalExitsNamingIt) {
  // hmm takes flags only; this used to run -n 8 -s 1.
  expect_usage_exit(run_app("hmm_app", {"--", "5", "5", "5", "5"}),
                    "unexpected argument 5");
}

// Values past 32 bits used to wrap in the cast to unsigned and run.
TEST(AppArgs, NqueensBoardPastUnsignedRangeDoesNotWrap) {
  expect_usage_exit(run_app("nqueens_app", {"--", "4294967304"}),
                    "<board> expects an integer in [0, 4294967295]; got "
                    "4294967304");
}

TEST(AppArgs, HmmStatesPastUnsignedRangeDoNotWrap) {
  expect_usage_exit(run_app("hmm_app", {"--", "-n", "4294967298"}),
                    "-n expects an integer in [0, 4294967295]; got -n "
                    "4294967298");
}

TEST(AppArgs, SradIterationsPastUnsignedRangeDoNotWrap) {
  expect_usage_exit(run_app("srad_app", {"--", "64", "64", "0", "127", "0",
                                         "127", "0.5", "4294967297"}),
                    "<iterations> expects an integer in [0, 4294967295]; "
                    "got 4294967297");
}

TEST(AppArgs, CwtScalesPastUnsignedRangeDoNotWrap) {
  expect_usage_exit(run_app("cwt_app", {"--", "256", "4294967297"}),
                    "<scales> expects an integer in [0, 4294967295]; got "
                    "4294967297");
}

// std::stoul read these as 300 and 3.
TEST(AppArgs, DecimalIntegerExitsNamingIt) {
  expect_usage_exit(run_app("kmeans_app", {"--", "-p", "300.7"}),
                    "got -p 300.7");
}

TEST(AppArgs, TrailingGarbageIntegerExitsNamingIt) {
  expect_usage_exit(run_app("kmeans_app", {"--", "-f", "3x"}),
                    "-f expects an integer in [0, 4294967295]; got -f 3x");
}

// These used to print only "stoul" (or "stod") before the usage line.
TEST(AppArgs, BadValueNamesTheTokenAndTheLegalKind) {
  expect_usage_exit(run_app("srad_app", {"--", "-x", "5"}),
                    "<rows> expects an integer in [0, 18446744073709551615]; "
                    "got -x");
  expect_usage_exit(run_app("nw_app", {"--", "-q", "1"}),
                    "<length> expects an integer");
  expect_usage_exit(run_app("crc_app", {"--", "abc"}),
                    "<bytes> expects an integer");
  expect_usage_exit(run_app("kmeans_app", {"--min-loop-seconds", "abc"}),
                    "--min-loop-seconds expects a finite number >= 0; got "
                    "--min-loop-seconds abc");
}

// The ROI and gem's trailing 80 1 0 are not honoured by the dwarfs, so only
// the paper's values are accepted; any other value used to be ignored.
TEST(AppArgs, FixedPositionsAcceptOnlyThePapersValues) {
  expect_usage_exit(
      run_app("srad_app", {"--", "64", "64", "0", "127", "0", "5"}),
      "position 6 expects 127; got 5");
  expect_usage_exit(run_app("gem_app", {"--", "300", "81", "1", "0"}),
                    "position 2 expects 80; got 81");
}

// DESIGN.md §4: --help shows the Table 3 arguments without running.
TEST(AppArgs, HelpPrintsTheUsageAndExitsWithoutSetup) {
  for (const std::string app : {"lud_app", "crc_app"}) {
    for (const std::string flag : {"--help", "-h"}) {
      const AppExit r = run_app(app, {flag});
      ASSERT_TRUE(WIFEXITED(r.status)) << app;
      EXPECT_EQ(WEXITSTATUS(r.status), 0) << r.err;
      EXPECT_EQ(r.out.rfind("usage: " + app + " [device options] --", 0), 0u)
          << r.out;
      EXPECT_NE(r.out.find("--min-loop-seconds"), std::string::npos)
          << r.out;
      EXPECT_EQ(r.out.find("validation:"), std::string::npos) << r.out;
    }
  }
}

TEST(AppArgs, ValidateSuiteRejectsAnUnknownToken) {
  const AppExit r = run_app("validate_suite", {"--size", "tiny", "tinyy"});
  ASSERT_TRUE(WIFEXITED(r.status));
  EXPECT_EQ(WEXITSTATUS(r.status), 2) << r.err;
  EXPECT_NE(r.err.find("unexpected argument tinyy"), std::string::npos)
      << r.err;
}

TEST(AppArgs, CreatecsrRejectsUnknownFlagsAndMalformedNumbers) {
  expect_usage_exit(run_app("createcsr_app", {"-n", "12x"}),
                    "-n expects an integer");
  expect_usage_exit(run_app("createcsr_app", {"-q", "5"}),
                    "unexpected argument -q");
}

TEST(AppArgs, ManifestLandsBesideTheTrace) {
  // The manifest used to land in the working directory whatever directory
  // --trace named, away from the artifacts it points at.
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("eod_apps_test_manifest_" + std::to_string(::getpid()));
  const fs::path cwd = root / "cwd";
  const fs::path out = root / "out";
  fs::create_directories(cwd);
  fs::create_directories(out);
  const AppExit r = run_app(
      "kmeans_app", {"--size", "tiny", "--trace=" + (out / "t.json").string()},
      cwd);
  ASSERT_TRUE(WIFEXITED(r.status)) << r.err;
  EXPECT_EQ(WEXITSTATUS(r.status), 0) << r.err;
  EXPECT_TRUE(fs::is_empty(cwd)) << "artifacts written to the working dir";
  std::vector<fs::path> manifests;
  for (const fs::directory_entry& e : fs::directory_iterator(out)) {
    if (e.path().filename().string().starts_with("manifest")) {
      manifests.push_back(e.path());
    }
  }
  ASSERT_EQ(manifests.size(), 1u);
  const prof::Json manifest = prof::load_json(manifests[0].string());
  const fs::path trace = manifest.string_or("trace_path", "");
  EXPECT_EQ(trace.parent_path(), out);
  EXPECT_TRUE(fs::is_regular_file(trace)) << trace;
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Seeded property test over every row of the table.  Legal argument lists
// parse, and configure() then either succeeds or throws -- before any setup,
// which never runs here.  A list with one illegal token (past the width,
// negative, decimal, trailing garbage, unknown flag, extra positional) fails
// to parse.  Legal numbers are at most 1024 and sizes tiny or small, so each
// configure() allocates a few MiB at most (gem's named molecules up to
// 1KX5's atom count aside).

using Rng = std::mt19937_64;

std::size_t below(Rng& rng, std::size_t n) { return rng() % n; }

std::string legal_value(const Arg& a, Rng& rng,
                        const std::vector<std::string>& files) {
  const auto count = [&] {
    return std::to_string(below(rng, 4) == 0 ? std::size_t{256}
                                                   << below(rng, 3)
                                             : below(rng, 301));
  };
  if (!a.words.empty() && (a.kind == Kind::kWord || below(rng, 3) == 0)) {
    return a.words[below(rng, a.words.size())];
  }
  switch (a.kind) {
    case Kind::kU32:
    case Kind::kU64: return count();
    case Kind::kI32:
      return std::to_string(static_cast<long>(below(rng, 306)) - 5);
    case Kind::kF32:
    case Kind::kF64: {
      static const char* const reals[] = {"0",  "0.25", "0.5", "1",
                                          "1.5", "2500", "5000", "2e6"};
      return reals[below(rng, std::size(reals))];
    }
    case Kind::kExtent: return count() + "x" + count();
    case Kind::kPath: return files[below(rng, files.size())];
    case Kind::kWord: break;
  }
  return "";
}

// A value `a` must refuse, by one of four faults; empty when the fault does
// not apply to its kind.
std::string illegal_value(const Arg& a, std::size_t fault) {
  const bool integer =
      a.kind == Kind::kU32 || a.kind == Kind::kU64 || a.kind == Kind::kI32;
  switch (fault) {
    case 0:  // past the width
      switch (a.kind) {
        case Kind::kU32: return "4294967296";
        case Kind::kU64: return "18446744073709551616";
        case Kind::kI32: return "2147483648";
        case Kind::kF32: return "1e39";
        case Kind::kF64: return "1e309";
        default: return "";
      }
    case 1:  // negative
      return a.kind == Kind::kU32 || a.kind == Kind::kU64 ? "-7" : "";
    case 2:  // decimal
      return integer ? "3.5" : "";
    default:  // trailing garbage
      return a.kind == Kind::kPath ? "" : "3x";
  }
}

std::vector<std::string> draw_tokens(const Row& row, Rng& rng,
                                     const std::vector<std::string>& files,
                                     bool legal) {
  // (argument, value) pairs: a random set of flags, then a random prefix of
  // the positions the drawn flags do not replace.
  std::vector<std::pair<const Arg*, std::string>> drawn;
  const auto replaced = [&](const std::string& key) {
    return std::any_of(drawn.begin(), drawn.end(), [&](const auto& d) {
      const std::vector<std::string>& r = d.first->replaces;
      return std::find(r.begin(), r.end(), key) != r.end();
    });
  };
  std::vector<const Arg*> positions;
  for (const Arg& a : row.args) {
    if (a.flag.empty()) {
      positions.push_back(&a);
    } else if (below(rng, 2) == 0 && !replaced(a.flag)) {
      drawn.emplace_back(&a, legal_value(a, rng, files));
    }
  }
  std::erase_if(positions, [&](const Arg* a) { return replaced(a->name); });
  const std::size_t fault = below(rng, 6);
  std::size_t filled = below(rng, positions.size() + 1);
  if (!legal && fault == 5) filled = positions.size();
  for (std::size_t i = 0; i < filled; ++i) {
    drawn.emplace_back(positions[i], legal_value(*positions[i], rng, files));
  }
  std::vector<std::string> extra;
  if (!legal) {
    std::vector<std::size_t> faultable;
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      if (fault < 4 && !illegal_value(*drawn[i].first, fault).empty()) {
        faultable.push_back(i);
      }
    }
    if (!faultable.empty()) {
      auto& [arg, value] = drawn[faultable[below(rng, faultable.size())]];
      value = illegal_value(*arg, fault);
    } else if (fault == 5) {
      extra = {"7"};  // every position is taken
    } else {
      extra = {"-z", "3"};  // no row declares -z
    }
  }
  std::vector<std::string> tokens;
  for (const auto& [arg, value] : drawn) {
    if (!arg->flag.empty()) tokens.push_back(arg->flag);
    tokens.push_back(value);
  }
  tokens.insert(tokens.end(), extra.begin(), extra.end());
  return tokens;
}

TEST(AppArgs, SeededArgumentsParseOrFailAtConfigure) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("eod_apps_test_inputs_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::vector<std::string> files = {(dir / "m.csr").string(),
                                          (dir / "m.pqr").string(),
                                          (dir / "missing").string()};
  dwarfs::save_csr(dwarfs::create_csr(64, 0.05, 1), files[0]);
  dwarfs::save_pqr(dwarfs::generate_molecule(100, 1), files[1]);

  Rng rng(0x7461626c6533ull);  // "table3"
  for (const Row& row : table()) {
    int configured = 0;
    for (int i = 0; i < 40; ++i) {
      const bool legal = i % 2 == 0;
      const std::vector<std::string> tokens =
          draw_tokens(row, rng, files, legal);
      std::string line = row.name + "_app --";
      for (const std::string& t : tokens) line += " " + t;
      SCOPED_TRACE(line);
      Values values;
      try {
        values = parse_args(row.args, tokens);
      } catch (const std::invalid_argument& e) {
        EXPECT_FALSE(legal) << "legal list refused: " << e.what();
        continue;
      }
      EXPECT_TRUE(legal) << "illegal list accepted";
      const std::unique_ptr<dwarfs::Dwarf> dwarf =
          dwarfs::create_dwarf(row.name);
      const std::vector<dwarfs::ProblemSize> sizes = dwarf->supported_sizes();
      const dwarfs::ProblemSize size =
          below(rng, 2) == 0 && std::find(sizes.begin(), sizes.end(),
                                          dwarfs::ProblemSize::kSmall) !=
                                    sizes.end()
              ? dwarfs::ProblemSize::kSmall
              : dwarfs::ProblemSize::kTiny;
      try {
        std::ostringstream echo;
        row.configure(*dwarf, values, size, echo);
        ++configured;
      } catch (const std::exception&) {
        // a configure-time refusal of an out-of-range value
      }
    }
    EXPECT_GT(configured, 0) << row.name;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace eod::apps
