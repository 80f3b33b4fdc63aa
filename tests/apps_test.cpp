// Tests for the standalone applications' argument conventions (§4.4.5,
// Table 3): the "Benchmark Device -- Arguments" split and helpers, and the
// built app binaries' exit status on out-of-range arguments.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "../apps/app_common.hpp"
#include "dwarfs/hmm/hmm.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
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
  EXPECT_EQ(flag_value(s.benchmark_args, "-p", "0"), "65600");
  EXPECT_EQ(flag_value(s.benchmark_args, "-f", "0"), "26");
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

TEST(Helpers, ArgOrAndFlags) {
  const std::vector<std::string> args = {"100", "32", "-v", "s"};
  EXPECT_EQ(arg_or(args, 0, "x"), "100");
  EXPECT_EQ(arg_or(args, 9, "fallback"), "fallback");
  EXPECT_TRUE(has_flag(args, "-v"));
  EXPECT_FALSE(has_flag(args, "-q"));
  EXPECT_EQ(flag_value(args, "-v", "none"), "s");
  EXPECT_EQ(flag_value(args, "-z", "none"), "none");
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
  std::string err;  // the app's standard error
};

// Runs a built app in `cwd` (the test's own directory when empty).
AppExit run_app(const std::string& app, const std::vector<std::string>& args,
                const std::filesystem::path& cwd = {}) {
  const std::string path = std::string(EOD_APP_DIR) + "/" + app;
  const std::string err_path =
      (std::filesystem::temp_directory_path() /
       ("eod_apps_test_" + app + "_" + std::to_string(::getpid()) + ".err"))
          .string();
  std::vector<std::string> owned = {path};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
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
  std::ostringstream err;
  err << std::ifstream(err_path).rdbuf();
  out.err = err.str();
  std::filesystem::remove(err_path);
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

}  // namespace
}  // namespace eod::apps
