// Tests for the standalone applications' argument conventions (§4.4.5,
// Table 3): the "Benchmark Device -- Arguments" split and helpers.
#include <gtest/gtest.h>

#include "../apps/app_common.hpp"
#include "dwarfs/hmm/hmm.hpp"
#include "dwarfs/kmeans/kmeans.hpp"

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

}  // namespace
}  // namespace eod::apps
