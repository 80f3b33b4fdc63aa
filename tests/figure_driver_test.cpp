// Tests for the shared figure-regeneration driver (bench/figure_common.hpp):
// size filtering, KNL inclusion, long-table output and validation mode.
#include <gtest/gtest.h>

#include <sstream>

#include "../bench/figure_common.hpp"

namespace eod::bench {
namespace {

int run_capturing(const FigureSpec& spec, std::vector<const char*> argv,
                  std::string* out) {
  argv.insert(argv.begin(), "figure_test");
  testing::internal::CaptureStdout();
  const int rc = run_figure(spec, static_cast<int>(argv.size()),
                            argv.data());
  *out = testing::internal::GetCapturedStdout();
  return rc;
}

FigureSpec crc_spec() {
  FigureSpec spec;
  spec.figure = "Test Figure";
  spec.benchmark = "crc";
  spec.sizes = {dwarfs::ProblemSize::kTiny, dwarfs::ProblemSize::kSmall};
  spec.include_knl = true;
  return spec;
}

TEST(FigureDriver, PanelsForEveryRequestedSize) {
  std::string out;
  const int rc = run_capturing(crc_spec(), {"--samples", "3"}, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("== crc tiny =="), std::string::npos);
  EXPECT_NE(out.find("== crc small =="), std::string::npos);
  EXPECT_NE(out.find("Xeon Phi 7210"), std::string::npos);  // KNL included
}

TEST(FigureDriver, SizeFlagNarrowsTheSweep) {
  std::string out;
  const int rc = run_capturing(crc_spec(),
                               {"--samples", "3", "--size", "small"}, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(out.find("== crc tiny =="), std::string::npos);
  EXPECT_NE(out.find("== crc small =="), std::string::npos);
}

TEST(FigureDriver, KnlOmittedWhenSpecSaysSo) {
  FigureSpec spec = crc_spec();
  spec.include_knl = false;
  std::string out;
  run_capturing(spec, {"--samples", "3", "--size", "tiny"}, &out);
  EXPECT_EQ(out.find("Xeon Phi 7210"), std::string::npos);
}

TEST(FigureDriver, LongTableModeEmitsSamples) {
  std::string out;
  const int rc = run_capturing(
      crc_spec(), {"--samples", "2", "--size", "tiny", "--long-table"},
      &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("benchmark device class size sample time_ms"),
            std::string::npos);
  // 15 devices x 2 samples of data rows.
  std::size_t rows = 0;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("crc ", 0) == 0) ++rows;
  }
  EXPECT_EQ(rows, 30u);
}

TEST(FigureDriver, ValidateModeRunsTheReference) {
  std::string out;
  const int rc = run_capturing(
      crc_spec(), {"--samples", "2", "--size", "tiny", "--validate"}, &out);
  EXPECT_EQ(rc, 0);  // validation passes -> exit 0
}

TEST(FigureDriver, BadArgumentsReportUsage) {
  FigureSpec spec = crc_spec();
  const char* argv[] = {"figure_test", "--size", "nonsense"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run_figure(spec, 3, argv);
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(FigureDriver, UnknownTokenReportsUsage) {
  // A stray token used to be ignored while the default sweep ran.
  FigureSpec spec = crc_spec();
  const char* argv[] = {"figure_test", "--size", "tiny", "--lng-table"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run_figure(spec, 4, argv);
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unexpected argument --lng-table"), std::string::npos);
}

}  // namespace
}  // namespace eod::bench
