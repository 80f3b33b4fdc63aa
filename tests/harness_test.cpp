// Tests for the measurement harness: runner methodology (2 s loop, 50
// samples), CLI conventions, report formatting and the auto-tuner.
#include <gtest/gtest.h>

#include <sstream>

#include "dwarfs/registry.hpp"
#include "harness/autotune.hpp"
#include "harness/cli.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/testbed.hpp"

namespace eod::harness {
namespace {

MeasureOptions quick_options() {
  MeasureOptions o;
  o.samples = 50;
  o.functional = true;
  o.validate = true;
  return o;
}

TEST(Runner, ProducesFiftyValidatedSamples) {
  auto dwarf = dwarfs::create_dwarf("crc");
  const Measurement m =
      measure(*dwarf, dwarfs::ProblemSize::kTiny,
              sim::testbed_device("i7-6700K"), quick_options());
  EXPECT_EQ(m.time_samples_ms.size(), 50u);
  EXPECT_EQ(m.energy_samples_j.size(), 50u);
  EXPECT_TRUE(m.validated);
  EXPECT_TRUE(m.validation.ok) << m.validation.detail;
  EXPECT_GT(m.kernel_seconds, 0.0);
  EXPECT_GT(m.energy_joules, 0.0);
  ASSERT_FALSE(m.segments.empty());
  EXPECT_EQ(m.segments[0].kernel, "crc_page");
}

TEST(Runner, LoopFloorGuaranteesTwoSeconds) {
  auto dwarf = dwarfs::create_dwarf("crc");
  const Measurement m =
      measure(*dwarf, dwarfs::ProblemSize::kTiny,
              sim::testbed_device("i7-6700K"), quick_options());
  // §2: each benchmark runs in a loop for a minimum of two seconds.
  EXPECT_GE(static_cast<double>(m.loop_iterations) * m.kernel_seconds, 2.0);
}

TEST(Runner, SamplesAreDeterministicPerSeed) {
  auto d1 = dwarfs::create_dwarf("crc");
  auto d2 = dwarfs::create_dwarf("crc");
  const auto a = measure(*d1, dwarfs::ProblemSize::kTiny,
                         sim::testbed_device("GTX 1080"), quick_options());
  const auto b = measure(*d2, dwarfs::ProblemSize::kTiny,
                         sim::testbed_device("GTX 1080"), quick_options());
  EXPECT_EQ(a.time_samples_ms, b.time_samples_ms);
  MeasureOptions other = quick_options();
  other.seed = 2;
  auto d3 = dwarfs::create_dwarf("crc");
  const auto c = measure(*d3, dwarfs::ProblemSize::kTiny,
                         sim::testbed_device("GTX 1080"), other);
  EXPECT_NE(a.time_samples_ms, c.time_samples_ms);
}

TEST(Runner, SamplesScatterAroundModeledMean) {
  auto dwarf = dwarfs::create_dwarf("csr");
  const Measurement m =
      measure(*dwarf, dwarfs::ProblemSize::kSmall,
              sim::testbed_device("K20m"), quick_options());
  const scibench::Summary s = m.time_summary();
  EXPECT_NEAR(s.mean, m.kernel_seconds * 1e3, 0.2 * m.kernel_seconds * 1e3);
  EXPECT_GT(s.cov(), 0.0);
  EXPECT_LT(s.cov(), 0.25);
}

TEST(Runner, SweepCoversWholeTestbed) {
  MeasureOptions o = quick_options();
  const auto all =
      measure_all_devices("crc", dwarfs::ProblemSize::kTiny, o);
  ASSERT_EQ(all.size(), 15u);
  EXPECT_EQ(all.front().device, "Xeon E5-2697 v2");
  EXPECT_EQ(all.back().device, "Xeon Phi 7210");
  // The functional pass validates once; every entry carries samples.
  EXPECT_TRUE(all.front().validated);
  for (const auto& m : all) {
    EXPECT_EQ(m.time_samples_ms.size(), 50u);
    EXPECT_GT(m.kernel_seconds, 0.0);
  }
}

TEST(Cli, ParsesPaperNotation) {
  const char* argv[] = {"bench", "-p", "1",  "-d",       "0",
                        "-t",    "0",  "--size", "medium",   "--samples",
                        "10",    "--validate", "extra"};
  const CliOptions o = parse_cli(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.platform, 1u);
  EXPECT_EQ(o.device, 0u);
  EXPECT_EQ(o.type, 0);
  ASSERT_TRUE(o.size.has_value());
  EXPECT_EQ(*o.size, dwarfs::ProblemSize::kMedium);
  EXPECT_EQ(o.samples, 10u);
  EXPECT_TRUE(o.validate);
  ASSERT_EQ(o.positional.size(), 1u);
  EXPECT_EQ(o.positional[0], "extra");
  EXPECT_EQ(o.resolve_device().name(), "Xeon E5-2697 v2");
}

TEST(Cli, ResolveByNameAndType) {
  {
    const char* argv[] = {"bench", "--device-name", "R9 Fury X"};
    EXPECT_EQ(parse_cli(3, argv).resolve_device().name(), "R9 Fury X");
  }
  {
    const char* argv[] = {"bench", "-d", "0", "-t", "1"};
    EXPECT_EQ(parse_cli(5, argv).resolve_device().name(), "Titan X");
  }
  {
    const char* argv[] = {"bench", "-d", "0", "-t", "2"};
    EXPECT_EQ(parse_cli(5, argv).resolve_device().name(), "Xeon Phi 7210");
  }
}

TEST(Cli, RejectsBadInput) {
  {
    const char* argv[] = {"bench", "--size", "gigantic"};
    EXPECT_THROW((void)parse_cli(3, argv), std::invalid_argument);
  }
  {
    const char* argv[] = {"bench", "-t", "7"};
    EXPECT_THROW((void)parse_cli(3, argv), std::invalid_argument);
  }
  {
    const char* argv[] = {"bench", "-d"};
    EXPECT_THROW((void)parse_cli(2, argv), std::invalid_argument);
  }
  EXPECT_NE(usage("prog").find("-t <0=CPU"), std::string::npos);
}

// The uniform options go through the strict number parser: a malformed or
// out-of-range value throws naming its flag, the token and the legal range.
std::string cli_error(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  try {
    (void)parse_cli(static_cast<int>(argv.size()), argv.data());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(HarnessCli, SamplesMustBeAtLeastOne) {
  // --samples 0 used to report a mean of 0 ms over 0 samples and exit 0.
  EXPECT_EQ(cli_error({"--samples", "0"}),
            "--samples expects an integer in [1, 18446744073709551615]; got "
            "--samples 0");
  EXPECT_EQ(cli_error({"--samples=1"}), "accepted");
}

TEST(HarnessCli, MinLoopSecondsMustBeFiniteAndNonNegative) {
  for (const char* bad : {"-5", "inf", "nan", "1e999", "abc", "2s"}) {
    EXPECT_EQ(cli_error({"--min-loop-seconds", bad}),
              std::string("--min-loop-seconds expects a finite number >= 0; "
                          "got --min-loop-seconds ") +
                  bad);
  }
  EXPECT_EQ(cli_error({"--min-loop-seconds", "0"}), "accepted");
  EXPECT_EQ(cli_error({"--min-loop-seconds", "0.25"}), "accepted");
}

TEST(HarnessCli, IntegersRejectTrailingGarbage) {
  // std::stoull read each of these as 2 (or 1).
  EXPECT_EQ(cli_error({"-p", "2x"}),
            "-p expects an integer in [0, 18446744073709551615]; got -p 2x");
  EXPECT_EQ(cli_error({"-d", "2x"}),
            "-d expects an integer in [0, 18446744073709551615]; got -d 2x");
  EXPECT_EQ(cli_error({"-t", "1x"}),
            "-t expects an integer in [0, 2]; got -t 1x");
  EXPECT_EQ(cli_error({"--samples", "2x"}),
            "--samples expects an integer in [1, 18446744073709551615]; got "
            "--samples 2x");
  EXPECT_EQ(cli_error({"-d", "-1"}),
            "-d expects an integer in [0, 18446744073709551615]; got -d -1");
}

TEST(HarnessCli, LeftoverTokensAreNamed) {
  const char* argv[] = {"bench", "--size", "tiny", "tinyy"};
  const CliOptions o = parse_cli(4, argv);
  try {
    require_no_positionals(o);
    FAIL() << "tinyy was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unexpected argument tinyy");
  }
}

TEST(Report, PanelAndLongTableContainAllDevices) {
  MeasureOptions o = quick_options();
  o.samples = 3;
  const auto all = measure_all_devices("crc", dwarfs::ProblemSize::kTiny, o);
  std::ostringstream panel;
  print_panel(panel, "fig1 tiny", all);
  std::ostringstream table;
  print_long_table(table, all);
  for (const auto& m : all) {
    EXPECT_NE(panel.str().find(m.device), std::string::npos) << m.device;
    EXPECT_NE(table.str().find(m.device), std::string::npos) << m.device;
  }
  // 15 devices x 3 samples + header.
  std::size_t lines = 0;
  for (const char c : table.str()) lines += c == '\n';
  EXPECT_EQ(lines, 15u * 3u + 1u);
}

TEST(Report, TablesRender) {
  std::ostringstream t1;
  print_table1(t1);
  EXPECT_NE(t1.str().find("Xeon E5-2697 v2"), std::string::npos);
  EXPECT_NE(t1.str().find("RX 480"), std::string::npos);
  std::ostringstream t2;
  print_table2(t2);
  EXPECT_NE(t2.str().find("kmeans"), std::string::npos);
  EXPECT_NE(t2.str().find("3648x2736"), std::string::npos);
}

TEST(Autotune, WideWavefrontDevicePrefersLargeGroups) {
  xcl::WorkloadProfile p;
  p.flops = 1e9;
  p.bytes_read = 1e7;
  p.working_set_bytes = 1e7;
  const TuneResult amd = autotune_work_group(
      sim::testbed_device("R9 290X"), 1 << 20, p);
  EXPECT_GE(amd.work_group, 64u);  // full 64-wide wavefronts
  const auto sweep = sweep_work_group_sizes(
      sim::testbed_device("R9 290X"), 1 << 20, p);
  ASSERT_GE(sweep.size(), 2u);
  EXPECT_LE(sweep.front().modeled_seconds, sweep.back().modeled_seconds);
}

TEST(Autotune, RespectsDeviceLimits) {
  xcl::WorkloadProfile p;
  p.flops = 1e8;
  const auto sweep = sweep_work_group_sizes(
      sim::testbed_device("R9 290X"), 1 << 16, p);
  for (const TuneResult& r : sweep) {
    EXPECT_LE(r.work_group,
              sim::testbed_device("R9 290X").info().max_work_group_size);
  }
  // Tiny launches cannot use oversized groups.
  const auto tiny = sweep_work_group_sizes(
      sim::testbed_device("i7-6700K"), 8, p);
  for (const TuneResult& r : tiny) EXPECT_LE(r.work_group, 8u);
}

TEST(Autotune, AllCandidatesLargerThanLaunchStillTunes) {
  // Every explicit candidate exceeds global_items: the sweep is empty and
  // the tuner must fall back to a single-item group, not crash or return
  // an oversized one.
  xcl::WorkloadProfile p;
  p.flops = 1e6;
  const auto sweep = sweep_work_group_sizes(
      sim::testbed_device("i7-6700K"), 4, p, {8, 16, 32});
  EXPECT_TRUE(sweep.empty());
  const TuneResult r =
      autotune_work_group(sim::testbed_device("i7-6700K"), 4, p, {8, 16, 32});
  EXPECT_EQ(r.work_group, 1u);
  EXPECT_GT(r.modeled_seconds, 0.0);
}

}  // namespace
}  // namespace eod::harness
