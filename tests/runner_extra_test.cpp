// Edge cases and additional coverage for the measurement harness, report
// formatting, the file logger, and the trace-fed memory model.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dwarfs/registry.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "scibench/logger.hpp"
#include "sim/perf_model.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::harness {
namespace {

using dwarfs::ProblemSize;

TEST(RunnerEdge, ZeroSamplesProducesEmptyDistributions) {
  MeasureOptions o;
  o.samples = 0;
  o.functional = false;
  auto dwarf = dwarfs::create_dwarf("crc");
  const Measurement m = measure(*dwarf, ProblemSize::kTiny,
                                sim::testbed_device("i7-6700K"), o);
  EXPECT_TRUE(m.time_samples_ms.empty());
  EXPECT_TRUE(m.energy_samples_j.empty());
  EXPECT_GT(m.kernel_seconds, 0.0);  // the modeled iteration still exists
  EXPECT_EQ(m.time_summary().n, 0u);
}

TEST(RunnerEdge, TinyLoopFloorStillMeasures) {
  MeasureOptions o;
  o.functional = false;
  o.min_loop_seconds = 0.0;  // degenerate floor: one iteration per sample
  auto dwarf = dwarfs::create_dwarf("crc");
  const Measurement m = measure(*dwarf, ProblemSize::kTiny,
                                sim::testbed_device("i7-6700K"), o);
  EXPECT_EQ(m.loop_iterations, 1u);
  EXPECT_EQ(m.time_samples_ms.size(), 50u);
}

TEST(RunnerEdge, SegmentsCoverEveryKernel) {
  MeasureOptions o;
  o.functional = false;
  auto dwarf = dwarfs::create_dwarf("srad");
  const Measurement m = measure(*dwarf, ProblemSize::kTiny,
                                sim::testbed_device("GTX 1080"), o);
  ASSERT_EQ(m.segments.size(), 2u);  // srad_cuda_1, srad_cuda_2
  double sum = 0.0;
  for (const KernelSegment& s : m.segments) {
    // Each stencil pass runs as a top and a bottom row band (the halo-
    // exchange decomposition, DESIGN.md §12).
    EXPECT_EQ(s.launches, 2u);
    sum += s.modeled_seconds;
  }
  EXPECT_NEAR(sum, m.kernel_seconds, 1e-12);
  EXPECT_GT(m.transfer_seconds, 0.0);  // J upload + read-back
}

// The fourteen model-only devices of a sweep move no bytes, so the host
// result the functional pass validated survives the sweep.  lud and nw
// compute in place: a model-only readback would copy the raw upload back.
TEST(RunnerEdge, SweepKeepsTheValidatedResult) {
  MeasureOptions o;
  o.samples = 1;
  o.min_loop_seconds = 0.0;
  o.validate = true;
  for (const char* name : {"lud", "nw"}) {
    SCOPED_TRACE(name);
    auto once = dwarfs::create_dwarf(name);
    const Measurement m = measure(*once, ProblemSize::kTiny,
                                  *sim::testbed_devices().front(), o);
    ASSERT_TRUE(m.validation.ok);
    auto swept = dwarfs::create_dwarf(name);
    const std::vector<Measurement> all =
        measure_all_devices(*swept, ProblemSize::kTiny, o);
    ASSERT_EQ(all.size(), 15u);
    EXPECT_TRUE(all.front().validation.ok);
    EXPECT_EQ(swept->result_signature(), once->result_signature());
  }
}

TEST(RunnerEdge, EnergySamplesUseInstrumentNoise) {
  MeasureOptions o;
  o.functional = false;
  auto dwarf = dwarfs::create_dwarf("fft");
  const Measurement cpu = measure(*dwarf, ProblemSize::kMedium,
                                  sim::testbed_device("i7-6700K"), o);
  o.reuse_setup = true;
  const Measurement gpu = measure(*dwarf, ProblemSize::kMedium,
                                  sim::testbed_device("GTX 1080"), o);
  // The instrument (RAPL / NVML) adds measurement noise on top of the
  // run-to-run time spread: energy CoV must exceed time CoV on both.
  EXPECT_GT(cpu.energy_summary().cov(), cpu.time_summary().cov());
  EXPECT_GT(gpu.energy_summary().cov(), gpu.time_summary().cov());
}

TEST(ReportExtra, EnergyPanelRendersBothDevices) {
  MeasureOptions o;
  o.functional = false;
  o.samples = 3;
  auto dwarf = dwarfs::create_dwarf("crc");
  std::vector<Measurement> ms;
  ms.push_back(measure(*dwarf, ProblemSize::kTiny,
                       sim::testbed_device("i7-6700K"), o));
  o.reuse_setup = true;
  ms.push_back(measure(*dwarf, ProblemSize::kTiny,
                       sim::testbed_device("GTX 1080"), o));
  std::ostringstream os;
  print_energy_panel(os, "test", ms);
  EXPECT_NE(os.str().find("i7-6700K"), std::string::npos);
  EXPECT_NE(os.str().find("GTX 1080"), std::string::npos);
  EXPECT_NE(os.str().find("mean(J)"), std::string::npos);
}

TEST(ReportExtra, LongTableIsMachineReadable) {
  MeasureOptions o;
  o.functional = false;
  o.samples = 2;
  auto dwarf = dwarfs::create_dwarf("crc");
  const Measurement m = measure(*dwarf, ProblemSize::kTiny,
                                sim::testbed_device("K20m"), o);
  std::ostringstream os;
  print_long_table(os, {m});
  std::istringstream in(os.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "benchmark device class size sample time_ms energy_j");
  // Device and class columns are quoted (they may contain spaces, e.g.
  // "HPC GPU"); parse the numeric columns from the token tail.
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row.rfind("crc ", 0), 0u);
  EXPECT_NE(row.find("\"K20m\""), std::string::npos);
  EXPECT_NE(row.find("\"HPC GPU\""), std::string::npos);
  EXPECT_NE(row.find(" tiny "), std::string::npos);
  std::vector<std::string> tokens;
  std::istringstream rs(row);
  for (std::string t; rs >> t;) tokens.push_back(t);
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[tokens.size() - 3], "0");  // sample index
  EXPECT_GT(std::stod(tokens[tokens.size() - 2]), 0.0);  // time_ms
}

TEST(FileLogger, WritesReadableFile) {
  const std::string path = ::testing::TempDir() + "/eod_logger_test.dat";
  {
    scibench::FileTableLogger log(path, {"x", "y"});
    log.table().row({"1", "2.5"});
    log.table().row({"3", "4.5"});
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x y");
  std::getline(in, line);
  EXPECT_EQ(line, "1 2.5");
  std::remove(path.c_str());
  EXPECT_THROW(scibench::FileTableLogger("/nonexistent-dir/f.dat", {"a"}),
               std::runtime_error);
}

TEST(TraceFedMemory, ZeroWithoutCounters) {
  const sim::DevicePerfModel m(sim::skylake());
  xcl::WorkloadProfile p;
  p.bytes_read = 1e6;
  sim::HierarchyCounters none;
  EXPECT_DOUBLE_EQ(
      m.memory_seconds_from_counters({"k", xcl::NDRange(1024), p}, none),
      0.0);
}

TEST(TraceFedMemory, MoreMissesCostMore) {
  const sim::DevicePerfModel m(sim::skylake());
  xcl::WorkloadProfile p;
  p.bytes_read = 1e7;
  p.working_set_bytes = 1e7;
  xcl::KernelLaunchStats launch{"k", xcl::NDRange(1 << 16), p};
  sim::HierarchyCounters cached;
  cached.total_accesses = 1000000;
  cached.l1_dcm = 1000;  // almost everything hits L1
  sim::HierarchyCounters thrashing = cached;
  thrashing.l1_dcm = 500000;
  thrashing.l2_dcm = 400000;
  thrashing.l3_tcm = 300000;
  EXPECT_GT(m.memory_seconds_from_counters(launch, thrashing),
            5.0 * m.memory_seconds_from_counters(launch, cached));
}

TEST(TraceFedMemory, AgreesWithAnalyticOnStreamingWorkloads) {
  // The ablation bound, asserted: kmeans analytic vs trace-fed memory
  // terms agree within 3x at every size on the Skylake model.
  const sim::DevicePerfModel model(sim::skylake());
  auto dwarf = dwarfs::create_dwarf("kmeans");
  for (const ProblemSize size : {ProblemSize::kTiny, ProblemSize::kSmall,
                                 ProblemSize::kMedium,
                                 ProblemSize::kLarge}) {
    dwarf->setup(size);
    xcl::Context ctx(sim::testbed_device("i7-6700K"));
    xcl::Queue q(ctx);
    q.set_functional(false);
    q.set_record_launches(true);
    dwarf->bind(ctx, q);
    q.clear_events();
    dwarf->run();
    sim::CacheHierarchy h(sim::skylake());
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) h.reset();
      dwarf->stream_trace([&h](const sim::MemAccess& a) {
        h.access(a.address, a.bytes, a.is_write);
      });
    }
    // One assign round is two half-range launches (the double-buffered
    // write-back pipeline, DESIGN.md §12); the trace covers the full pass,
    // so fold the two halves back into one whole-pass launch.
    ASSERT_GE(q.launches().size(), 2u);
    xcl::KernelLaunchStats launch = q.launches()[0];
    const xcl::KernelLaunchStats& other = q.launches()[1];
    launch.profile.flops += other.profile.flops;
    launch.profile.int_ops += other.profile.int_ops;
    launch.profile.bytes_read += other.profile.bytes_read;
    launch.profile.bytes_written += other.profile.bytes_written;
    // working_set_bytes is already the whole-pass footprint in both halves.
    launch.range = xcl::NDRange(
        launch.range.global(0) + other.range.global(0), 64);
    const double analytic = model.analyze(launch).memory_s;
    const double traced =
        model.memory_seconds_from_counters(launch, h.counters());
    ASSERT_GT(traced, 0.0);
    const double ratio = analytic / traced;
    EXPECT_GT(ratio, 1.0 / 3.0) << to_string(size);
    EXPECT_LT(ratio, 3.0) << to_string(size);
    dwarf->unbind();
  }
}

}  // namespace
}  // namespace eod::harness
