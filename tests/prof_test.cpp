// Tests for the eod_prof analysis layer (DESIGN.md §16): critical path and
// slack over hand-built DAG fixtures, makespan attribution, lane
// utilization, overlap efficiency against a real out-of-order queue run,
// roofline placement for the full dwarf suite, and the trajectory
// regression gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "dwarfs/registry.hpp"
#include "obs/analysis/regress.hpp"
#include "obs/analysis/roofline.hpp"
#include "obs/analysis/schedule.hpp"
#include "obs/analysis/trace_model.hpp"
#include "obs/trace.hpp"
#include "sim/testbed.hpp"
#include "xcl/buffer.hpp"
#include "xcl/queue.hpp"

namespace eod::prof {
namespace {

// ---- synthetic trace fixtures --------------------------------------------
//
// Each fixture is a Chrome trace JSON string in exactly the shape
// obs::write_chrome_trace emits for device-command spans, so the parser is
// exercised on the production format (ns rendered as µs with three
// decimals).

struct Cmd {
  std::uint64_t id = 0;
  std::uint32_t queue = 1;
  std::uint32_t tid = 10;
  const char* name = "k";
  const char* cat = "device:kernel";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t busy_ns = 0;  // 0 = fully occupying, like the recorder
  std::uint64_t bytes = 0;
  bool barrier = false;
  std::vector<std::uint64_t> deps;
};

std::string fixture_trace(const std::vector<Cmd>& cmds) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Cmd& c : cmds) {
    char buf[512];
    std::string deps;
    for (std::size_t i = 0; i < c.deps.size(); ++i) {
      if (i != 0) deps += ',';
      deps += std::to_string(c.deps[i]);
    }
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":2,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"energy_j\":0,"
        "\"cmd\":%llu,\"q\":%u,\"barrier\":%u,\"busy_ns\":%llu,"
        "\"bytes\":%llu,\"deps\":[%s]}}",
        first ? "" : ",", c.name, c.cat, c.tid,
        static_cast<double>(c.start_ns) / 1e3,
        static_cast<double>(c.dur_ns) / 1e3,
        static_cast<unsigned long long>(c.id), c.queue, c.barrier ? 1u : 0u,
        static_cast<unsigned long long>(c.busy_ns),
        static_cast<unsigned long long>(c.bytes), deps.c_str());
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

ScheduleProfile analyze_fixture(const std::vector<Cmd>& cmds,
                                const ScheduleOptions& options = {}) {
  return analyze_schedule(parse_trace(parse_json(fixture_trace(cmds))),
                          options);
}

const SlackRow& slack_of(const ScheduleProfile& p, std::uint64_t id) {
  for (const SlackRow& r : p.slack) {
    if (r.id == id) return r;
  }
  ADD_FAILURE() << "no slack row for command " << id;
  static const SlackRow missing;
  return missing;
}

std::vector<std::uint64_t> path_ids(const ScheduleProfile& p) {
  std::vector<std::uint64_t> ids;
  ids.reserve(p.critical_path.size());
  for (const PathStep& s : p.critical_path) ids.push_back(s.id);
  return ids;
}

// The attribution identity every profile must satisfy: the critical-path
// compute/transfer/idle charges telescope to exactly the makespan.
void expect_attribution_identity(const ScheduleProfile& p) {
  EXPECT_EQ(p.path_compute_ns + p.path_transfer_ns + p.path_idle_ns,
            p.makespan_ns);
}

// ---- critical path / slack over hand-built DAGs --------------------------

TEST(Schedule, DiamondCriticalPathAndSlack) {
  // A feeds B (long) and C (short); D joins both.  Distinct lanes so only
  // the explicit deps constrain.
  const ScheduleProfile p = analyze_fixture({
      {1, 1, 10, "A", "device:kernel", 0, 100, 0, 0, false, {}},
      {2, 1, 11, "B", "device:kernel", 100, 200, 0, 0, false, {1}},
      {3, 1, 12, "C", "device:kernel", 100, 100, 0, 0, false, {1}},
      {4, 1, 13, "D", "device:kernel", 300, 100, 0, 0, false, {2, 3}},
  });
  EXPECT_EQ(p.makespan_ns, 400u);
  EXPECT_EQ(p.serialized_ns, 500u);
  EXPECT_DOUBLE_EQ(p.overlap_efficiency, 1.25);
  EXPECT_EQ(path_ids(p), (std::vector<std::uint64_t>{1, 2, 4}));
  for (const PathStep& s : p.critical_path) EXPECT_EQ(s.wait_ns, 0u);
  EXPECT_EQ(slack_of(p, 1).slack_ns, 0u);
  EXPECT_EQ(slack_of(p, 2).slack_ns, 0u);
  EXPECT_EQ(slack_of(p, 3).slack_ns, 100u);  // could slip to D's start
  EXPECT_EQ(slack_of(p, 4).slack_ns, 0u);
  EXPECT_FALSE(slack_of(p, 3).critical);
  EXPECT_TRUE(slack_of(p, 2).critical);
  EXPECT_EQ(p.path_compute_ns, 400u);
  EXPECT_EQ(p.path_idle_ns, 0u);
  expect_attribution_identity(p);
}

TEST(Schedule, CrossQueueWaitAndBarrierOrdering) {
  // Queue 1 is in-order (barrier spans); queue 2's kernel explicitly waits
  // on queue 1's first command across the queue boundary.
  const ScheduleProfile p = analyze_fixture({
      {1, 1, 10, "A", "device:kernel", 0, 200, 0, 0, true, {}},
      {2, 2, 11, "B", "device:kernel", 200, 100, 0, 0, true, {1}},
      {3, 1, 10, "C", "device:kernel", 200, 60, 0, 0, true, {}},
  });
  EXPECT_EQ(p.makespan_ns, 300u);
  EXPECT_EQ(p.serialized_ns, 360u);
  // The barrier edge (not an explicit dep) is what holds C at A's end.
  EXPECT_EQ(path_ids(p), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(slack_of(p, 1).slack_ns, 0u);
  EXPECT_EQ(slack_of(p, 2).slack_ns, 0u);
  EXPECT_EQ(slack_of(p, 3).slack_ns, 40u);
  expect_attribution_identity(p);
}

TEST(Schedule, KmeansDoubleBufferedHalves) {
  // The kmeans double-buffering shape: two input halves streamed on the
  // transfer lane while the kernel lane chews the previous half, results
  // read back behind each kernel.  Lane order serializes same-lane
  // commands; explicit deps stitch the halves together.
  const std::uint64_t kb = 4096;
  const ScheduleProfile p = analyze_fixture({
      {1, 1, 11, "write:h0", "device:transfer", 0, 100, 0, kb, false, {}},
      {2, 1, 11, "write:h1", "device:transfer", 100, 100, 0, kb, false, {}},
      {3, 1, 10, "kmeans:h0", "device:kernel", 100, 200, 0, 0, false, {1}},
      {4, 1, 10, "kmeans:h1", "device:kernel", 300, 200, 0, 0, false, {2}},
      {5, 1, 11, "read:h0", "device:transfer", 300, 100, 0, kb, false, {3}},
      {6, 1, 11, "read:h1", "device:transfer", 500, 100, 0, kb, false, {4}},
  });
  EXPECT_EQ(p.makespan_ns, 600u);
  EXPECT_EQ(p.serialized_ns, 800u);
  EXPECT_NEAR(p.overlap_efficiency, 800.0 / 600.0, 1e-12);
  EXPECT_EQ(path_ids(p), (std::vector<std::uint64_t>{1, 3, 4, 6}));
  EXPECT_EQ(slack_of(p, 2).slack_ns, 100u);
  EXPECT_EQ(slack_of(p, 5).slack_ns, 100u);
  EXPECT_EQ(p.path_compute_ns, 400u);
  EXPECT_EQ(p.path_transfer_ns, 200u);
  EXPECT_EQ(p.path_idle_ns, 0u);
  expect_attribution_identity(p);

  // Lane utilization: the kernel lane is busy 400/600, the transfer lane
  // 400/600, and the transfer lane moved all four payloads.
  ASSERT_EQ(p.lanes.size(), 2u);
  for (const LaneUtilization& l : p.lanes) {
    if (l.tid == 10) {
      EXPECT_EQ(l.busy_ns, 400u);
      EXPECT_EQ(l.bytes, 0u);
    } else {
      EXPECT_EQ(l.busy_ns, 400u);
      EXPECT_EQ(l.bytes, 4 * kb);
    }
    EXPECT_NEAR(l.busy_fraction, 400.0 / 600.0, 1e-12);
  }
}

TEST(Schedule, PipelinedTransferFreesTheLaneAtBusyEnd) {
  // A link transfer with busy < dur (propagation tail) lets the next
  // same-lane command start at busy_end; the DAG must use busy_end for the
  // lane edge but full end for the dependency edge.
  const ScheduleProfile p = analyze_fixture({
      {1, 1, 11, "w0", "device:transfer", 0, 100, 40, 1024, false, {}},
      {2, 1, 11, "w1", "device:transfer", 40, 100, 0, 1024, false, {}},
      {3, 1, 10, "k", "device:kernel", 140, 60, 0, 0, false, {2}},
  });
  EXPECT_EQ(p.makespan_ns, 200u);
  EXPECT_EQ(path_ids(p), (std::vector<std::uint64_t>{1, 2, 3}));
  for (const PathStep& s : p.critical_path) EXPECT_EQ(s.wait_ns, 0u);
  EXPECT_EQ(p.path_idle_ns, 0u);
  expect_attribution_identity(p);
}

TEST(Schedule, UnexplainedGapBecomesIdle) {
  // B waits on A but starts 50 ns after A ends (host enqueue latency): the
  // gap must surface as path idle, never be silently absorbed.
  const ScheduleProfile p = analyze_fixture({
      {1, 1, 10, "A", "device:kernel", 0, 100, 0, 0, false, {}},
      {2, 1, 10, "B", "device:kernel", 150, 100, 0, 0, false, {1}},
  });
  EXPECT_EQ(p.makespan_ns, 250u);
  ASSERT_EQ(p.critical_path.size(), 2u);
  EXPECT_EQ(p.critical_path[0].wait_ns, 0u);
  EXPECT_EQ(p.critical_path[1].wait_ns, 50u);
  EXPECT_EQ(p.path_idle_ns, 50u);
  EXPECT_EQ(p.path_compute_ns, 200u);
  expect_attribution_identity(p);
}

TEST(Schedule, EmptyTraceYieldsZeroProfile) {
  const ScheduleProfile p = analyze_fixture({});
  EXPECT_EQ(p.makespan_ns, 0u);
  EXPECT_EQ(p.serialized_ns, 0u);
  EXPECT_TRUE(p.critical_path.empty());
  EXPECT_TRUE(p.lanes.empty());
}

TEST(Schedule, RendersTextTsvAndJson) {
  const ScheduleProfile p = analyze_fixture({
      {1, 1, 10, "A", "device:kernel", 0, 100, 0, 0, false, {}},
      {2, 1, 10, "B", "device:kernel", 100, 100, 0, 0, false, {1}},
  });
  const std::string text = p.to_text();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  const std::string tsv = p.to_tsv();
  EXPECT_NE(tsv.find("slack_ns"), std::string::npos);
  const std::string json = p.to_json();
  // Parse back with the artifact parser: the report must be well-formed.
  const Json j = parse_json(json);
  EXPECT_EQ(j.at("makespan_ns").number, 200.0);
}

// ---- trace parse-back guards ---------------------------------------------

TEST(TraceModel, RoundTripsExactNanosecondTimes) {
  const TraceDoc doc = parse_trace(parse_json(fixture_trace({
      {7, 3, 12, "k", "device:kernel", 1234567891, 987654321, 0, 0, true,
       {3, 5}},
  })));
  ASSERT_EQ(doc.commands.size(), 1u);
  const TraceCommand& c = doc.commands.front();
  EXPECT_EQ(c.id, 7u);
  EXPECT_EQ(c.queue, 3u);
  EXPECT_EQ(c.start_ns, 1234567891u);
  EXPECT_EQ(c.dur_ns, 987654321u);
  EXPECT_TRUE(c.barrier);
  EXPECT_EQ(c.deps, (std::vector<std::uint64_t>{3, 5}));
}

TEST(TraceModel, RejectsDuplicateAndZeroCommandIds) {
  EXPECT_THROW((void)parse_trace(parse_json(fixture_trace({
                   {1, 1, 10, "a", "device:kernel", 0, 1, 0, 0, false, {}},
                   {1, 1, 10, "b", "device:kernel", 1, 1, 0, 0, false, {}},
               }))),
               std::runtime_error);
  EXPECT_THROW((void)parse_trace(parse_json(fixture_trace({
                   {0, 1, 10, "a", "device:kernel", 0, 1, 0, 0, false, {}},
               }))),
               std::runtime_error);
}

// ---- overlap efficiency vs a real out-of-order run -----------------------

// The micro_overlap pipeline in miniature: chunked write -> kernel -> read
// chains, enqueued breadth-first.  The in-order modeled span is exactly the
// serialized sum, so the profile's overlap efficiency (serialized /
// makespan, from the trace alone) must match the measured in-order /
// out-of-order span ratio.
constexpr std::size_t kChunks = 4;
constexpr std::size_t kFloats = std::size_t{1} << 18;

// Kernel cost calibrated to a chunk's round-trip transfer cost (the
// balanced point where overlap pays most), exactly like micro_overlap: the
// device model is a roofline, so iterate the flops rescale to a fixed
// point.
xcl::WorkloadProfile balanced_profile(const xcl::Device& device) {
  const auto chunk_bytes = static_cast<std::size_t>(kFloats * sizeof(float));
  const double target_s =
      device.model().transfer_seconds(chunk_bytes,
                                      xcl::TransferDir::kHostToDevice) +
      device.model().transfer_seconds(chunk_bytes,
                                      xcl::TransferDir::kDeviceToHost);
  xcl::WorkloadProfile p;
  p.flops = 1e6;
  p.bytes_read = static_cast<double>(chunk_bytes);
  p.bytes_written = p.bytes_read;
  p.working_set_bytes = 2 * p.bytes_read;
  p.pattern = xcl::AccessPattern::kStreaming;
  const xcl::NDRange range(kFloats, 256);
  for (int i = 0; i < 16; ++i) {
    const xcl::KernelLaunchStats probe{"probe", range, p, 0};
    const double probe_s = device.model().kernel_seconds(probe);
    if (probe_s > target_s * 0.95 && probe_s < target_s * 1.05) break;
    p.flops *= target_s / probe_s;
  }
  return p;
}

double pipeline_span_s(xcl::QueueMode mode, xcl::Device& device,
                       const xcl::WorkloadProfile& profile) {
  xcl::Context ctx(device);
  std::vector<xcl::Buffer> bufs;
  bufs.reserve(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    bufs.push_back(xcl::make_buffer<float>(ctx, kFloats));
  }
  const std::vector<float> in(kFloats, 1.0f);
  std::vector<std::vector<float>> out(kChunks, std::vector<float>(kFloats));

  xcl::Queue q(ctx, mode);
  std::vector<xcl::Event> writes(kChunks);
  std::vector<xcl::Event> kernels(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    writes[c] = q.enqueue_write<float>(bufs[c], std::span<const float>(in),
                                       xcl::kNoWait);
  }
  for (std::size_t c = 0; c < kChunks; ++c) {
    auto view = bufs[c].view<float>();
    xcl::Kernel k("scale", [view](xcl::WorkItem& it) {
      view[it.global_id(0)] *= 2.0f;
    });
    k.span([view](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) view[i] *= 2.0f;
    });
    const xcl::Event wdep[] = {writes[c]};
    kernels[c] = q.enqueue(k, xcl::NDRange(kFloats, 256), profile, wdep);
  }
  for (std::size_t c = 0; c < kChunks; ++c) {
    const xcl::Event kdep[] = {kernels[c]};
    q.enqueue_read<float>(bufs[c], std::span(out[c]), kdep);
  }
  q.finish();
  return q.modeled_span_seconds();
}

TEST(Overlap, EfficiencyMatchesMeasuredOooSpeedup) {
  xcl::Device& device = sim::testbed_device("GTX 1080");
  const xcl::WorkloadProfile profile = balanced_profile(device);
  // Measure the in-order span with the recorder off, then trace the
  // out-of-order run and profile it from the artifact alone.
  obs::set_tracing_enabled(false);
  const double inorder_s =
      pipeline_span_s(xcl::QueueMode::kInOrder, device, profile);

  obs::reset_tracing();
  obs::set_tracing_enabled(true);
  const double ooo_s =
      pipeline_span_s(xcl::QueueMode::kOutOfOrder, device, profile);
  obs::set_tracing_enabled(false);
  const std::string path = ::testing::TempDir() + "prof_overlap_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const ScheduleProfile p = analyze_schedule(load_trace(path));
  std::remove(path.c_str());

  ASSERT_GT(ooo_s, 0.0);
  const double measured = inorder_s / ooo_s;
  EXPECT_GT(measured, 1.2);  // the pipeline genuinely overlaps
  EXPECT_NEAR(p.overlap_efficiency, measured, 0.05 * measured);
  expect_attribution_identity(p);
  // The pipeline's lanes both appear, and the transfer lane carried the
  // chunk payloads.
  std::uint64_t lane_bytes = 0;
  for (const LaneUtilization& l : p.lanes) lane_bytes += l.bytes;
  EXPECT_GE(lane_bytes, 2 * kChunks * kFloats * sizeof(float));
}

// ---- roofline placement --------------------------------------------------

TEST(Roofline, LabelsEveryDwarfOnTwoModeledDevices) {
  std::vector<std::string> benchmarks = dwarfs::benchmark_names();
  for (const std::string& e : dwarfs::extension_names()) {
    benchmarks.push_back(e);
  }
  ASSERT_GE(benchmarks.size(), 12u);
  const std::vector<std::string> devices = {"i7-6700K", "GTX 1080"};
  const RooflineReport report =
      roofline(benchmarks, dwarfs::ProblemSize::kTiny, devices);

  // Every (benchmark, device) pair has an aggregate row, and every point's
  // bound-ness label is consistent with its own roofline arithmetic.
  for (const std::string& b : benchmarks) {
    for (const std::string& d : devices) {
      bool found = false;
      for (const RooflinePoint& p : report.points) {
        if (p.benchmark == b && p.device == d && p.kernel == "*") {
          found = true;
          // Integer dwarfs (crc, nw, nqueens, b_eff) have zero FLOPs;
          // every dwarf moves bytes.
          EXPECT_GT(p.bytes, 0.0) << b << " on " << d;
        }
      }
      EXPECT_TRUE(found) << "no aggregate roofline point for " << b
                         << " on " << d;
    }
  }
  for (const RooflinePoint& p : report.points) {
    EXPECT_GT(p.compute_ceiling_gflops, 0.0);
    EXPECT_GT(p.memory_ceiling_gbs, 0.0);
    EXPECT_NEAR(p.ridge_oi, p.compute_ceiling_gflops / p.memory_ceiling_gbs,
                1e-9);
    if (p.bytes > 0.0) {
      EXPECT_NEAR(p.oi, p.flops / p.bytes, 1e-9 * p.oi);
    }
    const double t_c = p.flops / (p.compute_ceiling_gflops * 1e9);
    const double t_m = p.bytes / (p.memory_ceiling_gbs * 1e9);
    EXPECT_EQ(p.memory_bound, t_m >= t_c)
        << p.benchmark << "/" << p.kernel << " on " << p.device;
  }
}

// ---- trajectory regression gate ------------------------------------------

class RegressFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directories: ctest runs each test in its own process, so a
    // shared fixture path would race under -j.
    const std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    base_ = ::testing::TempDir() + "prof_regress_" + tag + "_base";
    cur_ = ::testing::TempDir() + "prof_regress_" + tag + "_cur";
    std::filesystem::remove_all(base_);
    std::filesystem::remove_all(cur_);
    std::filesystem::create_directories(base_);
    std::filesystem::create_directories(cur_);
  }
  void TearDown() override {
    std::filesystem::remove_all(base_);
    std::filesystem::remove_all(cur_);
  }

  static void write(const std::string& dir, const std::string& file,
                    const std::string& text) {
    std::ofstream f(dir + "/" + file, std::ios::trunc);
    f << text;
  }

  static std::string report_json(double time_s, double gbs, double speedup,
                                 double wall_median,
                                 double wall_p90) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"benchmark\":\"x\",\"values\":{\"modeled_time_s\":%g,"
        "\"ring_gbs\":%g},\"speedup\":%g,\"metrics\":{\"wall\":{"
        "\"median_ns\":%g,\"p10_ns\":%g,\"p90_ns\":%g}}}",
        time_s, gbs, speedup, wall_median, wall_median * 0.9, wall_p90);
    return buf;
  }

  std::string base_;
  std::string cur_;
};

TEST_F(RegressFixture, CleanTrajectoryPasses) {
  const std::string r = report_json(1.0, 10.0, 1.78, 1000, 1100);
  write(base_, "BENCH_alpha.json", r);
  write(cur_, "BENCH_alpha.json", r);
  const RegressVerdict v = compare_trajectory(base_, cur_);
  EXPECT_TRUE(v.ok());
  EXPECT_GE(v.compared, 3u);  // two values + speedup
  EXPECT_EQ(v.regressions, 0u);
}

TEST_F(RegressFixture, InjectedSlowdownIsFlagged) {
  write(base_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1000, 1100));
  // 20% modeled-time slowdown: past the 10% tolerance on a lower-is-better
  // key, so the gate must go red.
  write(cur_, "BENCH_alpha.json", report_json(1.2, 10.0, 1.78, 1000, 1100));
  const RegressVerdict v = compare_trajectory(base_, cur_);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.regressions, 1u);
  bool flagged = false;
  for (const RegressEntry& e : v.entries) {
    if (e.key == "values.modeled_time_s") {
      flagged = e.regressed;
      EXPECT_NEAR(e.ratio, 1.2, 1e-9);
    }
  }
  EXPECT_TRUE(flagged);
  // The verdict JSON round-trips through the artifact parser.
  const Json j = parse_json(v.to_json());
  EXPECT_FALSE(j.at("ok").boolean);
}

TEST_F(RegressFixture, HigherIsBetterDropAndSpeedupDropAreFlagged) {
  write(base_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1000, 1100));
  write(cur_, "BENCH_alpha.json", report_json(1.0, 8.0, 1.40, 1000, 1100));
  const RegressVerdict v = compare_trajectory(base_, cur_);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.regressions, 2u);  // ring_gbs -20%, speedup -21%
}

TEST_F(RegressFixture, MissingBenchmarkIsAlwaysARegression) {
  write(base_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1000, 1100));
  write(base_, "BENCH_beta.json", report_json(2.0, 5.0, 1.10, 2000, 2200));
  write(cur_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1000, 1100));
  const RegressVerdict v = compare_trajectory(base_, cur_);
  EXPECT_FALSE(v.ok());
  ASSERT_EQ(v.missing.size(), 1u);
  EXPECT_EQ(v.missing.front(), "beta");
}

TEST_F(RegressFixture, WallMetricsGateOnlyWhenOptedIn) {
  write(base_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1000, 1100));
  // Wall median 5x the baseline: machine noise cannot explain it, but the
  // deterministic values are clean.
  write(cur_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 5000, 5500));
  EXPECT_TRUE(compare_trajectory(base_, cur_).ok());
  RegressOptions opts;
  opts.include_wall = true;
  EXPECT_FALSE(compare_trajectory(base_, cur_, opts).ok());

  // Inside the [p10, p90] noise band nothing fires even when opted in.
  write(cur_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1050, 1150));
  EXPECT_TRUE(compare_trajectory(base_, cur_, opts).ok());
}

TEST_F(RegressFixture, KeyFilterRestrictsTheComparedSet) {
  write(base_, "BENCH_alpha.json", report_json(1.0, 10.0, 1.78, 1000, 1100));
  // Both values drift, but only ring_gbs passes the "gbs" filter — the
  // modeled_time_s slowdown must be ignored, not judged.
  write(cur_, "BENCH_alpha.json", report_json(2.0, 10.0, 1.78, 1000, 1100));
  RegressOptions opts;
  opts.key_filter = "gbs";
  const RegressVerdict v = compare_trajectory(base_, cur_, opts);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.compared, 1u);
  EXPECT_EQ(v.entries.front().key, "values.ring_gbs");
  // The unfiltered run still sees the slowdown.
  EXPECT_FALSE(compare_trajectory(base_, cur_).ok());
}

TEST_F(RegressFixture, EmptyOrAbsentBaselineDirectoryThrows) {
  EXPECT_THROW((void)compare_trajectory(base_ + "/nope", cur_),
               std::runtime_error);
  EXPECT_THROW((void)compare_trajectory(base_, cur_), std::runtime_error);
}

}  // namespace
}  // namespace eod::prof
