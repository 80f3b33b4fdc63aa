// Tests for the observability subsystem (DESIGN.md §11): metrics registry
// arithmetic, log₂-histogram bucket boundaries, registry thread-safety, the
// Chrome trace recorder (parse the JSON back, check span nesting per lane),
// and the --trace/--metrics/manifest round trip through a real harness run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dwarfs/lud/lud.hpp"
#include "dwarfs/registry.hpp"
#include "harness/partition.hpp"
#include "harness/runner.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/testbed.hpp"

namespace eod::obs {
namespace {

// ---- a minimal JSON reader (objects/arrays/strings/numbers/bools) --------
//
// Just enough to parse the files the recorder writes; a parse failure is a
// test failure, which is the point — the emitted JSON must be well-formed.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    static const JsonValue missing;
    const auto it = object.find(key);
    return it == object.end() ? missing : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 >= s_.size()) return false;
            out += '?';  // tests never inspect escaped control chars
            pos_ += 4;
            break;
          default: out += s_[pos_];
        }
        ++pos_;
      } else {
        out += s_[pos_++];
      }
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.type = JsonValue::Type::kNumber;
    out.number = std::stod(s_.substr(start, pos_ - start));
    return true;
  }
  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      skip_ws();
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue parse_json_or_fail(const std::string& text) {
  JsonValue v;
  JsonParser p(text);
  EXPECT_TRUE(p.parse(v)) << "malformed JSON: " << text.substr(0, 200);
  return v;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ---- metrics registry ----------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  Counter& c = counter("test.counter_basics");
  c.reset();
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4u);
  // Same name returns the same instrument; a different kind throws.
  EXPECT_EQ(&counter("test.counter_basics"), &c);
  EXPECT_THROW((void)gauge("test.counter_basics"), std::logic_error);

  Gauge& g = gauge("test.gauge_basics");
  g.reset();
  g.set(7);
  g.set_max(5);
  EXPECT_EQ(g.value(), 7);
  g.set_max(11);
  EXPECT_EQ(g.value(), 11);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // bucket_of: 0 → 0; v in [2^(i-1), 2^i) → i.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(1025), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  // bucket_floor is the inclusive lower bound and inverts bucket_of at the
  // boundary: bucket_of(bucket_floor(i)) == i for every bucket.
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(11), 1024u);
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_floor(i)), i) << i;
  }

  Histogram& h = histogram("test.hist_boundaries");
  h.reset();
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 206.0);
}

TEST(Metrics, HistogramQuantilesInterpolateFromBuckets) {
  Histogram& h = histogram("test.hist_quantiles");
  h.reset();
  // All samples in bucket 0 (the value 0): every quantile is exactly 0.
  for (int i = 0; i < 4; ++i) h.record(0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);

  // One sample in bucket 3 ([4, 8)): quantiles interpolate linearly across
  // the bucket's value range.
  h.reset();
  h.record(4);
  EXPECT_DOUBLE_EQ(h.p50(), 6.0);  // 4 + 0.50·4
  EXPECT_DOUBLE_EQ(h.p95(), 7.8);  // 4 + 0.95·4

  // Mixed buckets: the rank walk crosses bucket 0 before interpolating.
  h.record(0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 7.6);  // 4 + (1.9−1)·4

  // The snapshot-side twin sees the same numbers through the sample's
  // sparse (bucket, count) pairs — this is the path eod_prof consumes.
  const MetricsSnapshot snap = snapshot_metrics();
  for (const MetricSample& s : snap.samples) {
    if (s.name != "test.hist_quantiles") continue;
    EXPECT_DOUBLE_EQ(quantile_from_buckets(s.buckets, s.count, 0.50), 0.0);
    EXPECT_DOUBLE_EQ(quantile_from_buckets(s.buckets, s.count, 0.95), 7.6);
  }
  EXPECT_DOUBLE_EQ(quantile_from_buckets({}, 0, 0.5), 0.0);
}

// Concurrent first-use registration and mutation of one shared instrument
// set.  Run under -fsanitize=thread via the `sanitize` ctest label.
TEST(Metrics, RegistryIsRaceClean) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Counter& c = counter("test.race_counter");
      Histogram& h = histogram("test.race_hist");
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        h.record(static_cast<std::uint64_t>(t * kIters + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(counter("test.race_counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_GE(histogram("test.race_hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Metrics, SnapshotRendersTsvAndJson) {
  counter("test.snap_counter").reset();
  counter("test.snap_counter").add(42);
  gauge("test.snap_gauge").set(-7);
  histogram("test.snap_hist").reset();
  histogram("test.snap_hist").record(5);

  const MetricsSnapshot snap = snapshot_metrics();
  EXPECT_TRUE(std::is_sorted(
      snap.samples.begin(), snap.samples.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return a.name < b.name;
      }));

  const std::string tsv = snap.to_tsv();
  EXPECT_NE(tsv.find("\tp50\tp95\tp99\t"), std::string::npos);
  EXPECT_NE(tsv.find("test.snap_counter\tcounter\t42"), std::string::npos);
  EXPECT_NE(tsv.find("test.snap_gauge\tgauge\t-7"), std::string::npos);

  const JsonValue j = parse_json_or_fail(snap.to_json());
  const JsonValue& metrics = j.at("metrics");
  EXPECT_EQ(metrics.at("test.snap_counter").at("value").number, 42.0);
  EXPECT_EQ(metrics.at("test.snap_gauge").at("value").number, -7.0);
  const JsonValue& hist = metrics.at("test.snap_hist");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_EQ(hist.at("sum").number, 5.0);
  // Rendered quantiles: 5 sits in bucket [4, 8), so p50 = 4 + 0.5·4.
  EXPECT_EQ(hist.at("p50").number, 6.0);
  EXPECT_EQ(hist.at("p99").number, 7.96);

  // write_file picks the format from the suffix.
  const std::string tsv_path = temp_path("obs_snap.tsv");
  const std::string json_path = temp_path("obs_snap.json");
  ASSERT_TRUE(snap.write_file(tsv_path));
  ASSERT_TRUE(snap.write_file(json_path));
  EXPECT_EQ(read_file(tsv_path), tsv);
  (void)parse_json_or_fail(read_file(json_path));
  std::remove(tsv_path.c_str());
  std::remove(json_path.c_str());
}

// ---- trace recorder ------------------------------------------------------

TEST(Trace, WritesWellFormedNestedSpans) {
  reset_tracing();
  set_tracing_enabled(true);
  set_thread_lane_name("obs-test-main");
  {
    TraceSpan outer("outer", "test");
    {
      TraceSpan inner("inner", "test", "items", 3.0);
    }
  }
  emit_instant("marker", "test");
  const std::uint32_t dev_lane = alloc_device_lane("queue:fake-device");
  // lint: raw-span-ok(exercises the device-lane emission API directly)
  emit_complete_on(kDevicePid, dev_lane, "kernel_x", "device:kernel", 1000,
                   500, "energy_j", 0.25);
  set_tracing_enabled(false);

  const std::string path = temp_path("obs_trace.json");
  ASSERT_TRUE(write_chrome_trace(path));
  const JsonValue root = parse_json_or_fail(read_file(path));
  std::remove(path.c_str());
  ASSERT_EQ(root.at("traceEvents").type, JsonValue::Type::kArray);
  const auto& events = root.at("traceEvents").array;

  // Collect the complete spans of this thread's host lane and check strict
  // nesting: inner must start no earlier and end no later than outer.
  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* device = nullptr;
  bool saw_marker = false;
  bool saw_lane_name = false;
  bool saw_device_lane_name = false;
  for (const JsonValue& e : events) {
    const std::string& name = e.at("name").str;
    if (name == "outer") outer = &e;
    if (name == "inner") inner = &e;
    if (name == "kernel_x") device = &e;
    if (name == "marker" && e.at("ph").str == "i") saw_marker = true;
    if (e.at("ph").str == "M") {
      if (e.at("args").at("name").str == "obs-test-main") {
        saw_lane_name = true;
      }
      if (e.at("args").at("name").str == "queue:fake-device") {
        saw_device_lane_name = true;
      }
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(device, nullptr);
  EXPECT_TRUE(saw_marker);
  EXPECT_TRUE(saw_lane_name);
  EXPECT_TRUE(saw_device_lane_name);

  EXPECT_EQ(outer->at("ph").str, "X");
  EXPECT_EQ(outer->at("pid").number, kHostPid);
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  const double outer_start = outer->at("ts").number;
  const double outer_end = outer_start + outer->at("dur").number;
  const double inner_start = inner->at("ts").number;
  const double inner_end = inner_start + inner->at("dur").number;
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_EQ(inner->at("args").at("items").number, 3.0);

  // The device-lane event keeps its modeled timestamps (µs of modeled ns),
  // unrebased, on pid 2.
  EXPECT_EQ(device->at("pid").number, kDevicePid);
  EXPECT_EQ(device->at("tid").number, dev_lane);
  EXPECT_DOUBLE_EQ(device->at("ts").number, 1.0);
  EXPECT_DOUBLE_EQ(device->at("dur").number, 0.5);
  EXPECT_DOUBLE_EQ(device->at("args").at("energy_j").number, 0.25);
}

TEST(Trace, DisabledRecorderEmitsNothing) {
  reset_tracing();
  set_tracing_enabled(false);
  const std::uint64_t before = trace_events_recorded();
  {
    TraceSpan span("invisible", "test");
    emit_instant("also-invisible", "test");
  }
  // TraceSpan is fully inert when disabled; emit_instant still records (its
  // callers are expected to guard).  The span must not have recorded.
  EXPECT_LE(trace_events_recorded(), before + 1);
}

TEST(Trace, EnvEscapeHatchParsesConventions) {
  // Not set / "0" / "" → disabled; "1" → default file; else the path.
  ::unsetenv("EOD_TRACE");
  EXPECT_EQ(env_trace_path(), "");
  ::setenv("EOD_TRACE", "", 1);
  EXPECT_EQ(env_trace_path(), "");
  ::setenv("EOD_TRACE", "0", 1);
  EXPECT_EQ(env_trace_path(), "");
  ::setenv("EOD_TRACE", "1", 1);
  EXPECT_EQ(env_trace_path(), "eod_trace.json");
  ::setenv("EOD_TRACE", "/tmp/custom.json", 1);
  EXPECT_EQ(env_trace_path(), "/tmp/custom.json");
  ::unsetenv("EOD_TRACE");
}

// ---- full round trip through the harness ---------------------------------

TEST(ObsRoundTrip, MeasureWritesTraceMetricsAndManifest) {
  const std::string trace_path = temp_path("obs_rt_trace.json");
  const std::string metrics_path = temp_path("obs_rt_metrics.json");
  const std::string manifest_path = temp_path("obs_rt_manifest.json");

  auto dwarf = dwarfs::create_dwarf("kmeans");
  harness::MeasureOptions opts;
  opts.samples = 5;
  opts.min_loop_seconds = 0.0;
  opts.validate = true;
  opts.trace_path = trace_path;
  opts.metrics_path = metrics_path;
  opts.manifest_path = manifest_path;
  opts.profile = true;
  // Out-of-order mode so the recorded wait lists are load-bearing (an
  // in-order chain orders by barrier and may legally record no deps).
  opts.queue_mode = xcl::QueueMode::kOutOfOrder;
  const harness::Measurement m =
      harness::measure(*dwarf, dwarfs::ProblemSize::kTiny,
                       sim::testbed_device("i7-6700K"), opts);
  EXPECT_TRUE(m.validation.ok);
  // The recorder was scoped to the run.
  EXPECT_FALSE(tracing_enabled());

  // The measurement reports back the *final* artifact paths: the requested
  // names with a ".<pid>.<counter>" collision suffix spliced in before the
  // extension.  Concurrent runs in one directory must never clobber each
  // other's artifacts.
  ASSERT_FALSE(m.trace_path.empty());
  ASSERT_FALSE(m.metrics_path.empty());
  ASSERT_FALSE(m.manifest_path.empty());
  ASSERT_FALSE(m.profile_path.empty());
  EXPECT_NE(m.trace_path, trace_path);
  EXPECT_EQ(m.trace_path.rfind(trace_path.substr(0, trace_path.size() - 5),
                               0),
            0u);
  EXPECT_EQ(m.trace_path.substr(m.trace_path.size() - 5), ".json");

  // Trace: both pids present; the device lane carries kernel spans whose
  // names match the benchmark's kernels; harness spans frame the run.
  const JsonValue trace = parse_json_or_fail(read_file(m.trace_path));
  bool saw_device_kernel = false;
  bool saw_harness_span = false;
  bool saw_labeled_transfer = false;
  for (const JsonValue& e : trace.at("traceEvents").array) {
    if (e.at("ph").str != "X") continue;
    if (e.at("pid").number == kDevicePid &&
        e.at("cat").str == "device:kernel") {
      saw_device_kernel = true;
    }
    if (e.at("cat").str == "harness" && e.at("name").str == "functional") {
      saw_harness_span = true;
    }
    // The size-prefixed transfer labels (e.g. "write:features[26KiB]").
    if (e.at("cat").str == "queue:transfer" &&
        e.at("name").str.find('[') != std::string::npos) {
      saw_labeled_transfer = true;
    }
  }
  EXPECT_TRUE(saw_device_kernel);
  EXPECT_TRUE(saw_harness_span);
  EXPECT_TRUE(saw_labeled_transfer);

  // Device-command spans carry the DAG args block ("cmd"/"q"/"deps"), so
  // the schedule is reconstructible from the artifact alone.
  std::size_t dag_spans = 0;
  std::size_t spans_with_deps = 0;
  for (const JsonValue& e : trace.at("traceEvents").array) {
    if (e.at("ph").str != "X" || e.at("pid").number != kDevicePid) continue;
    const JsonValue& args = e.at("args");
    if (args.at("cmd").type != JsonValue::Type::kNumber) continue;
    ++dag_spans;
    EXPECT_GT(args.at("cmd").number, 0.0);
    EXPECT_GT(args.at("q").number, 0.0);
    EXPECT_EQ(args.at("deps").type, JsonValue::Type::kArray);
    if (!args.at("deps").array.empty()) ++spans_with_deps;
  }
  EXPECT_GT(dag_spans, 0u);
  EXPECT_GT(spans_with_deps, 0u);

  // Metrics: parseable, and the executor counters moved.
  const JsonValue metrics = parse_json_or_fail(read_file(m.metrics_path));
  EXPECT_GT(
      metrics.at("metrics").at("executor.ndrange_launches").at("value")
          .number,
      0.0);

  // Profile: the in-process eod_prof analysis ran over the written trace
  // and its report parses back with a coherent schedule block.
  const JsonValue profile = parse_json_or_fail(read_file(m.profile_path));
  EXPECT_EQ(profile.at("benchmark").str, "kmeans");
  const JsonValue& schedule = profile.at("schedule");
  EXPECT_GT(schedule.at("makespan_ns").number, 0.0);
  EXPECT_GT(schedule.at("overlap_efficiency").number, 0.0);
  EXPECT_FALSE(schedule.at("critical_path").array.empty());

  // Manifest: identity, provenance, stats, artifact pointers, embedded
  // metrics.
  const JsonValue manifest = parse_json_or_fail(read_file(m.manifest_path));
  EXPECT_EQ(manifest.at("benchmark").str, "kmeans");
  EXPECT_EQ(manifest.at("size").str, "tiny");
  EXPECT_EQ(manifest.at("device").str, "i7-6700K");
  // measure() resolves an unset MeasureOptions::dispatch through the
  // EOD_DISPATCH hatch, so the recorded tier follows the environment
  // (e.g. EOD_DISPATCH=item ctest).
  EXPECT_EQ(manifest.at("dispatch").str,
            xcl::to_string(xcl::default_dispatch_mode()));
  if (const char* env = std::getenv("EOD_DISPATCH")) {
    EXPECT_EQ(manifest.at("dispatch_env").str, env);
  }
  EXPECT_EQ(manifest.at("samples").number, 5.0);
  EXPECT_FALSE(manifest.at("git_describe").str.empty());
  EXPECT_FALSE(manifest.at("timestamp").str.empty());
  // The THP mode explains a slow setup; "unavailable" off Linux.
  EXPECT_EQ(manifest.at("host_thp").str, obs::host_thp_mode());
  EXPECT_TRUE(obs::host_thp_mode() == "unavailable" ||
              obs::host_thp_mode().find("never") != std::string::npos)
      << obs::host_thp_mode();
  EXPECT_TRUE(manifest.at("validated").boolean);
  EXPECT_TRUE(manifest.at("validation_ok").boolean);
  // The manifest records the final (suffixed) artifact paths, so a
  // consumer holding only the manifest can find everything else.
  EXPECT_EQ(manifest.at("trace_path").str, m.trace_path);
  EXPECT_EQ(manifest.at("metrics_path").str, m.metrics_path);
  EXPECT_EQ(manifest.at("profile_path").str, m.profile_path);
  // A small traced run fits the per-thread rings: the trace is complete.
  ASSERT_EQ(manifest.at("trace_events_dropped").type,
            JsonValue::Type::kNumber);
  EXPECT_EQ(manifest.at("trace_events_dropped").number, 0.0);
  EXPECT_GT(manifest.at("time_median_ms").number, 0.0);
  EXPECT_EQ(manifest.at("metrics").type, JsonValue::Type::kObject);

  std::remove(m.trace_path.c_str());
  std::remove(m.metrics_path.c_str());
  std::remove(m.manifest_path.c_str());
  std::remove(m.profile_path.c_str());
}

TEST(ObsRoundTrip, UniqueArtifactPathsNeverCollide) {
  const std::string a = unique_artifact_path("out/trace.json");
  const std::string b = unique_artifact_path("out/trace.json");
  EXPECT_NE(a, b);
  // The suffix lands before the *filename* extension; dots in directory
  // names must not be split.
  EXPECT_EQ(a.rfind("out/trace.", 0), 0u);
  EXPECT_EQ(a.substr(a.size() - 5), ".json");
  const std::string c = unique_artifact_path("run.d/metrics");
  EXPECT_EQ(c.rfind("run.d/metrics.", 0), 0u);
  EXPECT_TRUE(unique_artifact_path("").empty());
}

// A two-device partitioned run's trace parses back with both modeled
// device lanes, the peer-copy halo spans, and the wait-list args intact —
// the multi-device artifact is as self-describing as the single-device one.
TEST(ObsRoundTrip, PartitionedTwoDeviceTraceParsesBack) {
  dwarfs::Lud lud;
  lud.configure(240);  // small preset, 15 block rows
  std::vector<xcl::Device*> devices = {&sim::testbed_device("GTX 1080"),
                                       &sim::testbed_device("Titan X")};
  reset_tracing();
  set_thread_lane_name("obs-test-partition");
  set_tracing_enabled(true);
  harness::PartitionOptions popts;
  popts.validate = true;
  const harness::PartitionedResult r =
      harness::run_partitioned_lud(lud, devices, popts);
  set_tracing_enabled(false);
  EXPECT_TRUE(r.validation.ok);
  ASSERT_GT(r.halo_transfers, 0u);

  const std::string path = temp_path("obs_partitioned_trace.json");
  ASSERT_TRUE(write_chrome_trace(path));
  const JsonValue root = parse_json_or_fail(read_file(path));
  std::remove(path.c_str());

  bool lane_dev0 = false;
  bool lane_dev1 = false;
  std::size_t peer_spans = 0;
  std::size_t spans_with_deps = 0;
  std::vector<double> queues;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str == "M" && e.at("pid").number == kDevicePid &&
        e.at("name").str == "thread_name") {
      const std::string& lane = e.at("args").at("name").str;
      if (lane.find("GTX 1080") != std::string::npos) lane_dev0 = true;
      if (lane.find("Titan X") != std::string::npos) lane_dev1 = true;
    }
    if (e.at("ph").str != "X" || e.at("pid").number != kDevicePid) continue;
    const JsonValue& args = e.at("args");
    if (args.at("cmd").type != JsonValue::Type::kNumber) continue;
    if (e.at("cat").str == "device:peer") {
      ++peer_spans;
      EXPECT_GT(args.at("bytes").number, 0.0);
    }
    if (!args.at("deps").array.empty()) ++spans_with_deps;
    const double q = args.at("q").number;
    if (std::find(queues.begin(), queues.end(), q) == queues.end()) {
      queues.push_back(q);
    }
  }
  EXPECT_TRUE(lane_dev0);
  EXPECT_TRUE(lane_dev1);
  EXPECT_GT(peer_spans, 0u);
  EXPECT_GT(spans_with_deps, 0u);
  // Each device runs its own queue; both must appear in the artifact.
  EXPECT_GE(queues.size(), 2u);
}

}  // namespace
}  // namespace eod::obs
