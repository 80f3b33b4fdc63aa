// Suite benchmark: times the suite's layers from outside.
//
//   suite_bench --workload W --seed N --seconds S --trace 0|1
//               --pins FILE [--trace-out FILE] [--tiny] [--inject-mismatch]
//   suite_bench --write-pins FILE
//
// Workloads (perfbench/README.md has the cell lists and exclusions):
//   app_validated    setup -> bind -> run -> finish -> validate ->
//                    result_signature -> unbind per cell, as *_app does
//   kernel_loop      repeated bind -> run -> finish with the output checked
//   suite_sweep      one setup, then model-only harness::measure on all 15
//                    testbed devices, as suite_report does
//   counters_replay  hash_trace + replay_hierarchies on a cold memo, as
//                    counters_report does
//
// Every layer is timed around calls into the public API of its module; the
// program's own obs recorder stays off.  A run repeats passes over the
// workload's cells while another pass fits in --seconds (at least three
// passes) and composes a pass from each cell's median.  With --trace 1 the passes
// alternate between traced (one span per cell and per layer call) and
// untraced, per-layer metrics are medians over the traced passes, and
// trace_overhead_frac compares the two kinds.
//
// Every output is checked: result signatures, modeled kernel/span seconds
// and warm replayed counters against the pins file, plus validate() where
// the workload runs it.  The last stdout line is the JSON result.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dwarfs/registry.hpp"
#include "harness/runner.hpp"
#include "obs/manifest.hpp"
#include "sim/device_spec.hpp"
#include "sim/testbed.hpp"
#include "sim/trace_replay.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"
#include "xcl/thread_pool.hpp"

namespace {

using namespace eod;
using dwarfs::ProblemSize;
using Clock = std::chrono::steady_clock;

constexpr const char* kHostDevice = "i7-6700K";

// ---------------------------------------------------------------- cells

struct Cell {
  std::string dwarf;
  ProblemSize size = ProblemSize::kTiny;
  xcl::QueueMode queue = xcl::QueueMode::kInOrder;
  bool dual = false;   ///< kernel_loop cell run on both queue modes
  int reps = 1;        ///< kernel_loop repetitions
  bool fanout = false; ///< counters_replay: all 15 hierarchies at once

  [[nodiscard]] std::string label() const {
    std::string s = dwarf + "/" + dwarfs::to_string(size);
    if (dual) s += queue == xcl::QueueMode::kOutOfOrder ? "/ooo" : "/inorder";
    if (fanout) s += "/x15";
    return s;
  }
};

/// Cells whose serial reference alone takes minutes; app_validated skips
/// them (kernel_loop and suite_sweep still cover the dwarfs).
struct Exclusion {
  const char* dwarf;
  ProblemSize size;
  const char* reason;
};
constexpr Exclusion kExcluded[] = {
    {"lud", ProblemSize::kLarge, "serial reference ~145 s"},
    {"gem", ProblemSize::kMedium, "O(N*A) serial reference, minutes"},
    {"gem", ProblemSize::kLarge, "O(N*A) serial reference, minutes"},
    {"cwt", ProblemSize::kMedium, "O(N*A) serial reference, ~15 s"},
    {"cwt", ProblemSize::kLarge, "O(N*A) serial reference, minutes"},
};

/// counters_replay cells left out to keep a pass near the others' length:
/// medium cells replay on the i7-6700K alone, small cells on all 15.
constexpr Exclusion kExcludedReplay[] = {
    {"gem", ProblemSize::kMedium, "51e9-access trace, hours of replay"},
    {"fft", ProblemSize::kMedium, "20e6-access trace, ~2.8 s, half a pass"},
    {"kmeans", ProblemSize::kMedium, "17e6-access trace, ~1.6 s"},
    {"gem", ProblemSize::kSmall, "58e6 accesses x 15 hierarchies, ~2.5 s"},
};

bool listed(const Exclusion* begin, const Exclusion* end,
            const std::string& dwarf, ProblemSize size) {
  return std::any_of(begin, end, [&](const Exclusion& e) {
    return dwarf == e.dwarf && size == e.size;
  });
}
bool excluded(const std::string& dwarf, ProblemSize size) {
  return listed(std::begin(kExcluded), std::end(kExcluded), dwarf, size);
}
bool excluded_replay(const std::string& dwarf, ProblemSize size) {
  return listed(std::begin(kExcludedReplay), std::end(kExcludedReplay), dwarf,
                size);
}

/// Dwarfs that expose a memory trace (the counters_report set).
const std::vector<std::string> kTraceDwarfs = {
    "kmeans", "csr", "crc", "fft", "dwt", "srad", "nw", "gem"};

std::vector<Cell> app_validated_cells(bool tiny) {
  std::vector<std::string> names = dwarfs::benchmark_names();
  names.emplace_back("cwt");
  std::vector<Cell> cells;
  for (const std::string& name : names) {
    for (const ProblemSize s : dwarfs::create_dwarf(name)->supported_sizes()) {
      if ((tiny && s != ProblemSize::kTiny) || excluded(name, s)) continue;
      cells.push_back({name, s});
    }
  }
  return cells;
}

std::vector<Cell> kernel_loop_cells(bool tiny) {
  struct Spec {
    const char* dwarf;
    ProblemSize size;
    int reps;
    bool dual;
  };
  const Spec specs[] = {
      {"kmeans", ProblemSize::kLarge, 2, true},
      {"fft", ProblemSize::kLarge, 2, false},
      {"dwt", ProblemSize::kLarge, 2, false},
      {"srad", ProblemSize::kLarge, 2, true},
      {"nw", ProblemSize::kLarge, 2, false},
      {"crc", ProblemSize::kLarge, 4, false},
      {"csr", ProblemSize::kLarge, 3, false},
      {"lud", ProblemSize::kMedium, 2, false},
      {"gem", ProblemSize::kSmall, 2, true},
      {"cwt", ProblemSize::kSmall, 2, false},
      {"hmm", ProblemSize::kTiny, 3, false},
      {"nqueens", ProblemSize::kTiny, 3, false},
  };
  std::vector<Cell> cells;
  for (const Spec& sp : specs) {
    Cell c{sp.dwarf, tiny ? ProblemSize::kTiny : sp.size};
    c.reps = tiny ? 1 : sp.reps;
    c.dual = sp.dual;
    cells.push_back(c);
    if (sp.dual) {
      c.queue = xcl::QueueMode::kOutOfOrder;
      cells.push_back(c);
    }
  }
  return cells;
}

std::vector<Cell> suite_sweep_cells(bool tiny) {
  std::vector<Cell> cells;
  for (const std::string& name : dwarfs::benchmark_names()) {
    for (const ProblemSize s : dwarfs::create_dwarf(name)->supported_sizes()) {
      if (tiny && s != ProblemSize::kTiny) continue;
      cells.push_back({name, s});
    }
  }
  return cells;
}

std::vector<Cell> counters_replay_cells(bool tiny) {
  std::vector<Cell> cells;
  for (const std::string& name : kTraceDwarfs) {
    const bool skip_medium = !tiny && excluded_replay(name, ProblemSize::kMedium);
    const bool skip_small = !tiny && excluded_replay(name, ProblemSize::kSmall);
    if (!skip_medium) {
      cells.push_back({name, tiny ? ProblemSize::kTiny : ProblemSize::kMedium});
    }
    if (!skip_small) {
      Cell fan{name, tiny ? ProblemSize::kTiny : ProblemSize::kSmall};
      fan.fanout = true;
      cells.push_back(fan);
    }
  }
  return cells;
}

// ---------------------------------------------------------------- spans

/// One timed interval: a pass (root), a cell, or one layer call.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< index into the span vector, -1 for a root
  int cell;    ///< index into the run's cell list, -1 outside a cell
  int pass;
  [[nodiscard]] std::int64_t dur() const { return end_ns - start_ns; }
};

/// In-memory span recorder.  Passes, cells and setup calls are always
/// recorded (they carry the end-to-end metrics); the other layer calls only
/// while `detail` is on.
class Tracer {
 public:
  bool detail = false;
  int cell = -1;
  int pass = -1;
  std::vector<Span> spans;

  int open(const char* name, bool always) {
    if (!always && !detail) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back({name, now(), 0, parent, cell, pass});
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans[static_cast<std::size_t>(id)].end_ns = now();
    stack_.pop_back();
  }

 private:
  static std::int64_t now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, bool always = false)
      : t_(t), id_(t.open(name, always)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------- pins

/// Pinned outputs, one tab-separated `kind dwarf size [device] value` line
/// each.  In record mode check() stores instead of comparing.
class Pins {
 public:
  bool record = false;
  bool inject_mismatch = false;  ///< corrupt the first signature checked
  std::vector<std::string> mismatches;

  bool load(const std::string& path) {
    std::ifstream f(path);
    if (!f) return false;
    std::string line;
    while (std::getline(f, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t tab = line.rfind('\t');
      if (tab == std::string::npos) continue;
      values_[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return true;
  }
  bool save(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    f << "# Outputs pinned by perfbench/suite_bench --write-pins: result\n"
         "# signatures, modeled kernel/span seconds, warm replayed counters.\n";
    for (const auto& [k, v] : values_) f << k << '\t' << v << '\n';
    return f.good();
  }

  /// Recording keeps the first value seen, so a later cell of the same key
  /// (another queue mode, workload or repetition) must reproduce it.
  bool check(const std::string& key, std::string got) {
    if (record) values_.emplace(key, got);
    if (inject_mismatch && key.rfind("sig\t", 0) == 0) {
      inject_mismatch = false;
      got += "-injected";
    }
    const auto it = values_.find(key);
    if (it != values_.end() && it->second == got) return true;
    mismatches.push_back(key + ": got " + got + ", pinned " +
                         (it == values_.end() ? "nothing" : it->second));
    return false;
  }

 private:
  std::map<std::string, std::string> values_;
};

std::string key(const char* kind, const Cell& c, const std::string& dev = "") {
  std::string k = std::string(kind) + '\t' + c.dwarf + '\t' +
                  dwarfs::to_string(c.size);
  if (!dev.empty()) k += '\t' + dev;
  return k;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- a run

/// Exact per-pass counts (no timing).
struct Counts {
  xcl::ExecutorStats exec;
  std::uint64_t commands = 0;
  std::uint64_t bound_bytes = 0;
  std::uint64_t accesses = 0;
  std::uint64_t hierarchy_accesses = 0;  ///< accesses x hierarchies
};

struct Run {
  Tracer tracer;
  Pins pins;
  Counts counts;
  std::vector<Cell> cells;
  std::uint64_t seed = 1;
  std::string failure;  ///< first failure of the current cell

  void fail(const std::string& what) {
    if (failure.empty()) failure = what;
  }
  /// Repetitions after the first get their own pin: kmeans carries its
  /// centroids from one bind/run/finish into the next.
  void check_sig(const Cell& c, const dwarfs::Dwarf& d, int rep = 0) {
    char buf[24];
    {
      Scope s(tracer, "dwarfs.signature");
      std::snprintf(buf, sizeof buf, "%016" PRIx64, d.result_signature());
    }
    std::string k = key("sig", c);
    if (rep > 0) k += "\trep" + std::to_string(rep);
    if (!pins.check(k, buf)) fail("signature mismatch");
  }
  void check_validation(dwarfs::Dwarf& d) {
    dwarfs::Validation v;
    {
      Scope s(tracer, "dwarfs.validate");
      v = d.validate();
    }
    if (!v.ok) fail("validation failed: " + v.detail);
  }
};

std::unique_ptr<dwarfs::Dwarf> make_and_setup(Run& r, const Cell& c) {
  auto d = dwarfs::create_dwarf(c.dwarf);
  Scope s(r.tracer, "dwarfs.setup", /*always=*/true);
  d->setup(c.size);
  return d;
}

void teardown(Run& r, std::unique_ptr<dwarfs::Dwarf>& d) {
  Scope s(r.tracer, "dwarfs.teardown");
  d.reset();
}

/// bind -> run (+ Queue::finish) -> finish on a fresh context and queue;
/// the caller checks the output before `after` unbinds.
template <typename AfterFinish>
void functional_iteration(Run& r, const Cell& c, dwarfs::Dwarf& d,
                          AfterFinish&& after) {
  xcl::Context ctx(sim::testbed_device(kHostDevice));
  xcl::Queue q(ctx, c.queue);
  {
    Scope s(r.tracer, "xcl.bind");
    d.bind(ctx, q);
  }
  r.counts.bound_bytes += d.footprint_bytes(c.size);
  {
    Scope s(r.tracer, "xcl.run");
    d.run();
    (void)q.finish();
  }
  {
    Scope s(r.tracer, "dwarfs.finish");
    d.finish();
  }
  after();
  r.counts.commands += q.event_count();
  Scope s(r.tracer, "xcl.unbind");
  d.unbind();
}

void app_validated(Run& r, const Cell& c) {
  auto d = make_and_setup(r, c);
  functional_iteration(r, c, *d, [&] {
    r.check_validation(*d);
    r.check_sig(c, *d);
  });
  teardown(r, d);
}

void kernel_loop(Run& r, const Cell& c) {
  auto d = make_and_setup(r, c);
  for (int rep = 0; rep < c.reps; ++rep) {
    functional_iteration(r, c, *d, [&] {
      // fft, hmm and nqueens hash to 0: validate their first repetition.
      if (rep == 0 && d->result_signature() == 0) r.check_validation(*d);
      r.check_sig(c, *d, rep);
    });
  }
  teardown(r, d);
}

void suite_sweep(Run& r, const Cell& c) {
  auto d = make_and_setup(r, c);
  harness::MeasureOptions opts;
  opts.functional = false;
  opts.reuse_setup = true;
  opts.seed = r.seed;
  opts.dispatch = xcl::DispatchMode::kAuto;
  opts.queue_mode = xcl::QueueMode::kInOrder;
  for (xcl::Device* dev : sim::testbed_devices()) {
    harness::Measurement m;
    {
      Scope s(r.tracer, "harness.measure");
      m = harness::measure(*d, c.size, *dev, opts);
    }
    r.counts.bound_bytes += d->footprint_bytes(c.size);
    if (!r.pins.check(key("model", c, dev->name()),
                      exact(m.kernel_seconds) + " " + exact(m.span_seconds))) {
      r.fail("modeled time mismatch on " + dev->name());
    }
  }
  teardown(r, d);
}

void counters_replay(Run& r, const Cell& c) {
  auto d = make_and_setup(r, c);
  const sim::TraceGenerator gen = [&d](sim::TraceWriter& w) {
    d->stream_trace(w);
  };
  sim::TraceKey tk;
  {
    Scope s(r.tracer, "sim.hash");
    tk = sim::hash_trace(gen);
  }
  std::vector<const sim::DeviceSpec*> specs;
  if (c.fanout) {
    for (xcl::Device* dev : sim::testbed_devices()) {
      specs.push_back(&sim::spec_by_name(dev->name()));
    }
  } else {
    specs.push_back(&sim::spec_by_name(kHostDevice));
  }
  std::vector<sim::ReplayMemoEntry> out;
  {
    Scope s(r.tracer, c.fanout ? "sim.replay_fanout" : "sim.replay_single");
    out = sim::replay_hierarchies(gen, specs);
  }
  r.counts.accesses += tk.accesses;
  r.counts.hierarchy_accesses += tk.accesses * specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::HierarchyCounters& w = out[i].warm;
    if (out[i].accesses != tk.accesses) r.fail("replayed access count");
    const std::string got = std::to_string(out[i].accesses) + " " +
                            std::to_string(w.l1_dcm) + " " +
                            std::to_string(w.l2_dcm) + " " +
                            std::to_string(w.l3_tcm) + " " +
                            std::to_string(w.tlb_dm);
    if (!r.pins.check(key("ctr", c, specs[i]->name), got)) {
      r.fail("warm counter mismatch on " + specs[i]->name);
    }
  }
  teardown(r, d);
}

using CellFn = void (*)(Run&, const Cell&);

struct Workload {
  const char* name;
  CellFn fn;
  std::vector<Cell> (*cells)(bool tiny);
};

const Workload kWorkloads[] = {
    {"app_validated", app_validated, app_validated_cells},
    {"kernel_loop", kernel_loop, kernel_loop_cells},
    {"suite_sweep", suite_sweep, suite_sweep_cells},
    {"counters_replay", counters_replay, counters_replay_cells},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

xcl::ExecutorStats operator-(const xcl::ExecutorStats& a,
                             const xcl::ExecutorStats& b) {
  xcl::ExecutorStats d;
  d.launches = a.launches - b.launches;
  d.tasks_executed = a.tasks_executed - b.tasks_executed;
  d.chunks_claimed = a.chunks_claimed - b.chunks_claimed;
  d.chunks_stolen = a.chunks_stolen - b.chunks_stolen;
  d.groups_loop = a.groups_loop - b.groups_loop;
  d.groups_fiber = a.groups_fiber - b.groups_fiber;
  d.groups_span = a.groups_span - b.groups_span;
  d.groups_simd = a.groups_simd - b.groups_simd;
  d.groups_checked = a.groups_checked - b.groups_checked;
  return d;
}

struct PassResult {
  bool traced = false;
  int first_span = 0;  ///< the pass root's index in Tracer::spans
  int end_span = 0;
  std::int64_t outer_ns = 0;  ///< the pass timed by a clock outside the tracer
  Counts counts;
  int attempted = 0;
  int failed = 0;
};

/// One pass over every cell, in an order drawn from `rng`.
PassResult run_pass(Run& r, const Workload& w, int pass_index, bool traced,
                    std::mt19937_64& rng) {
  std::vector<int> order(r.cells.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  PassResult p;
  p.traced = traced;
  r.counts = Counts{};
  r.tracer.detail = traced;
  r.tracer.pass = pass_index;
  p.first_span = static_cast<int>(r.tracer.spans.size());
  const xcl::ExecutorStats before = xcl::executor_stats();
  const Clock::time_point t0 = Clock::now();
  {
    Scope root(r.tracer, "pass", /*always=*/true);
    for (const int i : order) {
      const Cell& c = r.cells[static_cast<std::size_t>(i)];
      r.tracer.cell = i;
      r.failure.clear();
      {
        Scope cs(r.tracer, "cell", /*always=*/true);
        try {
          w.fn(r, c);
        } catch (const std::exception& e) {
          r.fail(std::string("exception: ") + e.what());
        }
      }
      ++p.attempted;
      if (!r.failure.empty()) {
        ++p.failed;
        std::cerr << "FAIL " << w.name << ' ' << c.label() << ": "
                  << r.failure << '\n';
      }
      r.tracer.cell = -1;
      // Hand freed memory back so every cell starts from the same heap,
      // whatever ran before it: peak RSS and page-fault cost stay
      // independent of the shuffled order.
      malloc_trim(0);
    }
  }
  p.outer_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count();
  p.end_span = static_cast<int>(r.tracer.spans.size());
  r.counts.exec = xcl::executor_stats() - before;
  p.counts = r.counts;
  return p;
}

// ---------------------------------------------------------------- metrics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile of sorted values.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The highest whole percentile with at least 10 calls beyond it.
int tail_percentile(std::size_t calls) {
  for (int p = 99; p > 50; --p) {
    if (static_cast<double>(calls) * (100 - p) / 100.0 >= 10.0) return p;
  }
  return 50;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one pass says, derived from its spans and counts.
struct PassMetrics {
  double wall_s = 0.0;        ///< the pass span
  double self_total_s = 0.0;  ///< self times of every span in the pass
  std::map<int, double> cell_s;        ///< per cell index
  std::map<int, double> cell_setup_s;  ///< per cell index
  std::map<std::string, double> span_s;  ///< per span name, summed
  std::map<std::string, double> self_s;  ///< per span name, summed self time
  double run_inorder_s = 0.0;
  double run_ooo_s = 0.0;
  std::vector<double> measure_ms;
  bool nested = true;  ///< children inside parents, self times >= 0
};

PassMetrics derive(const Run& r, const PassResult& p) {
  PassMetrics m;
  const auto& spans = r.tracer.spans;
  std::map<int, std::int64_t> child_ns;
  for (int i = p.first_span; i < p.end_span; ++i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    if (s.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
      m.nested = false;
    }
    child_ns[s.parent] += s.dur();
  }
  for (int i = p.first_span; i < p.end_span; ++i) {
    const Span& s = spans[static_cast<std::size_t>(i)];
    const double dur = static_cast<double>(s.dur()) * 1e-9;
    const std::int64_t self = s.dur() - child_ns[i];
    if (self < 0) m.nested = false;
    m.span_s[s.name] += dur;
    m.self_s[s.name] += static_cast<double>(self) * 1e-9;
    m.self_total_s += static_cast<double>(self) * 1e-9;
    const std::string name = s.name;
    if (name == "pass") m.wall_s = dur;
    if (name == "cell") m.cell_s[s.cell] += dur;
    if (name == "dwarfs.setup") m.cell_setup_s[s.cell] += dur;
    if (name == "harness.measure") m.measure_ms.push_back(dur * 1e3);
    if (name == "xcl.run" && s.cell >= 0) {
      const Cell& c = r.cells[static_cast<std::size_t>(s.cell)];
      if (c.dual) {
        (c.queue == xcl::QueueMode::kOutOfOrder ? m.run_ooo_s
                                                : m.run_inorder_s) += dur;
      }
    }
  }
  std::sort(m.measure_ms.begin(), m.measure_ms.end());
  return m;
}

/// Per-layer metrics of one traced pass; names match BENCHMARK.json.
std::vector<Metric> layer_metrics(const PassMetrics& m, const Counts& c) {
  auto span = [&m](const char* n) {
    const auto it = m.span_s.find(n);
    return it == m.span_s.end() ? 0.0 : it->second;
  };
  const auto& e = c.exec;
  const std::uint64_t groups = e.groups_loop + e.groups_fiber +
                               e.groups_span + e.groups_simd +
                               e.groups_checked;
  const double run_s = span("xcl.run");
  const double measure_s = span("harness.measure");
  const double replay_s = span("sim.replay_single") + span("sim.replay_fanout");
  const double bound_gb = static_cast<double>(c.bound_bytes) * 1e-9;
  const double chunks =
      static_cast<double>(e.chunks_claimed + e.chunks_stolen);
  const auto n = static_cast<double>(m.measure_ms.size());
  const double tail_p = tail_percentile(m.measure_ms.size());
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  return {
      {"dwarfs.setup_s", span("dwarfs.setup"), "s"},
      {"dwarfs.validate_s", span("dwarfs.validate"), "s"},
      {"dwarfs.finish_s", span("dwarfs.finish"), "s"},
      {"dwarfs.signature_s", span("dwarfs.signature"), "s"},
      {"dwarfs.teardown_s", span("dwarfs.teardown"), "s"},
      {"xcl.bind_s", span("xcl.bind"), "s"},
      {"xcl.unbind_s", span("xcl.unbind"), "s"},
      {"xcl.run_s", run_s, "s"},
      {"xcl.run_inorder_s", m.run_inorder_s, "s"},
      {"xcl.run_ooo_s", m.run_ooo_s, "s"},
      {"xcl.launches", static_cast<double>(e.launches), "count"},
      {"xcl.groups", static_cast<double>(groups), "count"},
      {"xcl.groups_loop", static_cast<double>(e.groups_loop), "count"},
      {"xcl.groups_fiber", static_cast<double>(e.groups_fiber), "count"},
      {"xcl.groups_span", static_cast<double>(e.groups_span), "count"},
      {"xcl.groups_simd", static_cast<double>(e.groups_simd), "count"},
      {"xcl.groups_per_s", ratio(static_cast<double>(groups), run_s), "1/s"},
      {"xcl.steal_ratio", ratio(static_cast<double>(e.chunks_stolen), chunks),
       "ratio"},
      {"xcl.commands", static_cast<double>(c.commands), "count"},
      {"xcl.bound_gb", bound_gb, "GB"},
      {"harness.measure_calls", n, "count"},
      {"harness.measure_ms.p50", percentile(m.measure_ms, 50), "ms"},
      {"harness.measure_ms.tail", percentile(m.measure_ms, tail_p), "ms"},
      {"harness.bind_gbps", ratio(bound_gb, measure_s), "GB/s"},
      {"sim.hash_s", span("sim.hash"), "s"},
      {"sim.replay_single_s", span("sim.replay_single"), "s"},
      {"sim.replay_fanout_s", span("sim.replay_fanout"), "s"},
      {"sim.accesses", static_cast<double>(c.accesses), "count"},
      {"sim.maccesses_per_s",
       ratio(static_cast<double>(c.hierarchy_accesses) * 1e-6, replay_s),
       "M/s"},
      {"bench.self_s", m.self_s.count("pass") ? m.self_s.at("pass") : 0.0, "s"},
      {"bench.cell_self_s", m.self_s.count("cell") ? m.self_s.at("cell") : 0.0,
       "s"},
  };
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Writes the recorded spans as Chrome trace_event JSON.
bool write_spans(const Run& r, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  const std::int64_t origin =
      r.tracer.spans.empty() ? 0 : r.tracer.spans.front().start_ns;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < r.tracer.spans.size(); ++i) {
    const Span& s = r.tracer.spans[i];
    f << (i ? ",\n" : "") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << json_number(static_cast<double>(s.start_ns - origin) * 1e-3)
      << ",\"dur\":" << json_number(static_cast<double>(s.dur()) * 1e-3)
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
      << ",\"pass\":" << s.pass << ",\"cell\":\""
      << (s.cell >= 0 ? r.cells[static_cast<std::size_t>(s.cell)].label()
                      : std::string())
      << "\"}}";
  }
  f << "\n]}\n";
  return f.good();
}

int usage(const char* why) {
  std::cerr << "suite_bench: " << why
            << "\nusage: suite_bench --workload "
               "app_validated|kernel_loop|suite_sweep|counters_replay "
               "--seed N --seconds S --trace 0|1 --pins FILE "
               "[--trace-out FILE] [--tiny] [--inject-mismatch]\n"
               "       suite_bench --write-pins FILE\n";
  return 2;
}

/// Runs one pass of every workload, full and tiny cells, and pins what it
/// sees.  A key checked twice must reproduce its first value (Pins::check).
int write_pins(const std::string& path) {
  Run r;
  r.pins.record = true;
  std::mt19937_64 rng(1);
  for (const Workload& w : kWorkloads) {
    for (const bool tiny : {false, true}) {
      r.cells = w.cells(tiny);
      const PassResult p = run_pass(r, w, 0, false, rng);
      if (p.failed != 0) {
        std::cerr << "write-pins: " << w.name << " had failures\n";
        return 1;
      }
    }
  }
  return r.pins.save(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Hermetic: the env hatches would change what the suite runs.
  for (const char* var : {"EOD_DISPATCH", "EOD_QUEUE", "EOD_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "suite_bench: " << var
                << " is set; unset it for a hermetic run\n";
      return 2;
    }
  }
  std::string workload;
  std::string pins_path;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;
  bool inject = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--write-pins" && has_value) return write_pins(argv[++i]);
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      traced = std::string(argv[++i]) == "1";
    } else if (a == "--pins" && has_value) {
      pins_path = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--tiny") {
      tiny = true;
    } else if (a == "--inject-mismatch") {
      inject = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  Run r;
  r.seed = seed;
  r.pins.inject_mismatch = inject;
  if (!r.pins.load(pins_path)) return usage("cannot read the pins file");
  r.cells = w->cells(tiny);
  xcl::set_dispatch_mode(xcl::DispatchMode::kAuto);

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  const unsigned workers = xcl::ThreadPool::global().size();
  std::cout << "# suite_bench workload=" << w->name << " seed=" << seed
            << " cells=" << r.cells.size() << (tiny ? " (tiny)" : "")
            << " git=" << obs::git_describe()
            << " build=" << EOD_BENCH_BUILD_TYPE << " nproc=" << nproc
            << " pool_workers=" << workers << '\n';
  if (nproc > 0 && workers > static_cast<unsigned>(nproc)) {
    std::cout << "# warning: pool workers exceed the CPUs this process may "
                 "use\n";
  }
  const std::string wname = w->name;
  for (const Exclusion& e : wname == "app_validated" ? std::span(kExcluded)
                            : wname == "counters_replay"
                                ? std::span(kExcludedReplay)
                                : std::span<const Exclusion>()) {
    std::cout << "# excluded " << e.dwarf << '/' << dwarfs::to_string(e.size)
              << ": " << e.reason << '\n';
  }

  // Passes while another one fits in the budget: at least three, and with
  // --trace 1 an even count so traced and untraced passes pair up.  A
  // slower host runs fewer passes rather than a longer run.
  std::mt19937_64 rng(seed);
  std::vector<PassResult> passes;
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const bool enough = static_cast<int>(passes.size()) >= 3 &&
                        (!traced || passes.size() % 2 == 0);
    const double next_s =
        passes.empty() ? 0.0
                       : static_cast<double>(passes.back().outer_ns) * 1e-9;
    if (enough && elapsed + next_s > seconds) break;
    passes.push_back(run_pass(r, *w, i, traced && i % 2 == 0, rng));
  }

  int attempted = 0;
  int failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  for (const std::string& m : r.pins.mismatches) std::cerr << "  " << m << '\n';

  // A pass's wall and setup time are composed from per-cell medians over
  // the passes, so a hiccup in one cell of one pass does not move them.
  std::map<int, std::vector<double>> cell_walls[2];
  std::map<int, std::vector<double>> cell_setups;
  std::vector<double> walls;
  std::vector<std::vector<Metric>> layers;
  // Reconciliation: in every pass, the self times of all spans must add up
  // to the pass as timed by a clock outside the recorder.
  bool reconciled = true;
  double worst_gap_s = 0.0;
  for (const PassResult& p : passes) {
    const PassMetrics m = derive(r, p);
    const double outer_s = static_cast<double>(p.outer_ns) * 1e-9;
    const double gap_s = std::abs(m.self_total_s - outer_s);
    worst_gap_s = std::max(worst_gap_s, gap_s);
    if (!m.nested || gap_s > 1e-3 + 1e-3 * outer_s) reconciled = false;
    for (const auto& [cell, v] : m.cell_s) cell_walls[p.traced][cell].push_back(v);
    if (p.traced) {
      layers.push_back(layer_metrics(m, p.counts));
    } else {
      walls.push_back(m.wall_s);
      for (const auto& [cell, v] : m.cell_setup_s) {
        cell_setups[cell].push_back(v);
      }
    }
  }
  const auto sum_of_medians = [](const std::map<int, std::vector<double>>& m) {
    double sum = 0.0;
    for (const auto& [cell, v] : m) sum += median(v);
    return sum;
  };
  const double wall_s = sum_of_medians(cell_walls[0]);
  std::cout << "# passes=" << passes.size() << " attempted=" << attempted
            << " failed=" << failed << " fail_ratio="
            << static_cast<double>(failed) / std::max(attempted, 1)
            << " wall_s(per-cell medians)=" << wall_s << "\n# untraced passes:";
  for (const double v : walls) std::cout << ' ' << v;
  std::cout << '\n';

  std::vector<Metric> metrics;
  if (!traced) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {{"wall_s", wall_s, "s"},
               {"setup_s", sum_of_medians(cell_setups), "s"},
               {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                "MB"}};
  } else {
    for (std::size_t k = 0; k < layers.front().size(); ++k) {
      std::vector<double> v;
      for (const auto& l : layers) v.push_back(l[k].value);
      metrics.push_back({layers.front()[k].name, median(v),
                         layers.front()[k].unit});
    }
    const double traced_wall = sum_of_medians(cell_walls[1]);
    metrics.push_back({"trace_overhead_frac",
                       wall_s > 0.0 ? (traced_wall - wall_s) / wall_s : 0.0,
                       "ratio"});
    std::cout << "# reconcile: " << (reconciled ? "ok" : "FAILED")
              << " (spans nest, self times >= 0, per pass the self times "
                 "sum to the outer clock within "
              << worst_gap_s * 1e3 << " ms)\n";
    for (const Metric& m : metrics) {
      if (m.unit != "s") continue;
      std::cout << "# " << m.name << " = " << m.value << " s, "
                << 100.0 * m.value / std::max(traced_wall, 1e-12)
                << "% of traced wall_s " << traced_wall << " s\n";
    }
    const auto calls = std::find_if(
        metrics.begin(), metrics.end(),
        [](const Metric& m) { return m.name == "harness.measure_calls"; });
    std::cout << "# harness.measure_ms.tail is p"
              << tail_percentile(static_cast<std::size_t>(calls->value))
              << " of " << calls->value << " calls per pass\n";
    if (!trace_out.empty() && !write_spans(r, trace_out)) {
      std::cerr << "suite_bench: cannot write " << trace_out << '\n';
      return 1;
    }
  }

  const bool correct = failed == 0 && (!traced || reconciled);
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
