// Regression bands for the calibrated device models.  The figure-shape
// tests assert orderings; these pin the absolute modeled magnitudes into
// loose bands so an accidental re-tune of one knob (bandwidths, overheads,
// pattern factors) that silently shifts everything is caught.
//
// Bands are intentionally wide (2-4x) -- they are tripwires, not golden
// values.  If a deliberate recalibration moves a number, update the band
// and EXPERIMENTS.md together.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dwarfs/registry.hpp"
#include "harness/runner.hpp"
#include "obs/metrics.hpp"
#include "sim/testbed.hpp"
#include "sim/trace_replay.hpp"

namespace eod::harness {
namespace {

using dwarfs::ProblemSize;

double modeled_ms(const char* bench, ProblemSize size, const char* device) {
  MeasureOptions o;
  o.samples = 1;
  o.functional = false;
  auto dwarf = dwarfs::create_dwarf(bench);
  return measure(*dwarf, size, sim::testbed_device(device), o)
             .kernel_seconds *
         1e3;
}

struct Band {
  const char* bench;
  ProblemSize size;
  const char* device;
  double lo_ms;
  double hi_ms;
};

// Print a band by its anchor: gtest's default byte dump would put the bench
// and device pointers -- addresses that change with every build and
// process under ASLR -- into the listed test names.
void PrintTo(const Band& b, std::ostream* os) {
  *os << b.bench << ' ' << to_string(b.size) << " on " << b.device;
}

class RegressionBands : public ::testing::TestWithParam<Band> {};

TEST_P(RegressionBands, ModeledTimeWithinBand) {
  const Band& b = GetParam();
  const double t = modeled_ms(b.bench, b.size, b.device);
  EXPECT_GE(t, b.lo_ms) << b.bench << " on " << b.device;
  EXPECT_LE(t, b.hi_ms) << b.bench << " on " << b.device;
}

INSTANTIATE_TEST_SUITE_P(
    CalibratedPoints, RegressionBands,
    ::testing::Values(
        // Figure 1 anchors.
        Band{"crc", ProblemSize::kLarge, "i7-6700K", 0.08, 0.8},
        Band{"crc", ProblemSize::kLarge, "GTX 1080", 0.3, 2.5},
        Band{"crc", ProblemSize::kLarge, "Xeon Phi 7210", 0.8, 8.0},
        Band{"crc", ProblemSize::kTiny, "i7-6700K", 0.002, 0.03},
        // Figure 2 anchors.
        Band{"kmeans", ProblemSize::kLarge, "i7-6700K", 1.5, 15.0},
        Band{"kmeans", ProblemSize::kLarge, "Titan X", 0.8, 8.0},
        Band{"lud", ProblemSize::kLarge, "Titan X", 20.0, 200.0},
        Band{"fft", ProblemSize::kLarge, "i7-6700K", 10.0, 100.0},
        Band{"fft", ProblemSize::kLarge, "GTX 1080", 1.0, 12.0},
        // Figure 3 anchors.
        Band{"srad", ProblemSize::kLarge, "i7-6700K", 1.5, 15.0},
        Band{"srad", ProblemSize::kLarge, "Titan X", 0.1, 1.5},
        Band{"nw", ProblemSize::kLarge, "R9 290X", 8.0, 40.0},
        Band{"nw", ProblemSize::kLarge, "GTX 1080", 3.0, 20.0},
        // Figure 4 anchors.
        Band{"gem", ProblemSize::kTiny, "GTX 1080", 0.003, 0.08},
        Band{"hmm", ProblemSize::kTiny, "i7-6700K", 0.1, 1.5}),
    [](const auto& ti) {
      return std::string(ti.param.bench) + "_" +
             to_string(ti.param.size) + "_" +
             [d = std::string(ti.param.device)]() mutable {
               for (auto& c : d) {
                 if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
               }
               return d;
             }();
    });

TEST(RegressionBands, EnergyAnchors) {
  MeasureOptions o;
  o.functional = false;
  auto fft = dwarfs::create_dwarf("fft");
  const Measurement cpu = measure(*fft, ProblemSize::kLarge,
                                  sim::testbed_device("i7-6700K"), o);
  // ~70 W x ~28 ms: tens of millijoules to a few joules.
  const double j = cpu.energy_summary().median;
  EXPECT_GT(j, 0.2);
  EXPECT_LT(j, 20.0);
}

TEST(RegressionBands, TransferAnchors) {
  // fft large moves 2 x 16 MiB each way on a PCIe device.
  MeasureOptions o;
  o.functional = false;
  auto fft = dwarfs::create_dwarf("fft");
  const Measurement m = measure(*fft, ProblemSize::kLarge,
                                sim::testbed_device("GTX 1080"), o);
  EXPECT_GT(m.transfer_seconds * 1e3, 1.0);
  EXPECT_LT(m.transfer_seconds * 1e3, 20.0);
}

// The modeled times are a function of the workload, not of whether its
// kernels ran: a model-only measurement (functional = false) reports the
// functional pass's kernel, span and transfer seconds bit for bit.  Host
// work a dwarf skips on a model-only queue (its functional() guards in
// bind and run) must keep this true.
struct ModeCase {
  std::string bench;
  std::vector<ProblemSize> sizes;
};

void PrintTo(const ModeCase& c, std::ostream* os) { *os << c.bench; }

// Every Table 2 dwarf plus cwt at tiny and small; gem also at medium, whose
// bind skips its interleave on a model-only queue.
std::vector<ModeCase> mode_cases() {
  std::vector<std::string> names = dwarfs::benchmark_names();
  names.emplace_back("cwt");
  std::vector<ModeCase> cases;
  for (const std::string& name : names) {
    ModeCase c{name, {}};
    for (const ProblemSize s : dwarfs::create_dwarf(name)->supported_sizes()) {
      if (s == ProblemSize::kTiny || s == ProblemSize::kSmall ||
          (name == "gem" && s == ProblemSize::kMedium)) {
        c.sizes.push_back(s);
      }
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

class ModelOnly : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModelOnly, ModeledTimesMatchFunctionalBitExactly) {
  const ModeCase& c = GetParam();
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const ProblemSize size : c.sizes) {
    for (const char* device : {"i7-6700K", "GTX 1080"}) {
      SCOPED_TRACE(c.bench + "/" + to_string(size) + " on " + device);
      auto run = [&](bool functional) {
        MeasureOptions o;
        o.samples = 1;
        o.functional = functional;
        auto dwarf = dwarfs::create_dwarf(c.bench);
        return measure(*dwarf, size, sim::testbed_device(device), o);
      };
      const Measurement fn = run(true);
      const Measurement model = run(false);
      EXPECT_EQ(bits(model.kernel_seconds), bits(fn.kernel_seconds));
      EXPECT_EQ(bits(model.span_seconds), bits(fn.span_seconds));
      EXPECT_EQ(bits(model.transfer_seconds), bits(fn.transfer_seconds));
    }
  }
}

// A dwarf whose modeled profile, footprint and trace read only its shape
// generates its input on first functional use, never in setup() (DESIGN.md
// §5, "Model-only measurements"): a model-only sweep fills nothing, the
// first functional bind fills once and a second one does not refill.
// validate() alone fills, and so does crc's trace, which indexes its table
// by data byte; every other trace reads only the shape.
TEST_P(ModelOnly, SweepFillsNoInput) {
  const ModeCase& c = GetParam();
  static const std::vector<std::string> kDeferred = {
      "kmeans", "lud", "fft", "dwt", "srad", "crc", "nw", "gem"};
  const std::uint64_t once =
      std::find(kDeferred.begin(), kDeferred.end(), c.bench) !=
              kDeferred.end()
          ? 1
          : 0;
  const obs::Counter& fills = obs::counter("dwarfs.input_fills");
  const ProblemSize size = c.sizes.front();
  auto dwarf = dwarfs::create_dwarf(c.bench);
  const std::uint64_t before = fills.value();
  dwarf->setup(size);
  MeasureOptions o;
  o.samples = 1;
  o.functional = false;
  o.reuse_setup = true;
  for (const char* device : {"i7-6700K", "GTX 1080"}) {
    (void)measure(*dwarf, size, sim::testbed_device(device), o);
  }
  EXPECT_EQ(fills.value(), before) << "a model-only sweep generated input";
  o.functional = true;
  (void)measure(*dwarf, size, sim::testbed_device("i7-6700K"), o);
  EXPECT_EQ(fills.value(), before + once) << "first functional bind";
  (void)measure(*dwarf, size, sim::testbed_device("GTX 1080"), o);
  EXPECT_EQ(fills.value(), before + once) << "second functional bind";

  auto fresh = dwarfs::create_dwarf(c.bench);
  fresh->setup(size);
  const std::uint64_t traced = fills.value();
  (void)sim::hash_trace(
      [&fresh](sim::TraceWriter& w) { fresh->stream_trace(w); });
  EXPECT_EQ(fills.value(), traced + (c.bench == "crc" ? 1 : 0))
      << "stream_trace";
  if (once == 1) {
    auto unbound = dwarfs::create_dwarf(c.bench);
    unbound->setup(size);
    const std::uint64_t validated = fills.value();
    (void)unbound->validate();
    EXPECT_EQ(fills.value(), validated + 1) << "validate() alone";
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, ModelOnly, ::testing::ValuesIn(mode_cases()),
                         [](const auto& ti) { return ti.param.bench; });

}  // namespace
}  // namespace eod::harness
