// Property and edge-case tests for the small shared utilities: RNG,
// validation helpers, enum printers, image tooling, event bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/dwt/image.hpp"
#include "dwarfs/gem/gem.hpp"
#include "sim/testbed.hpp"
#include "xcl/event.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {
namespace {

TEST(SplitMix, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide
  }
}

TEST(SplitMix, UniformRangesRespected) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float u = rng.uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
    const float v = rng.uniform(-3.0f, 5.0f);
    EXPECT_GE(v, -3.0f);
    EXPECT_LT(v, 5.0f);
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(SplitMix64(1).below(0), 0u);
}

TEST(SplitMix, ValuesSpreadAcrossBuckets) {
  SplitMix64 rng(99);
  std::set<std::uint64_t> buckets;
  for (int i = 0; i < 1000; ++i) buckets.insert(rng.below(64));
  EXPECT_EQ(buckets.size(), 64u);  // every bucket hit in 1000 draws
}

TEST(Validate, NormHelpersHandleEdges) {
  const std::vector<float> a = {1.0f, 2.0f};
  const std::vector<float> b = {1.0f, 2.0f};
  const std::vector<float> c = {1.0f};
  EXPECT_DOUBLE_EQ(rel_l2_diff(a, b), 0.0);
  EXPECT_TRUE(std::isinf(rel_l2_diff(a, c)));  // size mismatch
  EXPECT_TRUE(std::isinf(max_abs_diff(a, c)));
  const std::vector<float> zeros = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(rel_l2_diff(zeros, zeros), 0.0);
  EXPECT_TRUE(std::isinf(rel_l2_diff(a, zeros)));  // nonzero vs zero ref
  const Validation v = validate_norm(a, b, 1e-9, "probe");
  EXPECT_TRUE(v.ok);
  EXPECT_NE(v.detail.find("probe"), std::string::npos);
}

TEST(Enums, ProblemSizeRoundTrips) {
  for (const ProblemSize s : kAllSizes) {
    const auto parsed = parse_problem_size(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_problem_size("enormous").has_value());
  EXPECT_FALSE(parse_problem_size("").has_value());
}

TEST(Enums, PrintersCoverAllValues) {
  EXPECT_STREQ(xcl::to_string(xcl::DeviceType::kAccelerator),
               "ACCELERATOR");
  EXPECT_STREQ(xcl::to_string(xcl::CommandKind::kRead), "read");
  EXPECT_STREQ(xcl::to_string(xcl::AccessPattern::kRowPerItem),
               "row-per-item");
  EXPECT_STREQ(sim::to_string(sim::AcceleratorClass::kMic), "MIC");
  EXPECT_STREQ(xcl::to_string(xcl::Status::kInvalidWorkGroupSize),
               "INVALID_WORK_GROUP_SIZE");
}

TEST(Event, DerivedTimesConsistent) {
  xcl::Event e;
  e.modeled_start_s = 1.0;
  e.modeled_end_s = 1.25;
  EXPECT_DOUBLE_EQ(e.modeled_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(e.modeled_ms(), 250.0);
}

TEST(Molecule, GrowsWithAtomCount) {
  const Molecule small = generate_molecule(100, 1);
  const Molecule big = generate_molecule(10000, 1);
  auto radius = [](const Molecule& m) {
    double r = 0.0;
    for (std::size_t i = 0; i < m.atoms(); ++i) {
      r = std::max(r, std::sqrt(static_cast<double>(m.x[i]) * m.x[i] +
                                m.y[i] * m.y[i] + m.z[i] * m.z[i]));
    }
    return r;
  };
  // Constant packing density: radius scales like cbrt(atoms).
  EXPECT_GT(radius(big), 3.0 * radius(small));
  EXPECT_LT(radius(big), 7.0 * radius(small));
}

TEST(Image, OddAndTinyShapes) {
  const GrayImage img = generate_leaf_image(7, 5);
  EXPECT_EQ(img.pixels.size(), 35u);
  const GrayImage up = box_resize(img, 3, 2);
  EXPECT_EQ(up.pixels.size(), 6u);
  EXPECT_THROW((void)box_resize(img, 0, 4), std::invalid_argument);
}

TEST(Image, ResizeIdentityWhenSameSize) {
  const GrayImage img = generate_leaf_image(32, 24);
  const GrayImage same = box_resize(img, 32, 24);
  EXPECT_EQ(same.pixels, img.pixels);
}

// The fused render equals the reference pair at shrinking, odd, identity
// and growing shapes, and refuses an output of the wrong size.
TEST(Image, FusedRenderMatchesResizedLeaf) {
  const GrayImage leaf = generate_leaf_image(97, 61);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {5, 3}, {13, 61}, {97, 7}, {96, 60}, {97, 61}, {150, 100}};
  for (const auto& [w, h] : shapes) {
    const GrayImage want = box_resize(leaf, w, h);
    std::vector<float> got(w * h);
    render_leaf_resized(97, 61, w, h, got);
    std::vector<float> want_f(want.pixels.begin(), want.pixels.end());
    EXPECT_EQ(got, want_f) << w << 'x' << h;
  }
  std::vector<float> short_out(4);
  EXPECT_THROW(render_leaf_resized(97, 61, 5, 1, short_out),
               std::invalid_argument);
}

TEST(QueueTimeline, FinishReturnsLastEventEnd) {
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  EXPECT_DOUBLE_EQ(q.finish(), 0.0);
  xcl::Buffer b = xcl::make_buffer<float>(ctx, 64);
  std::vector<float> host(64, 1.0f);
  q.enqueue_write<float>(b, host);
  const double t1 = q.finish();
  EXPECT_GT(t1, 0.0);
  q.enqueue_write<float>(b, host);
  EXPECT_GT(q.finish(), t1);
}

TEST(QueueEnergy, KernelEnergyEqualsPowerTimesTime) {
  xcl::Context ctx(sim::testbed_device("GTX 1080"));
  xcl::Queue q(ctx);
  q.set_functional(false);
  xcl::Kernel k("probe", [](xcl::WorkItem&) {});
  xcl::WorkloadProfile p;
  p.flops = 1e9;
  p.working_set_bytes = 1e6;
  p.bytes_read = 1e6;
  q.enqueue(k, xcl::NDRange(1 << 20, 64), p);
  const xcl::Event& e = q.events().front();
  const double watts = ctx.device().model().kernel_power_watts(
      {"probe", xcl::NDRange(1 << 20, 64), p});
  EXPECT_NEAR(e.energy_j, watts * e.modeled_seconds(), 1e-12);
}

}  // namespace
}  // namespace eod::dwarfs
