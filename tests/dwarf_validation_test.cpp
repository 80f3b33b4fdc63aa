// Cross-benchmark invariants: every dwarf registers, reports a footprint
// that matches the device allocator's accounting (the paper's "verified by
// printing the sum of the size of all memory allocated on the device"),
// fits its §4.4 size class, and produces results matching its serial
// reference through the full xcl pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/registry.hpp"
#include "harness/problem_size.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {
namespace {

using harness::SizeClassBounds;

xcl::Device& host_device() { return sim::testbed_device("i7-6700K"); }

class AllDwarfs : public ::testing::TestWithParam<std::string> {};

TEST_P(AllDwarfs, RegistryMetadata) {
  auto d = create_dwarf(GetParam());
  EXPECT_EQ(d->name(), GetParam());
  EXPECT_FALSE(d->berkeley_dwarf().empty());
  EXPECT_FALSE(d->supported_sizes().empty());
  for (const ProblemSize s : d->supported_sizes()) {
    EXPECT_FALSE(d->scale_parameter(s).empty());
    EXPECT_GT(d->footprint_bytes(s), 0u);
  }
}

TEST_P(AllDwarfs, FootprintMatchesDeviceAllocator) {
  auto d = create_dwarf(GetParam());
  const ProblemSize size = d->supported_sizes().front();
  d->setup(size);
  xcl::Context ctx(host_device());
  xcl::Queue q(ctx);
  d->bind(ctx, q);
  // The paper's check: the footprint equation equals the sum of all device
  // allocations.  nqueens/hmm include small control buffers, so allow a
  // 5% slack; the 8 hierarchy benchmarks must match within 1 KiB.
  const double got = static_cast<double>(ctx.allocated_bytes());
  const double want = static_cast<double>(d->footprint_bytes(size));
  EXPECT_NEAR(got, want, std::max(1024.0, want * 0.05))
      << GetParam() << " allocator=" << got << " equation=" << want;
  d->unbind();
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
}

TEST_P(AllDwarfs, ValidatesAgainstSerialReferenceAtSmallestSize) {
  auto d = create_dwarf(GetParam());
  const ProblemSize size = d->supported_sizes().front();
  d->setup(size);
  xcl::Context ctx(host_device());
  xcl::Queue q(ctx);
  d->bind(ctx, q);
  d->run();
  d->finish();
  const Validation v = d->validate();
  EXPECT_TRUE(v.ok) << GetParam() << ": " << v.detail;
  d->unbind();
}

TEST_P(AllDwarfs, RunIsRepeatableAfterRebind) {
  // bind/run/finish on one device, then again on another device: results
  // must stay valid (the suite's portability claim in miniature).
  auto d = create_dwarf(GetParam());
  d->setup(d->supported_sizes().front());
  for (const char* dev : {"i7-6700K", "GTX 1080"}) {
    xcl::Context ctx(sim::testbed_device(dev));
    xcl::Queue q(ctx);
    d->bind(ctx, q);
    d->run();
    d->finish();
    const Validation v = d->validate();
    EXPECT_TRUE(v.ok) << GetParam() << " on " << dev << ": " << v.detail;
    d->unbind();
  }
}

TEST_P(AllDwarfs, FailsValidationWithoutRun) {
  // finish() reads back whatever bind() left in the output buffers; a
  // reference that silently writes nothing (or compares nothing) would
  // still pass here.
  auto d = create_dwarf(GetParam());
  d->setup(d->supported_sizes().front());
  xcl::Context ctx(host_device());
  xcl::Queue q(ctx);
  d->bind(ctx, q);
  d->finish();
  const Validation v = d->validate();
  EXPECT_FALSE(v.ok) << GetParam() << ": " << v.detail;
  d->unbind();
}

// Exact validate() error (as a %a hex-float) and result_signature() per
// dwarf at tiny and small.  The serial references run on the shared pool
// with every output element keeping its own arithmetic and summation order,
// so these bits are the ones the plain serial loops produced; a reordered
// sum, a skipped element or a changed generated input moves them.
struct ReferencePin {
  const char* dwarf;
  ProblemSize size;
  const char* error;
  std::uint64_t signature;
};

constexpr ReferencePin kReferencePins[] = {
    {"kmeans", ProblemSize::kTiny, "0x0p+0", 0xed78cc8f33124fc4ull},
    {"kmeans", ProblemSize::kSmall, "0x0p+0", 0x2d4fe965f7ee0577ull},
    {"lud", ProblemSize::kTiny, "0x1.74422c61cdddbp-24", 0xef7ad8f3c60245e9ull},
    {"lud", ProblemSize::kSmall, "0x1.3e9cc4b8746f3p-24",
      0xa254290adfc4bdd3ull},
    {"csr", ProblemSize::kTiny, "0x1.9d13555a6dda6p-25", 0x695d13b627107fc4ull},
    {"csr", ProblemSize::kSmall, "0x1.44d75735d0196p-24",
      0x6aa72a271dff8d36ull},
    {"fft", ProblemSize::kTiny, "0x1.1488170fdbc62p-22", 0x0ull},
    {"fft", ProblemSize::kSmall, "0x1.5ecb7239cd83fp-22", 0x0ull},
    {"dwt", ProblemSize::kTiny, "0x0p+0", 0x38bdd0d8c0168f6bull},
    {"dwt", ProblemSize::kSmall, "0x0p+0", 0x5d3f5ae2a7e4948aull},
    {"srad", ProblemSize::kTiny, "0x0p+0", 0xeb4f3fe0bee8c919ull},
    {"srad", ProblemSize::kSmall, "0x0p+0", 0x1f8936c34ce585d9ull},
    {"crc", ProblemSize::kTiny, "0x0p+0", 0xf0b1f20bebf898eull},
    {"crc", ProblemSize::kSmall, "0x0p+0", 0x80eab3b2758b92dbull},
    {"nw", ProblemSize::kTiny, "0x0p+0", 0x11749ee9f534398dull},
    {"nw", ProblemSize::kSmall, "0x0p+0", 0x184b54d261973be3ull},
    {"gem", ProblemSize::kTiny, "0x1.4b53ff968b65ap-21", 0x9cd8b001bd9eb1fcull},
    {"gem", ProblemSize::kSmall, "0x1.d119c9587f3ap-20", 0xd34d8ec427e02380ull},
    {"nqueens", ProblemSize::kTiny, "0x0p+0", 0x0ull},
    {"hmm", ProblemSize::kTiny, "0x1.2627b35f35528p-21", 0x0ull},
    {"cwt", ProblemSize::kTiny, "0x1.d800ebaa43527p-23", 0x35cc39bef42a0f1ull},
    {"cwt", ProblemSize::kSmall, "0x1.1ae06c329f185p-22",
      0x1286f25bc922a97full},
};

TEST_P(AllDwarfs, ValidationErrorAndSignatureMatchPins) {
  for (const ProblemSize size : {ProblemSize::kTiny, ProblemSize::kSmall}) {
    auto d = create_dwarf(GetParam());
    const auto sizes = d->supported_sizes();
    if (std::find(sizes.begin(), sizes.end(), size) == sizes.end()) continue;
    d->setup(size);
    xcl::Context ctx(host_device());
    xcl::Queue q(ctx);
    d->bind(ctx, q);
    d->run();
    d->finish();
    const Validation v = d->validate();
    char error[64];
    std::snprintf(error, sizeof(error), "%a", v.error);
    const std::uint64_t signature = d->result_signature();
    d->unbind();
    const auto pin = std::find_if(
        std::begin(kReferencePins), std::end(kReferencePins),
        [&](const ReferencePin& p) {
          return p.dwarf == GetParam() && p.size == size;
        });
    if (pin == std::end(kReferencePins)) {
      ADD_FAILURE() << "no pin for {\"" << GetParam() << "\", ProblemSize::k"
                    << (size == ProblemSize::kTiny ? "Tiny" : "Small")
                    << ", \"" << error << "\", 0x" << std::hex << signature
                    << "ull},";
      continue;
    }
    EXPECT_STREQ(error, pin->error) << GetParam() << ' ' << to_string(size);
    EXPECT_EQ(signature, pin->signature)
        << GetParam() << ' ' << to_string(size);
  }
}

// The Table 2 dwarfs plus cwt, the extension whose serial reference is as
// heavy as gem's.
std::vector<std::string> validated_dwarfs() {
  std::vector<std::string> names = benchmark_names();
  names.emplace_back("cwt");
  return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, AllDwarfs,
                         ::testing::ValuesIn(validated_dwarfs()),
                         [](const auto& ti) { return ti.param; });

// ---- §4.4 size-class bounds on the Skylake hierarchy ----
//
// The eight benchmarks with scalable datasets must land in the intended
// level; gem/nqueens/hmm are the paper's documented exceptions ("we were
// unable to generate different problem sizes to properly exercise the
// memory hierarchy").  Two published values deviate deliberately and are
// checked as such: crc's large input (4 MiB) still fits the Skylake L3,
// and neither kmeans nor csr reaches the aspirational 4x-L3 mark.
class SizeClasses : public ::testing::TestWithParam<std::string> {};

TEST_P(SizeClasses, FitsIntendedCacheLevel) {
  const SizeClassBounds bounds =
      SizeClassBounds::from_device(sim::skylake());
  auto d = create_dwarf(GetParam());
  EXPECT_LE(d->footprint_bytes(ProblemSize::kTiny), bounds.l1_bytes)
      << "tiny must fit L1";
  EXPECT_LE(d->footprint_bytes(ProblemSize::kSmall), bounds.l2_bytes)
      << "small must fit L2";
  EXPECT_LE(d->footprint_bytes(ProblemSize::kMedium), bounds.l3_bytes)
      << "medium must fit L3";
  if (GetParam() == "crc") {
    EXPECT_GT(d->footprint_bytes(ProblemSize::kLarge), bounds.l2_bytes);
  } else {
    EXPECT_GT(d->footprint_bytes(ProblemSize::kLarge), bounds.l3_bytes)
        << "large must spill out of the last-level cache";
  }
}

INSTANTIATE_TEST_SUITE_P(HierarchyBenchmarks, SizeClasses,
                         ::testing::Values("kmeans", "lud", "csr", "fft",
                                           "dwt", "srad", "crc", "nw"),
                         [](const auto& ti) { return ti.param; });

TEST(SizeMethodology, SolverReproducesFftTable2Row) {
  // fft footprint = 2 * N * 8 bytes with N a power of two; the solver must
  // land exactly on the paper's 2048 / 16384 / 524288 parameters (largest
  // power of two fitting each level).
  const SizeClassBounds bounds =
      SizeClassBounds::from_device(sim::skylake());
  const auto footprint = [](std::size_t log2n) {
    return (std::size_t{1} << log2n) * 2 * 8;
  };
  EXPECT_EQ(std::size_t{1} << harness::solve_scale_parameter(
                bounds, ProblemSize::kTiny, footprint, 1, 30),
            2048u);
  EXPECT_EQ(std::size_t{1} << harness::solve_scale_parameter(
                bounds, ProblemSize::kSmall, footprint, 1, 30),
            16384u);
  EXPECT_EQ(std::size_t{1} << harness::solve_scale_parameter(
                bounds, ProblemSize::kMedium, footprint, 1, 30),
            524288u);
}

TEST(SizeMethodology, SolverFindsLargeThreshold) {
  const SizeClassBounds bounds =
      SizeClassBounds::from_device(sim::skylake());
  const auto footprint = [](std::size_t n) { return n * 4; };
  const std::size_t n =
      harness::solve_scale_parameter(bounds, ProblemSize::kLarge, footprint);
  // 4 x 8 MiB / 4 B = 8 Mi elements.
  EXPECT_EQ(n, 4 * bounds.l3_bytes / 4);
  EXPECT_TRUE(harness::footprint_fits_class(bounds, ProblemSize::kLarge,
                                            footprint(n)));
  EXPECT_FALSE(harness::footprint_fits_class(bounds, ProblemSize::kLarge,
                                             footprint(n - 1)));
}

TEST(SizeMethodology, KmeansEquationMatchesPaperExample) {
  // §4.4.1 computes ~31.5 KiB for 256 points x 30 features via Equation 1;
  // with the Table 3 value of 26 features the tiny class stays under L1.
  EXPECT_NEAR(
      static_cast<double>(KMeans::working_set_bytes(256, 30, 5)) / 1024.0,
      31.5, 0.3);
  EXPECT_LE(KMeans::working_set_bytes(256, 26, 5), 32u * 1024u);
}

TEST(SizeMethodology, Table2HasAllBenchmarks) {
  const auto rows = harness::table2();
  EXPECT_EQ(rows.size(), benchmark_names().size());
  for (const auto& row : rows) {
    EXPECT_EQ(row.scale.size(), row.sizes.size());
    EXPECT_EQ(row.footprint.size(), row.sizes.size());
  }
}

}  // namespace
}  // namespace eod::dwarfs
