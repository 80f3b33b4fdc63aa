// Exact validate() error (as a %a hex-float) and result_signature() per
// dwarf at medium, the size whose references split into many pool chunks
// and SIMD lanes.  The pins were recorded from the plain serial reference
// loops; a parallel or lane-wise reference must reproduce every output
// element's operation order, so a reordered sum, a skipped element or a
// lane that widens differently moves them.  gem is left out: its medium
// reference is an all-pairs sweep of minutes.  Not in the `sanitize` label,
// which would multiply these runs by the sanitizer's slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "dwarfs/fft/fft.hpp"
#include "dwarfs/registry.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {
namespace {

struct MediumPin {
  const char* dwarf;
  const char* error;
  std::uint64_t signature;
};

constexpr MediumPin kMediumPins[] = {
    {"lud", "0x1.72ec59b1ca668p-23", 0xff0aca4a26d36289ull},
    {"nw", "0x0p+0", 0x3284aa85c9a0334full},
    {"fft", "0x1.d7c6dc37ae93cp-22", 0x0ull},
    {"srad", "0x0p+0", 0x2481edeb785e5b20ull},
    {"kmeans", "0x0p+0", 0x8e567e27ac52cd81ull},
    {"crc", "0x0p+0", 0x8e894e9a1002bc9eull},
    {"dwt", "0x0p+0", 0x1e6b8a5f2e4ddccdull},
    {"cwt", "0x1.1eefab18af6cep-22", 0xce05ef9879b2925eull},
};

class MediumReferencePins : public ::testing::TestWithParam<std::string> {};

TEST_P(MediumReferencePins, ValidationErrorAndSignatureMatchPins) {
  const auto pin = std::find_if(
      std::begin(kMediumPins), std::end(kMediumPins),
      [&](const MediumPin& p) { return p.dwarf == GetParam(); });
  ASSERT_NE(pin, std::end(kMediumPins));
  auto d = create_dwarf(GetParam());
  d->setup(ProblemSize::kMedium);
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  d->bind(ctx, q);
  d->run();
  d->finish();
  const Validation v = d->validate();
  char error[64];
  std::snprintf(error, sizeof(error), "%a", v.error);
  const std::uint64_t signature = d->result_signature();
  d->unbind();
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_STREQ(error, pin->error);
  EXPECT_EQ(signature, pin->signature) << "0x" << std::hex << signature;
}

INSTANTIATE_TEST_SUITE_P(Medium, MediumReferencePins,
                         ::testing::Values("lud", "nw", "fft", "srad",
                                           "kmeans", "crc", "dwt", "cwt"),
                         [](const auto& ti) { return ti.param; });

// Fft::reference_fft's output bits on fft's generated input, pinned from
// the x86-64 baseline build.  fft's validation error alone cannot see a
// change in them: the reference is rounded to float before it is compared.
// An FMA build must land the same bits, so the butterflies' complex
// multiply may not be fused there.
TEST(FftReferencePins, OutputBitsMatchPins) {
  constexpr struct {
    std::size_t n;
    std::uint64_t hash;
  } kPins[] = {
      {2048, 0x70ed81f56d8398d6ull},
      {16384, 0xd990f8aaaaa58250ull},
      {524288, 0x3a46ac6bca088adcull},
  };
  for (const auto& pin : kPins) {
    SplitMix64 rng(0x666674ull);  // Fft::configure's input stream
    std::vector<std::complex<double>> a(pin.n);
    for (auto& v : a) {
      const float re = rng.uniform(-1.0f, 1.0f);
      v = {re, rng.uniform(-1.0f, 1.0f)};
    }
    Fft::reference_fft(a);
    const std::uint64_t hash = hash_result<std::complex<double>>(a);
    EXPECT_EQ(hash, pin.hash) << "n=" << pin.n << " 0x" << std::hex << hash;
  }
}

}  // namespace
}  // namespace eod::dwarfs
