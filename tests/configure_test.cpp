// Property tests for the custom problem-size API (the suite's "flexibility
// of configuration including problem sizes"): every dwarf accepts
// parameters outside the Table 2 presets and still validates against its
// serial reference; invalid parameters are rejected with clear errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dwarfs/crc/crc.hpp"
#include "dwarfs/csr/csr.hpp"
#include "dwarfs/cwt/cwt.hpp"
#include "dwarfs/dwt/dwt.hpp"
#include "dwarfs/fft/fft.hpp"
#include "dwarfs/gem/gem.hpp"
#include "dwarfs/hmm/hmm.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/lud/lud.hpp"
#include "dwarfs/nqueens/nqueens.hpp"
#include "dwarfs/nw/nw.hpp"
#include "dwarfs/srad/srad.hpp"
#include "obs/metrics.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {
namespace {

/// Runs a configured dwarf functionally and expects a passing validation.
void expect_valid(Dwarf& dwarf, const std::string& what) {
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  dwarf.bind(ctx, q);
  dwarf.run();
  dwarf.finish();
  const Validation v = dwarf.validate();
  EXPECT_TRUE(v.ok) << what << ": " << v.detail;
  dwarf.unbind();
}

class FftLengths : public ::testing::TestWithParam<std::size_t> {};
TEST_P(FftLengths, ValidatesAtCustomLength) {
  Fft fft;
  fft.configure(GetParam());
  expect_valid(fft, "fft n=" + std::to_string(GetParam()));
}
INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftLengths,
                         ::testing::Values(2, 4, 64, 256, 1024, 8192),
                         [](const auto& ti) {
                           return "n" + std::to_string(ti.param);
                         });

TEST(FftConfigure, RejectsNonPowerOfTwo) {
  Fft fft;
  EXPECT_THROW(fft.configure(1000), xcl::Error);
  EXPECT_THROW(fft.configure(0), xcl::Error);
  EXPECT_THROW(fft.configure(1), xcl::Error);
}

class LudDims : public ::testing::TestWithParam<std::size_t> {};
TEST_P(LudDims, ValidatesAtCustomDimension) {
  Lud lud;
  lud.configure(GetParam());
  expect_valid(lud, "lud n=" + std::to_string(GetParam()));
}
INSTANTIATE_TEST_SUITE_P(Dims, LudDims, ::testing::Values(16, 32, 96, 320),
                         [](const auto& ti) {
                           return "n" + std::to_string(ti.param);
                         });

TEST(LudConfigure, RejectsNonBlockMultiple) {
  Lud lud;
  EXPECT_THROW(lud.configure(100), xcl::Error);
  EXPECT_THROW(lud.configure(0), xcl::Error);
}

class DwtShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};
TEST_P(DwtShapes, ValidatesAtCustomExtent) {
  Dwt dwt;
  dwt.configure({GetParam().first, GetParam().second}, 3);
  expect_valid(dwt, "dwt");
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, DwtShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{16, 16},
                      std::pair<std::size_t, std::size_t>{33, 17},
                      std::pair<std::size_t, std::size_t>{300, 200},
                      std::pair<std::size_t, std::size_t>{101, 67}),
    [](const auto& ti) {
      return "w" + std::to_string(ti.param.first) + "h" +
             std::to_string(ti.param.second);
    });

TEST(DwtConfigure, RejectsDegenerateInput) {
  Dwt dwt;
  EXPECT_THROW(dwt.configure({1, 64}, 3), xcl::Error);
  EXPECT_THROW(dwt.configure({64, 64}, 0), xcl::Error);
}

TEST(DwtConfigure, ImageMustFillTheExtent) {
  Dwt dwt;
  const std::vector<float> image(4 * 3, 1.5f);
  EXPECT_THROW(dwt.configure_with_image({4, 4}, 1, image), xcl::Error);
  dwt.configure_with_image({4, 3}, 1, image);
  EXPECT_TRUE(std::equal(image.begin(), image.end(), dwt.input().begin(),
                         dwt.input().end()));
  expect_valid(dwt, "dwt from an image");
}

TEST(DwtConfigure, MoreLevelsStillValidate) {
  Dwt dwt;
  dwt.configure({128, 128}, 6);
  expect_valid(dwt, "dwt 6 levels");
}

class CsrDensities : public ::testing::TestWithParam<double> {};
TEST_P(CsrDensities, ValidatesAtCustomDensity) {
  Csr csr;
  csr.configure(600, GetParam());
  expect_valid(csr, "csr density=" + std::to_string(GetParam()));
}
INSTANTIATE_TEST_SUITE_P(Densities, CsrDensities,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2),
                         [](const auto& ti) {
                           return "d" + std::to_string(static_cast<int>(
                                            ti.param * 1000));
                         });

TEST(KmeansConfigure, FeatureAndClusterSweeps) {
  for (const unsigned features : {1u, 4u, 30u}) {
    for (const unsigned clusters : {2u, 8u}) {
      KMeans km;
      KMeans::Params p;
      p.points = 300;
      p.features = features;
      p.clusters = clusters;
      p.rounds = 4;
      km.configure(p);
      expect_valid(km, "kmeans f=" + std::to_string(features) +
                           " c=" + std::to_string(clusters));
    }
  }
}

TEST(NwConfigure, PenaltySweepChangesScores) {
  Nw a;
  a.configure(64, 1);
  expect_valid(a, "nw penalty 1");
  Nw b;
  b.configure(64, 30);
  expect_valid(b, "nw penalty 30");
  EXPECT_THROW(Nw().configure(65, 10), xcl::Error);
  EXPECT_THROW(Nw().configure(64, -1), xcl::Error);
}

TEST(SradConfigure, LambdaAndIterations) {
  Srad srad;
  srad.configure({64, 48, 0.25f, 3});
  expect_valid(srad, "srad lambda=0.25 iters=3");
  EXPECT_THROW(Srad().configure({1, 8, 0.5f, 1}), xcl::Error);
  EXPECT_THROW(Srad().configure({8, 8, 1.5f, 1}), xcl::Error);
}

TEST(CrcConfigure, OddSizesIncludingPartialPages) {
  for (const std::size_t bytes : {1ul, 511ul, 512ul, 513ul, 100000ul}) {
    Crc crc;
    crc.configure(bytes);
    expect_valid(crc, "crc bytes=" + std::to_string(bytes));
  }
  EXPECT_THROW(Crc().configure(0), xcl::Error);
}

TEST(GemConfigure, SmallMoleculeValidates) {
  Gem gem;
  gem.configure(200);
  expect_valid(gem, "gem 200 atoms");
  EXPECT_THROW(Gem().configure(0), xcl::Error);
}

class QueensBoards : public ::testing::TestWithParam<unsigned> {};
TEST_P(QueensBoards, ExpansionValidates) {
  Nqueens nq;
  nq.configure(GetParam(), std::min(3u, GetParam() - 1));
  expect_valid(nq, "nqueens n=" + std::to_string(GetParam()));
}
INSTANTIATE_TEST_SUITE_P(Boards, QueensBoards,
                         ::testing::Values(6, 8, 12, 20),
                         [](const auto& ti) {
                           return "n" + std::to_string(ti.param);
                         });

TEST(QueensConfigure, RejectsBadBoards) {
  EXPECT_THROW(Nqueens().configure(3, 1), xcl::Error);
  EXPECT_THROW(Nqueens().configure(29, 4), xcl::Error);
  EXPECT_THROW(Nqueens().configure(8, 8), xcl::Error);
}

TEST(HmmConfigure, ShapesAndSequenceLengths) {
  for (const unsigned states : {2u, 5u, 16u}) {
    for (const unsigned symbols : {1u, 3u}) {
      Hmm hmm;
      hmm.configure({states, symbols}, 32);
      expect_valid(hmm, "hmm n=" + std::to_string(states) +
                            " s=" + std::to_string(symbols));
    }
  }
  EXPECT_THROW(Hmm().configure({1, 1}, 32), xcl::Error);
  EXPECT_THROW(Hmm().configure({4, 0}, 32), xcl::Error);
  EXPECT_THROW(Hmm().configure({4, 2}, 1), xcl::Error);
}

// A configure() whose array size is a product of two arguments checks the
// product before it sizes anything, so 2^32 per side (2^64 elements) throws
// std::invalid_argument naming the arguments instead of wrapping to a
// small allocation.
TEST(ConfigureShape, OverflowingProductsThrowNamingTheArguments) {
  constexpr std::size_t kHuge = std::size_t{1} << 32;
  const auto expect_named = [](const auto& configure, const std::string& what) {
    try {
      configure();
      ADD_FAILURE() << what << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_named([&] { Lud().configure(kHuge); }, "lud: n x n");
  expect_named([&] { Nw().configure(kHuge, 10); }, "nw: (n+1) x (n+1)");
  expect_named([&] { Srad().configure({kHuge, kHuge, 0.5f, 1}); },
               "srad: rows x cols");
  expect_named([&] { Dwt().configure({kHuge, kHuge}, 1); }, "dwt: w x h");
  expect_named([&] { Cwt().configure(std::size_t{1} << 62, 16); },
               "cwt: n x scales");
  expect_named([&] { KMeans().configure({std::size_t{1} << 62, 26, 5, 1}); },
               "kmeans: points x features");
}

// Entry points that install caller data never run the deferred generator:
// not at configure, not at a functional bind, not at validate.  Each dwarf
// is first configured with generated input, which the caller data replaces.
TEST(DeferredInput, CallerDataNeverRunsTheGenerator) {
  const obs::Counter& fills = obs::counter("dwarfs.input_fills");
  const std::uint64_t before = fills.value();

  Dwt dwt;
  dwt.setup(ProblemSize::kTiny);
  std::vector<float> image(24 * 16);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i % 7) * 0.25f;
  }
  dwt.configure_with_image({24, 16}, 2, image);
  expect_valid(dwt, "dwt from an image");
  EXPECT_TRUE(std::equal(image.begin(), image.end(), dwt.input().begin(),
                         dwt.input().end()));

  Fft fft;
  fft.configure(64);
  std::vector<float> signal(2 * 64);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<float>(i % 5) - 2.0f;
  }
  fft.set_input(signal);
  expect_valid(fft, "fft from caller data");

  Gem gem;
  gem.configure(200);
  gem.configure_with_molecule(generate_molecule(96, 7));
  expect_valid(gem, "gem from a molecule");
  EXPECT_EQ(gem.molecule().atoms(), 96u);

  EXPECT_EQ(fills.value(), before);
}

}  // namespace
}  // namespace eod::dwarfs
