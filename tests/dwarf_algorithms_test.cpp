// Per-benchmark algorithmic properties beyond the generic validation pass:
// known-answer vectors, mathematical invariants (Parseval, perfect
// reconstruction), generator contracts, and Table 2/3 parameter values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <utility>
#include <vector>

#include "dwarfs/crc/crc.hpp"
#include "dwarfs/csr/csr.hpp"
#include "dwarfs/dwt/dwt.hpp"
#include "dwarfs/dwt/image.hpp"
#include "dwarfs/fft/fft.hpp"
#include "dwarfs/gem/gem.hpp"
#include "dwarfs/hmm/hmm.hpp"
#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/lud/lud.hpp"
#include "dwarfs/nqueens/nqueens.hpp"
#include "dwarfs/nw/nw.hpp"
#include "dwarfs/srad/srad.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {
namespace {

// ---------------------------- Table 2 values ----------------------------

TEST(Table2, ScaleParametersMatchThePaper) {
  EXPECT_EQ(KMeans().scale_parameter(ProblemSize::kMedium), "65600");
  EXPECT_EQ(Lud::dim_for(ProblemSize::kLarge), 4096u);
  EXPECT_EQ(Csr::dim_for(ProblemSize::kTiny), 736u);
  EXPECT_EQ(Fft::length_for(ProblemSize::kMedium), 524288u);
  EXPECT_EQ(Dwt().scale_parameter(ProblemSize::kLarge), "3648x2736");
  EXPECT_EQ(Srad().scale_parameter(ProblemSize::kSmall), "128,80");
  EXPECT_EQ(Crc::buffer_bytes_for(ProblemSize::kLarge), 4194304u);
  EXPECT_EQ(Nw::length_for(ProblemSize::kMedium), 1008u);
  EXPECT_EQ(Gem().scale_parameter(ProblemSize::kLarge), "1KX5");
  EXPECT_EQ(Nqueens().scale_parameter(ProblemSize::kTiny), "18");
  EXPECT_EQ(Hmm().scale_parameter(ProblemSize::kTiny), "8,1");
  EXPECT_EQ(Hmm().scale_parameter(ProblemSize::kLarge), "2048,2048");
}

TEST(Gem, FootprintsMatchReportedDeviceMemory) {
  // §4.4.4 reports 31.3 KiB / 252 KiB / 7498 KiB / 10970.2 KiB.
  Gem g;
  EXPECT_NEAR(g.footprint_bytes(ProblemSize::kTiny) / 1024.0, 31.3, 0.5);
  EXPECT_NEAR(g.footprint_bytes(ProblemSize::kSmall) / 1024.0, 252.0, 1.0);
  EXPECT_NEAR(g.footprint_bytes(ProblemSize::kMedium) / 1024.0, 7498.0,
              10.0);
  EXPECT_NEAR(g.footprint_bytes(ProblemSize::kLarge) / 1024.0, 10970.2,
              10.0);
}

// ------------------------------- crc -----------------------------------

TEST(Crc, KnownAnswerVectors) {
  // CRC-32 (reflected 0xEDB88320) of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8',
                                 '9'};
  EXPECT_EQ(Crc::crc32_reference(digits), 0xCBF43926u);
  // CRC of the empty string is 0.
  EXPECT_EQ(Crc::crc32_reference({}), 0x00000000u);
}

TEST(Crc, SensitiveToSingleBitFlips) {
  std::vector<std::uint8_t> data(100, 0xAB);
  const std::uint32_t base = Crc::crc32_reference(data);
  data[50] ^= 0x01;
  EXPECT_NE(Crc::crc32_reference(data), base);
}

// ------------------------------- csr -----------------------------------

TEST(CreateCsr, HonoursDensityAndStructure) {
  const CsrMatrix m = create_csr(1000, 0.005, 42);
  EXPECT_EQ(m.n, 1000u);
  EXPECT_EQ(m.row_ptr.size(), 1001u);
  EXPECT_EQ(m.row_ptr.front(), 0u);
  EXPECT_EQ(m.row_ptr.back(), m.nnz());
  // floor(0.005 * 1000) = 5 entries per row.
  EXPECT_EQ(m.nnz(), 5000u);
  for (std::size_t r = 0; r < m.n; ++r) {
    for (std::uint32_t k = m.row_ptr[r]; k < m.row_ptr[r + 1]; ++k) {
      EXPECT_LT(m.cols[k], m.n);
      if (k + 1 < m.row_ptr[r + 1]) {
        EXPECT_LT(m.cols[k], m.cols[k + 1]);  // sorted, no duplicates
      }
    }
  }
}

// The construction create_csr must reproduce, written the plain way: one
// serial SplitMix64 stream; per row, distinct columns by rejection, a
// std::sort, then one value per column in sorted order.
CsrMatrix sorted_csr(std::size_t n, double density, std::uint64_t seed) {
  const auto per_row = std::max<std::size_t>(
      1, static_cast<std::size_t>(density * static_cast<double>(n)));
  CsrMatrix m;
  m.n = n;
  m.row_ptr.push_back(0);
  SplitMix64 rng(seed);
  std::vector<bool> taken(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::uint32_t> row;
    std::fill(taken.begin(), taken.end(), false);
    while (row.size() < per_row) {
      const auto c = static_cast<std::uint32_t>(rng.below(n));
      if (!taken[c]) {
        taken[c] = true;
        row.push_back(c);
      }
    }
    std::sort(row.begin(), row.end());
    for (const std::uint32_t c : row) {
      m.cols.push_back(c);
      m.vals.push_back(rng.uniform(-1.0f, 1.0f));
    }
    m.row_ptr.push_back(static_cast<std::uint32_t>(m.cols.size()));
  }
  return m;
}

// Dimensions on both sides of a 64-column bitmap word, and the Table 2 tiny
// and small dimensions, from one column per row to every column.
TEST(CreateCsr, MatchesTheSortedConstruction) {
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 736u, 2416u}) {
    for (const double density : {0.0, 0.005, 0.5, 1.0}) {
      const CsrMatrix got = create_csr(n, density, 0x637372ull);
      const CsrMatrix want = sorted_csr(n, density, 0x637372ull);
      EXPECT_EQ(got.row_ptr, want.row_ptr) << n << ' ' << density;
      EXPECT_EQ(got.cols, want.cols) << n << ' ' << density;
      EXPECT_EQ(got.vals, want.vals) << n << ' ' << density;
      if (density == 1.0) {
        // per_row == n: every row holds every column, in order.
        bool full = got.nnz() == n * n;
        for (std::size_t k = 0; full && k < got.nnz(); ++k) {
          full = got.cols[k] == k % n;
        }
        EXPECT_TRUE(full) << n;
      }
    }
  }
}

TEST(CreateCsr, Deterministic) {
  const CsrMatrix a = create_csr(500, 0.01, 7);
  const CsrMatrix b = create_csr(500, 0.01, 7);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.vals, b.vals);
  const CsrMatrix c = create_csr(500, 0.01, 8);
  EXPECT_NE(a.cols, c.cols);
}

// ------------------------------- fft -----------------------------------

TEST(FftReference, MatchesNaiveDftOnSmallInput) {
  constexpr std::size_t kN = 16;
  std::vector<std::complex<double>> x(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = {std::cos(0.3 * i), std::sin(0.1 * i * i)};
  }
  std::vector<std::complex<double>> want(kN);
  for (std::size_t k = 0; k < kN; ++k) {
    std::complex<double> acc = 0.0;
    for (std::size_t t = 0; t < kN; ++t) {
      const double ang = -2.0 * M_PI * static_cast<double>(k * t) / kN;
      acc += x[t] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    want[k] = acc;
  }
  std::vector<std::complex<double>> got = x;
  Fft::reference_fft(got);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(std::abs(got[k] - want[k]), 0.0, 1e-9) << "bin " << k;
  }
}

TEST(FftReference, ParsevalHolds) {
  constexpr std::size_t kN = 1024;
  SplitMix64 rng(5);
  std::vector<std::complex<double>> x(kN);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
    time_energy += std::norm(v);
  }
  std::vector<std::complex<double>> f = x;
  Fft::reference_fft(f);
  double freq_energy = 0.0;
  for (const auto& v : f) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / kN, time_energy, 1e-6 * time_energy);
}

TEST(FftReference, DeltaTransformsToConstant) {
  std::vector<std::complex<double>> x(64, 0.0);
  x[0] = 1.0;
  Fft::reference_fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

// ------------------------------- dwt -----------------------------------

class DwtReconstruction
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(DwtReconstruction, ForwardThenInverseIsIdentity) {
  const auto [w, h] = GetParam();
  SplitMix64 rng(11);
  std::vector<double> img(w * h);
  for (auto& v : img) v = rng.uniform(0.0f, 255.0f);
  std::vector<double> data = img;
  Dwt::reference_dwt53(data, w, h, 3);
  Dwt::reference_idwt53(data, w, h, 3);
  double max_err = 0.0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    max_err = std::max(max_err, std::abs(data[i] - img[i]));
  }
  EXPECT_LT(max_err, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DwtReconstruction,
    ::testing::Values(std::pair<std::size_t, std::size_t>{72, 54},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{37, 53},
                      std::pair<std::size_t, std::size_t>{200, 150},
                      std::pair<std::size_t, std::size_t>{17, 9}),
    [](const auto& ti) {
      return "w" + std::to_string(ti.param.first) + "h" +
             std::to_string(ti.param.second);
    });

TEST(DwtTransform, SmoothImageEnergyConcentratesInLL) {
  // A constant image must transform to (almost) pure LL energy.
  constexpr std::size_t kW = 64, kH = 64;
  std::vector<double> img(kW * kH, 100.0);
  Dwt::reference_dwt53(img, kW, kH, 1);
  double detail = 0.0;
  for (std::size_t y = 0; y < kH; ++y) {
    for (std::size_t x = 0; x < kW; ++x) {
      if (x >= kW / 2 || y >= kH / 2) detail += std::abs(img[y * kW + x]);
    }
  }
  EXPECT_NEAR(detail, 0.0, 1e-9);
}

TEST(Image, LeafGeneratorDeterministicAndStructured) {
  const GrayImage a = generate_leaf_image(128, 96);
  const GrayImage b = generate_leaf_image(128, 96);
  EXPECT_EQ(a.pixels, b.pixels);
  // Structured content: both dark (leaf) and bright (background) pixels.
  int dark = 0, bright = 0;
  for (const auto p : a.pixels) {
    if (p < 100) ++dark;
    if (p > 150) ++bright;
  }
  EXPECT_GT(dark, 500);
  EXPECT_GT(bright, 500);
}

// The leaf's pixel formula as it stood before its row and column terms
// were hoisted, copied verbatim (with the column terms computed in place):
// generate_leaf_image must reproduce it bit for bit.
std::uint8_t leaf_pixel_reference(std::size_t x, std::size_t y,
                                  std::size_t width, std::size_t height) {
  const double w = static_cast<double>(width);
  const double h_ = static_cast<double>(height);
  const double u = 2.0 * (static_cast<double>(x) + 0.5) / w - 1.0;
  const double blade = 0.62 * std::sqrt(std::max(0.0, 1.0 - u * u)) *
                       (1.0 + 0.12 * std::sin(9.0 * M_PI * u));
  const double vein_phase = std::sin(14.0 * (u + 1.0) * M_PI) * 0.5;
  const double v = 2.0 * (static_cast<double>(y) + 0.5) / h_ - 1.0;
  // Background: soft diagonal gradient.
  double val = 190.0 + 30.0 * (u + v) * 0.5;
  if (std::abs(v) < blade) {
    val = 95.0 + 40.0 * std::abs(v) / (blade + 1e-9);
    // Midrib.
    if (std::abs(v) < 0.02) val = 60.0;
    // Lateral veins at regular angles off the midrib.
    const double vein = std::abs(vein_phase * (1.0 - std::abs(v)));
    if (vein > 0.46 && std::abs(v) > 0.02) val -= 25.0;
  }
  // Deterministic fine texture (hash noise).
  const std::uint64_t n =
      (x * 0x9e3779b97f4a7c15ull) ^ (y * 0xbf58476d1ce4e5b9ull);
  val += static_cast<double>((n >> 33) & 0xF) - 7.5;
  return static_cast<std::uint8_t>(std::clamp(val, 0.0, 255.0));
}

// An odd raster, the smallest one, and full-width rows of the photo size.
TEST(Image, LeafMatchesThePerPixelFormula) {
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{97, 61},
                            {2, 2},
                            {3648, 8}}) {
    const GrayImage img = generate_leaf_image(w, h);
    std::size_t mismatches = 0;
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        mismatches += img.at(x, y) != leaf_pixel_reference(x, y, w, h);
      }
    }
    EXPECT_EQ(mismatches, 0u) << w << 'x' << h;
  }
}

TEST(Image, BoxResizePreservesMeanApproximately) {
  const GrayImage src = generate_leaf_image(256, 192);
  const GrayImage dst = box_resize(src, 64, 48);
  auto mean = [](const GrayImage& im) {
    double s = 0.0;
    for (const auto p : im.pixels) s += p;
    return s / static_cast<double>(im.pixels.size());
  };
  EXPECT_NEAR(mean(src), mean(dst), 3.0);
  EXPECT_EQ(dst.width, 64u);
  EXPECT_EQ(dst.height, 48u);
}

TEST(Image, PgmAndPpmRoundTrip) {
  const GrayImage img = generate_leaf_image(40, 30);
  const std::string pgm = ::testing::TempDir() + "/eod_test.pgm";
  const std::string ppm = ::testing::TempDir() + "/eod_test.ppm";
  save_pgm(img, pgm);
  const GrayImage back = load_pgm(pgm);
  EXPECT_EQ(back.width, img.width);
  EXPECT_EQ(back.pixels, img.pixels);

  save_ppm_rgb_from_gray(img, ppm);
  const GrayImage gray = load_ppm_as_gray(ppm);
  EXPECT_EQ(gray.width, img.width);
  EXPECT_EQ(gray.height, img.height);
  std::remove(pgm.c_str());
  std::remove(ppm.c_str());
}

TEST(Image, TiledCoefficientsInRange) {
  std::vector<float> coeffs(32 * 16);
  SplitMix64 rng(3);
  for (auto& c : coeffs) c = rng.uniform(-1000.0f, 1000.0f);
  const GrayImage img = tile_coefficients(coeffs, 32, 16);
  EXPECT_EQ(img.pixels.size(), coeffs.size());
  EXPECT_THROW((void)tile_coefficients(coeffs, 10, 10),
               std::invalid_argument);
}

// ----------------------------- nqueens ---------------------------------

class QueensCounts
    : public ::testing::TestWithParam<std::pair<unsigned, std::uint64_t>> {};

TEST_P(QueensCounts, MatchesKnownSolutionCounts) {
  const auto [n, want] = GetParam();
  EXPECT_EQ(count_queens_host(n), want);
}

INSTANTIATE_TEST_SUITE_P(
    Boards, QueensCounts,
    ::testing::Values(std::pair<unsigned, std::uint64_t>{4, 2},
                      std::pair<unsigned, std::uint64_t>{5, 10},
                      std::pair<unsigned, std::uint64_t>{6, 4},
                      std::pair<unsigned, std::uint64_t>{7, 40},
                      std::pair<unsigned, std::uint64_t>{8, 92},
                      std::pair<unsigned, std::uint64_t>{9, 352},
                      std::pair<unsigned, std::uint64_t>{10, 724},
                      std::pair<unsigned, std::uint64_t>{11, 2680},
                      std::pair<unsigned, std::uint64_t>{12, 14200}),
    [](const auto& ti) { return "n" + std::to_string(ti.param.first); });

HostVector<QueenNode> rebuilt_frontier(unsigned board, unsigned depth) {
  HostVector<QueenNode> frontier{{0, 0, 0}};
  for (unsigned d = 0; d < depth; ++d) {
    HostVector<QueenNode> next;
    expand_frontier_host(board, frontier, &next);
    frontier.swap(next);
  }
  return frontier;
}

TEST(Queens, FrontierExpansionConservesSearchSpace) {
  // Expanding the root frontier level by level must agree with DFS counts
  // when the depth reaches n.
  constexpr unsigned kN = 6;
  EXPECT_EQ(rebuilt_frontier(kN, kN).size(), count_queens_host(kN));
}

// footprint_bytes answers from the frontier configure() built (before any
// configure(), from the preset's): it must equal what a fresh rebuild
// sizes, also after the same dwarf is reconfigured.
TEST(Queens, FootprintMatchesARebuiltFrontier) {
  const auto rebuilt_bytes = [](unsigned board, unsigned depth) {
    return rebuilt_frontier(board, depth).size() *
           ((board + 1) * sizeof(QueenNode) + sizeof(std::uint32_t));
  };
  Nqueens nq;
  EXPECT_EQ(nq.footprint_bytes(ProblemSize::kTiny),
            rebuilt_bytes(Nqueens::kBoard, Nqueens::kDepth));
  for (const auto& [board, depth] : {std::pair<unsigned, unsigned>{4, 1},
                                    {8, 3},
                                    {12, 6},
                                    {18, 4}}) {
    nq.configure(board, depth);
    EXPECT_EQ(nq.footprint_bytes(ProblemSize::kTiny),
              rebuilt_bytes(board, depth))
        << board << ' ' << depth;
  }
}

// ------------------------------- hmm -----------------------------------

TEST(HmmModel, GeneratorRowsAreStochastic) {
  const HmmModel m = generate_hmm(16, 4, 77);
  for (unsigned i = 0; i < 16; ++i) {
    double row = 0.0;
    for (unsigned j = 0; j < 16; ++j) row += m.a[i * 16 + j];
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
  double pi_sum = 0.0;
  for (unsigned i = 0; i < 16; ++i) pi_sum += m.pi[i];
  EXPECT_NEAR(pi_sum, 1.0, 1e-5);
}

TEST(HmmReference, UpdateKeepsRowsStochastic) {
  const HmmModel m = generate_hmm(8, 3, 123);
  std::vector<std::int32_t> obs(64);
  SplitMix64 rng(9);
  for (auto& o : obs) o = static_cast<std::int32_t>(rng.below(3));
  const HmmModel next = baum_welch_reference(m, obs);
  for (unsigned i = 0; i < 8; ++i) {
    double row_a = 0.0;
    for (unsigned j = 0; j < 8; ++j) row_a += next.a[i * 8 + j];
    EXPECT_NEAR(row_a, 1.0, 1e-4) << "A row " << i;
    double row_b = 0.0;
    for (unsigned s = 0; s < 3; ++s) row_b += next.b[i * 3 + s];
    EXPECT_NEAR(row_b, 1.0, 1e-4) << "B row " << i;
  }
}

TEST(HmmReference, LikelihoodImprovesAcrossIterations) {
  // The EM property: each Baum-Welch iteration must not decrease the
  // observation likelihood.
  HmmModel m = generate_hmm(6, 4, 55);
  std::vector<std::int32_t> obs(48);
  SplitMix64 rng(10);
  for (auto& o : obs) o = static_cast<std::int32_t>(rng.below(4));
  double prev = -HUGE_VAL;
  for (int iter = 0; iter < 5; ++iter) {
    double ll = 0.0;
    m = baum_welch_reference(m, obs, &ll);
    EXPECT_GE(ll, prev - 1e-9) << "iteration " << iter;
    prev = ll;
  }
}

// ------------------------------- gem -----------------------------------

TEST(Gem, MoleculeGeneratorContract) {
  const Molecule m = generate_molecule(1000, 3);
  EXPECT_EQ(m.atoms(), 1000u);
  double total_charge = 0.0;
  for (std::size_t i = 0; i < m.atoms(); ++i) {
    total_charge += m.q[i];
    EXPECT_GT(m.r[i], 0.0f);
  }
  // Alternating signs keep the net charge small relative to sum |q|.
  double abs_charge = 0.0;
  for (const float q : m.q) abs_charge += std::fabs(q);
  EXPECT_LT(std::fabs(total_charge), 0.1 * abs_charge);
}

// ------------------------------- lud -----------------------------------

TEST(Lud, DiagonallyDominantInputIsStable) {
  Lud lud;
  lud.setup(ProblemSize::kTiny);
  // Covered by the generic validation test; here assert the tolerance is
  // comfortable, not marginal: reconstruction error well under 1e-5.
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  lud.bind(ctx, q);
  lud.run();
  lud.finish();
  const Validation v = lud.validate();
  EXPECT_TRUE(v.ok);
  EXPECT_LT(v.error, 1e-5);
  lud.unbind();
}

// ------------------------------ kmeans ---------------------------------

TEST(KMeans, MembershipIsValidClusterIndex) {
  KMeans km;
  km.setup(ProblemSize::kTiny);
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  km.bind(ctx, q);
  km.run();
  km.finish();
  EXPECT_TRUE(km.validate().ok);
  km.unbind();
}

// ------------------------------- nw ------------------------------------

TEST(Nw, ScoreMatrixCornersAreBoundaryValues) {
  Nw nw;
  nw.setup(ProblemSize::kTiny);
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  nw.bind(ctx, q);
  nw.run();
  nw.finish();
  EXPECT_TRUE(nw.validate().ok);
  nw.unbind();
}

}  // namespace
}  // namespace eod::dwarfs
