#include "dwarfs/cwt/cwt.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "xcl/kernel.hpp"
#include "xcl/simd.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

namespace {

constexpr double kOmega0 = 5.0;    // Morlet centre frequency
constexpr double kSupport = 4.0;   // Gaussian support radius in u = t/s

/// Analysis scale j: quarter-octave spacing.
double scale_of(unsigned j) { return std::pow(2.0, j / 4.0); }

}  // namespace

std::size_t Cwt::length_for(ProblemSize s) {
  // footprint = 4 * N * (1 + kScales) bytes = 132 N: sized to the Skylake
  // hierarchy like the rest of the suite.
  switch (s) {
    case ProblemSize::kTiny:
      return 240;      // 31.0 KiB <= L1
    case ProblemSize::kSmall:
      return 1984;     // 255.8 KiB <= L2
    case ProblemSize::kMedium:
      return 63488;    // 8.0 MiB <= L3
    case ProblemSize::kLarge:
      return 262144;   // 33 MiB, out of cache
  }
  return 0;
}

std::size_t Cwt::footprint_bytes(ProblemSize s) const {
  const std::size_t n = length_for(s);
  return n * sizeof(float) + std::size_t{kScales} * n * sizeof(float);
}

void Cwt::setup(ProblemSize size) { configure(length_for(size), kScales); }

void Cwt::configure(std::size_t n, unsigned scales) {
  require(n >= 16, xcl::Status::kInvalidValue,
          "cwt signal must have at least 16 samples");
  require(scales >= 1, xcl::Status::kInvalidValue,
          "cwt needs at least one scale");
  const std::size_t cells =
      checked_elements(n, scales, sizeof(float), "cwt: n x scales");
  n_ = n;
  scales_ = scales;
  span_taps_.reset();
  // Test signal: two chirping tones plus noise -- structured content at
  // several scales, like the suite's other generated inputs.
  signal_ = HostVector<float>(n_);
  generate_indexed(n_, 0x637774ull /* "cwt" */, 1,
                   [&](SplitMix64& rng, std::size_t t) {
                     const double x = static_cast<double>(t);
                     signal_[t] = static_cast<float>(
                         std::sin(2.0 * M_PI * x / 16.0) +
                         0.5 * std::sin(2.0 * M_PI * x / 64.0 + 0.1) +
                         0.1 * (rng.uniform() - 0.5));
                   });
  magnitude_ = HostVector<float>(cells);
}

void Cwt::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  signal_buf_.emplace(ctx, signal_.size() * sizeof(float));
  mag_buf_.emplace(ctx, magnitude_.size() * sizeof(float));
  q.enqueue_write<float>(*signal_buf_, signal_);
}

void Cwt::run() {
  const std::size_t n = n_;
  const unsigned scales = scales_;
  auto x = signal_buf_->access<const float>("signal");
  auto w = mag_buf_->access<float>("magnitude");

  xcl::Kernel kernel("cwt_morlet", [=](xcl::WorkItem& it) {
    const std::size_t idx = it.global_id(0);
    if (idx >= std::size_t{scales} * n) return;
    const unsigned j = static_cast<unsigned>(idx / n);
    const std::size_t b = idx % n;
    const float s = static_cast<float>(scale_of(j));
    const auto radius = static_cast<std::ptrdiff_t>(kSupport * s);
    const auto bb = static_cast<std::ptrdiff_t>(b);
    const auto nn = static_cast<std::ptrdiff_t>(n);
    float re = 0.0f;
    float im = 0.0f;
    for (std::ptrdiff_t t = std::max<std::ptrdiff_t>(0, bb - radius);
         t <= std::min(nn - 1, bb + radius); ++t) {
      const float u = static_cast<float>(t - bb) / s;
      const float g = std::exp(-0.5f * u * u);
      re += x[static_cast<std::size_t>(t)] * g *
            std::cos(static_cast<float>(kOmega0) * u);
      im -= x[static_cast<std::size_t>(t)] * g *
            std::sin(static_cast<float>(kOmega0) * u);
    }
    const float norm = 1.0f / std::sqrt(s);
    w[idx] = norm * std::sqrt(re * re + im * im);
  });

  // Span tier: a run of (scale, translation) coefficients per call.  A
  // tap's Gaussian and phase depend only on its scale and offset t - b, so
  // they are tabulated once per scale from the item body's own float
  // expressions; the body then multiplies in the item's order, (x * g) *
  // cos.  W coefficients of one scale whose windows lie inside the signal
  // ride in vfloat lanes, lane l reading x[t + l] against the same tap, so
  // each lane still sums its taps in t order; the rest run one at a time.
  // Model-only queues never run a body and skip the tables.
  if (queue_->functional() && !span_taps_) {
    auto taps = std::make_shared<std::vector<ScaleTaps>>(scales);
    for (unsigned j = 0; j < scales; ++j) {
      const float s = static_cast<float>(scale_of(j));
      ScaleTaps& k = (*taps)[j];
      k.radius = static_cast<std::ptrdiff_t>(kSupport * s);
      for (std::ptrdiff_t d = -k.radius; d <= k.radius; ++d) {
        const float u = static_cast<float>(d) / s;
        k.g.push_back(std::exp(-0.5f * u * u));
        k.cos.push_back(std::cos(static_cast<float>(kOmega0) * u));
        k.sin.push_back(std::sin(static_cast<float>(kOmega0) * u));
      }
    }
    span_taps_ = std::move(taps);
  }
  kernel.span([=, taps = span_taps_](std::size_t begin, std::size_t end) {
    namespace sv = xcl::simd;
    constexpr std::size_t W = sv::kLanes;
    const float* EOD_RESTRICT xs = x.data();
    float* EOD_RESTRICT ws = w.data();
    const auto nn = static_cast<std::ptrdiff_t>(n);
    const std::size_t last = std::min(end, std::size_t{scales} * n);
    for (std::size_t idx = begin; idx < last;) {
      const unsigned j = static_cast<unsigned>(idx / n);
      const ScaleTaps& k = (*taps)[j];
      const float* EOD_RESTRICT g = k.g.data();
      const float* EOD_RESTRICT c = k.cos.data();
      const float* EOD_RESTRICT sn = k.sin.data();
      const float norm = 1.0f / std::sqrt(static_cast<float>(scale_of(j)));
      const auto bb = static_cast<std::ptrdiff_t>(idx % n);
      if (idx + W <= last && bb >= k.radius &&
          bb + static_cast<std::ptrdiff_t>(W) + k.radius <= nn) {
        const float* xw = xs + (bb - k.radius);
        sv::vfloat re = sv::vbroadcast(0.0f);
        sv::vfloat im = sv::vbroadcast(0.0f);
        for (std::size_t d = 0; d < k.g.size(); ++d) {
          const sv::vfloat xg = sv::vload(xw + d) * sv::vbroadcast(g[d]);
          re += xg * sv::vbroadcast(c[d]);
          im = im - xg * sv::vbroadcast(sn[d]);
        }
        sv::vstore(ws + idx,
                   sv::vbroadcast(norm) * sv::vsqrt(re * re + im * im));
        idx += W;
        continue;
      }
      float re = 0.0f;
      float im = 0.0f;
      for (std::ptrdiff_t t = std::max<std::ptrdiff_t>(0, bb - k.radius);
           t <= std::min(nn - 1, bb + k.radius); ++t) {
        const auto d = static_cast<std::size_t>(t - bb + k.radius);
        const float xg = xs[static_cast<std::size_t>(t)] * g[d];
        re += xg * c[d];
        im -= xg * sn[d];
      }
      ws[idx] = norm * std::sqrt(re * re + im * im);
      ++idx;
    }
  });

  // Total taps: sum over scales of N * (2 * support * s + 1).
  double taps = 0.0;
  for (unsigned j = 0; j < scales; ++j) {
    taps += static_cast<double>(n) * (2.0 * kSupport * scale_of(j) + 1.0);
  }
  xcl::WorkloadProfile prof;
  prof.flops = taps * 12.0;  // exp + sin/cos pair + MACs per tap
  prof.int_ops = taps * 2.0;
  // Sliding windows reuse the signal heavily (reuse ~ window length);
  // requested traffic is the small uncached fraction plus the output.
  prof.bytes_read = taps * sizeof(float) * 0.02 +
                    static_cast<double>(scales) * n * sizeof(float);
  prof.bytes_written =
      static_cast<double>(scales) * n * sizeof(float);
  prof.working_set_bytes =
      static_cast<double>(n) * sizeof(float) * (1.0 + scales);
  prof.pattern = xcl::AccessPattern::kStencil;  // sliding windows
  // Inner-loop length varies ~64x across scales: divergence across a SIMD
  // group that spans scale boundaries (mild, since rows are contiguous).
  prof.branch_divergence = 0.15;
  const std::size_t total = std::size_t{scales} * n;
  const std::size_t wg = 64;
  queue_->enqueue(kernel, xcl::NDRange((total + wg - 1) / wg * wg, wg),
                  prof);
}

void Cwt::finish() {
  queue_->enqueue_read<float>(*mag_buf_, std::span(magnitude_));
}

Validation Cwt::validate() {
  // A tap's Gaussian and phase depend only on its scale and offset t - b,
  // so each scale tabulates them once from the same expressions (the same
  // bits).  The (scale, translation) coefficients then run on the pool, each
  // summing its taps in t order.
  struct Taps {
    std::ptrdiff_t radius = 0;
    std::vector<double> g, cos, sin;  // indexed by t - b + radius
  };
  xcl::ThreadPool& pool = xcl::ThreadPool::global();
  std::vector<Taps> taps(scales_);
  pool.parallel_for(scales_, [&](std::size_t j) {
    const double s = scale_of(static_cast<unsigned>(j));
    Taps& k = taps[j];
    k.radius = static_cast<std::ptrdiff_t>(kSupport * s);
    for (std::ptrdiff_t d = -k.radius; d <= k.radius; ++d) {
      const double u = static_cast<double>(d) / s;
      k.g.push_back(std::exp(-0.5 * u * u));
      k.cos.push_back(std::cos(kOmega0 * u));
      k.sin.push_back(std::sin(kOmega0 * u));
    }
  });
  HostVector<float> want(magnitude_.size());
  pool.parallel_for(want.size(), [&](std::size_t idx) {
    const unsigned j = static_cast<unsigned>(idx / n_);
    const Taps& k = taps[j];
    const auto bb = static_cast<std::ptrdiff_t>(idx % n_);
    const auto nn = static_cast<std::ptrdiff_t>(n_);
    double re = 0.0;
    double im = 0.0;
    for (std::ptrdiff_t t = std::max<std::ptrdiff_t>(0, bb - k.radius);
         t <= std::min(nn - 1, bb + k.radius); ++t) {
      const auto d = static_cast<std::size_t>(t - bb + k.radius);
      const double x = signal_[static_cast<std::size_t>(t)];
      re += x * k.g[d] * k.cos[d];
      im -= x * k.g[d] * k.sin[d];
    }
    want[idx] = static_cast<float>(std::sqrt(re * re + im * im) /
                                   std::sqrt(scale_of(j)));
  });
  return validate_norm(magnitude_, want, 1e-4, "cwt Morlet magnitudes");
}

void Cwt::unbind() {
  mag_buf_.reset();
  signal_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
