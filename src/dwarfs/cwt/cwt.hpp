// Continuous wavelet transform -- the extension benchmark the paper
// planned: "we plan to add a continuous wavelet transform code" (§2).
//
// Morlet CWT of a real 1-D signal, computed directly in the time domain:
// one work-item per (scale, translation) coefficient convolving the signal
// with the scaled/shifted wavelet.  Spectral Methods dwarf, compute-heavy
// (O(N * S * support)), with a scale-dependent inner-loop length that adds
// mild divergence -- a deliberately different balance point from fft/dwt.
//
// Not part of the paper's Table 2 suite: registered as an extension
// benchmark (see dwarfs::extension_names()).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

class Cwt final : public Dwarf {
 public:
  static constexpr unsigned kScales = 32;  // octave-spaced analysis scales

  /// Signal lengths per size class (footprint = signal + S x N
  /// coefficients; tiny fits L1 like the rest of the suite).
  [[nodiscard]] static std::size_t length_for(ProblemSize s);

  /// Custom signal length / scale count.
  void configure(std::size_t n, unsigned scales = kScales);

  [[nodiscard]] std::string name() const override { return "cwt"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Spectral Methods";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(length_for(s));
  }
  /// signal N + |W| magnitude plane S x N, floats.
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override;

  void setup(ProblemSize size) override;
  void bind(xcl::Context& ctx, xcl::Queue& q) override;
  void run() override;
  void finish() override;
  [[nodiscard]] Validation validate() override;
  void unbind() override;

  /// |W(scale, t)| magnitudes (valid after finish()).
  [[nodiscard]] std::span<const float> magnitudes() const noexcept {
    return magnitude_;
  }

  /// Magnitude plane, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(magnitude_);
  }

 private:
  /// One scale's Morlet taps for the span body, indexed by t - b + radius.
  struct ScaleTaps {
    std::ptrdiff_t radius = 0;
    std::vector<float> g, cos, sin;
  };

  std::size_t n_ = 0;
  unsigned scales_ = kScales;
  HostVector<float> signal_;
  HostVector<float> magnitude_;  // scales_ x n_
  /// Per-scale span taps; built by the first functional run().
  std::shared_ptr<const std::vector<ScaleTaps>> span_taps_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> signal_buf_;
  std::optional<xcl::Buffer> mag_buf_;
};

}  // namespace eod::dwarfs
