// Radix-2 Stockham FFT -- the Spectral Methods dwarf.
//
// The paper replaced the original OpenDwarfs FFT (complex, incorrect on
// some platforms) with Eric Bainville's simple high-performance OpenCL FFT;
// this is that algorithm: log2(N) radix-2 Stockham stages ping-ponging
// between two complex buffers, no bit-reversal pass.  footprint = 2 buffers
// of N complex floats: N = 2048 is exactly the 32 KiB L1 class.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

enum class FftDirection : std::uint8_t { kForward, kInverse };

class Fft final : public Dwarf {
 public:
  /// Table 2, fft row: Phi = transform length N (power of two).
  [[nodiscard]] static std::size_t length_for(ProblemSize s);

  /// Custom transform length (power of two >= 2) and direction; setup(size)
  /// is the Table 2 preset configure(length_for(size)).  The inverse runs
  /// the same Stockham stages with conjugated twiddles plus a 1/N scale
  /// kernel.
  void configure(std::size_t n, FftDirection dir = FftDirection::kForward);

  /// Replaces the generated input with caller data (2n interleaved floats);
  /// used to chain a forward and an inverse transform on the device.
  void set_input(std::span<const float> interleaved);

  [[nodiscard]] std::string name() const override { return "fft"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Spectral Methods";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(length_for(s));
  }
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    return 2 * length_for(s) * 2 * sizeof(float);
  }

  using Dwarf::stream_trace;
  void stream_trace(sim::TraceWriter& out) const override;
  [[nodiscard]] std::size_t trace_size_hint() const override;

  void setup(ProblemSize size) override;
  void bind(xcl::Context& ctx, xcl::Queue& q) override;
  void run() override;
  void finish() override;
  [[nodiscard]] Validation validate() override;
  void unbind() override;

  /// Double-precision reference (iterative Cooley-Tukey); each stage's
  /// butterflies run on the shared pool, bit-identical to a serial walk.
  static void reference_fft(std::span<std::complex<double>> data);
  /// Serial inverse (conjugate + forward + conjugate + 1/N).
  static void reference_ifft(std::span<std::complex<double>> data);

  /// The transformed spectrum/signal (valid after finish()).
  [[nodiscard]] std::span<const float> output() const noexcept {
    return output_;
  }

 private:
  std::size_t n_ = 0;
  FftDirection dir_ = FftDirection::kForward;
  HostVector<float> input_;   // interleaved re/im
  HostVector<float> output_;  // interleaved re/im

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> buf_a_;
  std::optional<xcl::Buffer> buf_b_;
};

}  // namespace eod::dwarfs
