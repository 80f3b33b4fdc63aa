// Speckle-reducing anisotropic diffusion -- the Structured Grid dwarf.
//
// Rodinia/OpenDwarfs SRAD: two stencil kernels per diffusion iteration
// (gradient + diffusion-coefficient, then the update sweep) over an
// rows x cols grid with clamped boundaries.  Table 3 arguments map to
// rows=Phi1, cols=Phi2, ROI 0..127 in each axis, lambda=0.5, 1 iteration.
// Asanovic et al. class this dwarf memory-bandwidth-limited, which is why
// the paper's CPU-GPU gap widens with problem size (Fig. 3a).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

class Srad final : public Dwarf {
 public:
  static constexpr float kLambda = 0.5f;  // Table 3 default

  struct Params {
    std::size_t rows = 0;
    std::size_t cols = 0;
    float lambda = kLambda;
    unsigned iterations = 1;  // Table 3: srad ... 0.5 1
  };

  struct Extent {
    std::size_t rows = 0;
    std::size_t cols = 0;
  };
  /// Table 2, srad row: rows,cols per size class.
  [[nodiscard]] static Extent extent_for(ProblemSize s);

  /// Custom grid/lambda/iteration count; setup(size) is the Table 2/3
  /// preset configure({extent_for(size).rows, extent_for(size).cols}).
  void configure(const Params& params);

  [[nodiscard]] std::string name() const override { return "srad"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Structured Grid";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    const Extent e = extent_for(s);
    return std::to_string(e.rows) + "," + std::to_string(e.cols);
  }
  /// J, c, dN, dS, dW, dE: six rows x cols float arrays.
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    const Extent e = extent_for(s);
    return 6 * e.rows * e.cols * sizeof(float);
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

  /// Diffused image plane, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(j_out_);
  }

 private:
  Extent extent_;
  float lambda_ = kLambda;
  unsigned iterations_ = 1;
  float q0sqr_ = 0.0f;
  HostVector<float> j_in_;
  HostVector<float> j_out_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> j_buf_;
  std::optional<xcl::Buffer> c_buf_;
  std::optional<xcl::Buffer> dn_buf_;
  std::optional<xcl::Buffer> ds_buf_;
  std::optional<xcl::Buffer> dw_buf_;
  std::optional<xcl::Buffer> de_buf_;
};

}  // namespace eod::dwarfs
