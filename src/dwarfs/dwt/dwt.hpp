// 2-D discrete wavelet transform -- the second Spectral Methods dwarf,
// added by the paper from Rodinia "with modifications to improve
// portability" (§2, §4.4.3).
//
// CDF 5/3 lifting (predict + update), three decomposition levels (Table 3:
// -l 3), separable: a horizontal pass then a vertical pass per level, with
// the low-pass quadrant recursing.  Input images are the leaf generator's
// image box-resampled to the Table 2 dimensions (render_leaf_resized).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "dwarfs/common.hpp"
#include "dwarfs/dwt/image.hpp"

namespace eod::dwarfs {

class Dwt final : public Dwarf {
 public:
  static constexpr unsigned kLevels = 3;

  struct Extent {
    std::size_t width = 0;
    std::size_t height = 0;
  };
  /// Table 2, dwt row: image dimensions per size class.
  [[nodiscard]] static Extent extent_for(ProblemSize s);

  /// Custom image extent and decomposition depth (-l); setup(size) is the
  /// Table 2 preset configure(extent_for(size), kLevels).  Throws
  /// std::invalid_argument naming max_levels(extent) past it.
  void configure(Extent extent, unsigned levels);

  /// Transforms a caller-supplied raster (row-major, width*height floats)
  /// instead of the leaf, e.g. one with fractional pixels.
  void configure_with_image(Extent extent, unsigned levels,
                            std::span<const float> image);

  /// Deepest decomposition the extent supports: the number of halvings
  /// while both sides stay >= 2.
  [[nodiscard]] static unsigned max_levels(Extent extent);

  [[nodiscard]] std::string name() const override { return "dwt"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Spectral Methods";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override;
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    const Extent e = extent_for(s);
    return 2 * e.width * e.height * sizeof(float);  // data + staging
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

  /// Reference: one full forward transform in double precision, rows on
  /// the shared pool, bit-identical to a serial walk.
  static void reference_dwt53(std::span<double> data, std::size_t width,
                              std::size_t height, unsigned levels);
  /// Serial inverse (used by tests for the perfect-reconstruction
  /// property).
  static void reference_idwt53(std::span<double> data, std::size_t width,
                               std::size_t height, unsigned levels);

  /// The configured input raster, row-major.
  [[nodiscard]] std::span<const float> input() const {
    fill_input();
    return input_;
  }
  /// The transformed coefficients (valid after finish()).
  [[nodiscard]] std::span<const float> coefficients() const noexcept {
    return output_;
  }
  [[nodiscard]] Extent extent() const noexcept { return extent_; }

  /// Transformed plane (all levels applied), byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(output_);
  }

 private:
  /// Validates `extent` and `levels`, records them and allocates the
  /// input and output rasters.
  void set_extent(Extent extent, unsigned levels);
  void enqueue_level(std::size_t lw, std::size_t lh);
  void fill_input() const;

  Extent extent_;
  unsigned levels_ = kLevels;
  mutable HostVector<float> input_;  // grayscale pixels as float
  InputFill input_fill_;
  HostVector<float> output_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> data_buf_;
  std::optional<xcl::Buffer> temp_buf_;
};

}  // namespace eod::dwarfs
