// Image support for the dwt benchmark: PPM (P6) / PGM (P5) binary IO, a
// procedural "gum leaf" generator standing in for the paper's photograph,
// and an ImageMagick-equivalent box resampler used to produce the four
// problem-size images (§4.4.3: 3648x2736 down-sampled to 80x60-scale).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "xcl/host_memory.hpp"

namespace eod::dwarfs {

/// 8-bit grayscale raster.
struct GrayImage {
  std::size_t width = 0;
  std::size_t height = 0;
  xcl::HostVector<std::uint8_t> pixels;  // row-major, width*height

  [[nodiscard]] std::uint8_t at(std::size_t x, std::size_t y) const {
    return pixels[y * width + x];
  }
};

/// Procedurally renders a leaf-like grayscale test image (midrib, veins,
/// serrated margin, background gradient): structured content with both
/// smooth regions and edges, like the gum-leaf photo the paper uses.
[[nodiscard]] GrayImage generate_leaf_image(std::size_t width,
                                            std::size_t height);

/// Area-averaging (box) resample, as ImageMagick's -resize does for
/// downscaling.
[[nodiscard]] GrayImage box_resize(const GrayImage& src, std::size_t width,
                                   std::size_t height);

/// The leaf image rendered straight at `width` x `height`, as floats into
/// `out` (row-major, width*height): pixel for pixel
/// box_resize(generate_leaf_image(full_width, full_height), width, height),
/// without the full-size raster.  At the full size every box is one pixel,
/// so `out` is the leaf itself.
void render_leaf_resized(std::size_t full_width, std::size_t full_height,
                         std::size_t width, std::size_t height,
                         std::span<float> out);

/// Binary PGM (P5) writer/reader.
void save_pgm(const GrayImage& img, const std::string& path);
[[nodiscard]] GrayImage load_pgm(const std::string& path);

/// Binary PPM (P6) writer/reader; load converts to grayscale by luminance
/// (the dwt benchmark consumes grayscale, per §4.4.3).
void save_ppm_rgb_from_gray(const GrayImage& img, const std::string& path);
[[nodiscard]] GrayImage load_ppm_as_gray(const std::string& path);

/// Packs DWT coefficient quadrants into a visually tiled grayscale image
/// (the paper stores "Portable GrayMap images of the resulting DWT
/// coefficients in a visual tiled fashion").
[[nodiscard]] GrayImage tile_coefficients(std::span<const float> coeffs,
                                          std::size_t width,
                                          std::size_t height);

}  // namespace eod::dwarfs
