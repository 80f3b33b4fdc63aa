#include "dwarfs/dwt/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

namespace {

// Renders the leaf one row at a time.  Every pixel goes through the same
// IEEE operations; the terms of them that depend only on the row are
// computed once per row, and those that depend only on the column once per
// column, so every row reads the same bits.
class LeafRows {
 public:
  LeafRows(std::size_t width, std::size_t height)
      : cols_(width), h_(static_cast<double>(height)) {
    const double w = static_cast<double>(width);
    for (std::size_t x = 0; x < width; ++x) {
      const double u = 2.0 * (static_cast<double>(x) + 0.5) / w - 1.0;
      Column& c = cols_[x];
      c.u = u;
      // Lens shape |v| < blade(u) with a serrated margin.
      c.blade = 0.62 * std::sqrt(std::max(0.0, 1.0 - u * u)) *
                (1.0 + 0.12 * std::sin(9.0 * M_PI * u));
      c.blade_eps = c.blade + 1e-9;
      c.vein = std::sin(14.0 * (u + 1.0) * M_PI) * 0.5;
      c.noise = noise_bits(x * kNoiseX);
    }
  }

  // Writes row y's pixels to out[0, width).
  void render(std::size_t y, std::uint8_t* out) const {
    const double v = 2.0 * (static_cast<double>(y) + 0.5) / h_ - 1.0;
    const double av = std::abs(v);
    const double av40 = 40.0 * av;
    const double taper = 1.0 - av;
    const bool midrib = av < 0.02;
    const bool side = av > 0.02;
    const std::uint32_t row_noise = noise_bits(y * kNoiseY);
    for (std::size_t x = 0; x < cols_.size(); ++x) {
      const Column& c = cols_[x];
      // Background: soft diagonal gradient.
      double val = 190.0 + 30.0 * (c.u + v) * 0.5;
      if (av < c.blade) {
        val = midrib ? 60.0 : 95.0 + av40 / c.blade_eps;
        // Lateral veins at regular angles off the midrib.
        if (side && std::abs(c.vein * taper) > 0.46) val -= 25.0;
      }
      // Deterministic fine texture: bits 33..36 of (x*K1) ^ (y*K2), taken
      // from each product apart (shift and mask distribute over xor).
      val += static_cast<double>(c.noise ^ row_noise) - 7.5;
      out[x] = static_cast<std::uint8_t>(std::clamp(val, 0.0, 255.0));
    }
  }

 private:
  static constexpr std::uint64_t kNoiseX = 0x9e3779b97f4a7c15ull;
  static constexpr std::uint64_t kNoiseY = 0xbf58476d1ce4e5b9ull;
  static std::uint32_t noise_bits(std::uint64_t product) {
    return static_cast<std::uint32_t>((product >> 33) & 0xF);
  }

  struct Column {
    double u;             // in [-1, 1] along the (horizontal) leaf axis
    double blade;         // half-width of the leaf blade at u
    double blade_eps;     // blade + 1e-9, the shading denominator
    double vein;          // lateral-vein phase at u, before the |v| taper
    std::uint32_t noise;  // the column's bits of the texture hash
  };
  std::vector<Column> cols_;
  double h_;
};

// The source cells [lo, hi) a box resample of `src` cells to `dst` cells
// averages into each destination cell (one axis).
struct Box {
  std::size_t lo;
  std::size_t hi;
};

std::vector<Box> box_bounds(std::size_t src, std::size_t dst) {
  const double s = static_cast<double>(src) / dst;
  std::vector<Box> boxes(dst);
  for (std::size_t i = 0; i < dst; ++i) {
    const auto lo = static_cast<std::size_t>(i * s);
    boxes[i] = {lo, std::max<std::size_t>(
                        lo + 1, std::min(src, static_cast<std::size_t>(
                                                  std::ceil((i + 1) * s))))};
  }
  return boxes;
}

std::uint8_t box_average(double sum, const Box& x, const Box& y) {
  const std::size_t count = (x.hi - x.lo) * (y.hi - y.lo);
  return static_cast<std::uint8_t>(std::clamp(sum / count, 0.0, 255.0));
}

void require_target(std::size_t width, std::size_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("box_resize target must be non-empty");
  }
}

}  // namespace

GrayImage generate_leaf_image(std::size_t width, std::size_t height) {
  GrayImage img;
  img.width = width;
  img.height = height;
  img.pixels.resize(width * height);
  const LeafRows leaf(width, height);
  xcl::ThreadPool::global().parallel_for(height, [&](std::size_t y) {
    leaf.render(y, &img.pixels[y * width]);
  });
  return img;
}

GrayImage box_resize(const GrayImage& src, std::size_t width,
                     std::size_t height) {
  require_target(width, height);
  GrayImage dst;
  dst.width = width;
  dst.height = height;
  dst.pixels.resize(width * height);
  const std::vector<Box> xs = box_bounds(src.width, width);
  const std::vector<Box> ys = box_bounds(src.height, height);
  xcl::ThreadPool::global().parallel_for(height, [&](std::size_t y) {
    for (std::size_t x = 0; x < width; ++x) {
      double acc = 0.0;
      for (std::size_t yy = ys[y].lo; yy < ys[y].hi; ++yy) {
        for (std::size_t xx = xs[x].lo; xx < xs[x].hi; ++xx) {
          acc += src.at(xx, yy);
        }
      }
      dst.pixels[y * width + x] = box_average(acc, xs[x], ys[y]);
    }
  });
  return dst;
}

void render_leaf_resized(std::size_t full_width, std::size_t full_height,
                         std::size_t width, std::size_t height,
                         std::span<float> out) {
  require_target(width, height);
  if (out.size() != width * height) {
    throw std::invalid_argument("render_leaf_resized: out must hold " +
                                std::to_string(width * height) + " pixels");
  }
  // A band of output rows renders each source row its boxes cover once, in
  // ascending order, and adds it into the sums of every output row whose
  // box holds it: yy ascending outside, xx ascending inside, as box_resize
  // sums them.  At the full size every box is one pixel, so the rows
  // convert as they render.  Each pool task walks a run of bands with
  // scratch allocated here: scratch a worker allocated would stay resident
  // in that worker's malloc arena.
  constexpr std::size_t kBand = 4;  // output rows per band
  const LeafRows leaf(full_width, full_height);
  const std::vector<Box> xs = box_bounds(full_width, width);
  const std::vector<Box> ys = box_bounds(full_height, height);
  const bool identity = width == full_width && height == full_height;
  const std::size_t bands = (height + kBand - 1) / kBand;
  const std::size_t tasks = pool_tasks(bands);
  xcl::HostVector<std::uint8_t> rows(tasks * full_width);
  xcl::HostVector<double> sums(identity ? 0 : tasks * kBand * width);
  xcl::ThreadPool::global().parallel_for(tasks, [&](std::size_t t) {
    std::uint8_t* row = &rows[t * full_width];
    for (std::size_t band = t * bands / tasks;
         band < (t + 1) * bands / tasks; ++band) {
      const std::size_t y0 = band * kBand;
      const std::size_t y1 = std::min(height, y0 + kBand);
      if (identity) {
        for (std::size_t y = y0; y < y1; ++y) {
          leaf.render(y, row);
          std::copy(row, row + width, out.begin() + y * width);
        }
        continue;
      }
      double* acc = &sums[t * kBand * width];
      std::fill(acc, acc + (y1 - y0) * width, 0.0);
      for (std::size_t yy = ys[y0].lo; yy < ys[y1 - 1].hi; ++yy) {
        leaf.render(yy, row);
        for (std::size_t y = y0; y < y1; ++y) {
          if (yy < ys[y].lo || yy >= ys[y].hi) continue;
          double* line = acc + (y - y0) * width;
          for (std::size_t x = 0; x < width; ++x) {
            for (std::size_t xx = xs[x].lo; xx < xs[x].hi; ++xx) {
              line[x] += row[xx];
            }
          }
        }
      }
      for (std::size_t y = y0; y < y1; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
          out[y * width + x] = static_cast<float>(
              box_average(acc[(y - y0) * width + x], xs[x], ys[y]));
        }
      }
    }
  });
}

namespace {

void skip_ws_and_comments(std::istream& in) {
  for (;;) {
    const int c = in.peek();
    if (c == '#') {
      std::string line;
      std::getline(in, line);
    } else if (std::isspace(c)) {
      in.get();
    } else {
      return;
    }
  }
}

void read_header(std::istream& in, const char* magic, std::size_t& w,
                 std::size_t& h, unsigned& maxval) {
  std::string m;
  in >> m;
  if (m != magic) throw std::runtime_error("bad PNM magic: " + m);
  skip_ws_and_comments(in);
  in >> w;
  skip_ws_and_comments(in);
  in >> h;
  skip_ws_and_comments(in);
  in >> maxval;
  in.get();  // single whitespace before raster
  if (!in || maxval == 0 || maxval > 255) {
    throw std::runtime_error("unsupported PNM header");
  }
}

}  // namespace

void save_pgm(const GrayImage& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "P5\n" << img.width << ' ' << img.height << "\n255\n";
  out.write(reinterpret_cast<const char*>(img.pixels.data()),
            static_cast<std::streamsize>(img.pixels.size()));
}

GrayImage load_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  GrayImage img;
  unsigned maxval = 0;
  read_header(in, "P5", img.width, img.height, maxval);
  img.pixels.resize(img.width * img.height);
  in.read(reinterpret_cast<char*>(img.pixels.data()),
          static_cast<std::streamsize>(img.pixels.size()));
  if (!in) throw std::runtime_error("truncated PGM: " + path);
  return img;
}

void save_ppm_rgb_from_gray(const GrayImage& img, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "P6\n" << img.width << ' ' << img.height << "\n255\n";
  for (const std::uint8_t g : img.pixels) {
    // Leaf-toned RGB so the file looks like a photo, grayscale on load.
    const char rgb[3] = {static_cast<char>(g / 2), static_cast<char>(g),
                         static_cast<char>(g / 3)};
    out.write(rgb, 3);
  }
}

GrayImage load_ppm_as_gray(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  GrayImage img;
  unsigned maxval = 0;
  read_header(in, "P6", img.width, img.height, maxval);
  img.pixels.resize(img.width * img.height);
  std::vector<std::uint8_t> rgb(img.pixels.size() * 3);
  in.read(reinterpret_cast<char*>(rgb.data()),
          static_cast<std::streamsize>(rgb.size()));
  if (!in) throw std::runtime_error("truncated PPM: " + path);
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    // BT.601 luminance.
    const double y = 0.299 * rgb[3 * i] + 0.587 * rgb[3 * i + 1] +
                     0.114 * rgb[3 * i + 2];
    img.pixels[i] = static_cast<std::uint8_t>(std::clamp(y, 0.0, 255.0));
  }
  return img;
}

GrayImage tile_coefficients(std::span<const float> coeffs,
                            std::size_t width, std::size_t height) {
  if (coeffs.size() != width * height) {
    throw std::invalid_argument("coefficient raster size mismatch");
  }
  GrayImage img;
  img.width = width;
  img.height = height;
  img.pixels.resize(coeffs.size());
  // The transform already stores quadrants tiled (LL top-left, detail
  // bands around it); map coefficients to 8-bit with a log stretch so the
  // detail bands are visible.
  float max_abs = 1.0f;
  for (const float c : coeffs) max_abs = std::max(max_abs, std::fabs(c));
  const double scale = 255.0 / std::log1p(static_cast<double>(max_abs));
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    const double v = std::log1p(std::fabs(static_cast<double>(coeffs[i])));
    img.pixels[i] = static_cast<std::uint8_t>(
        std::clamp(v * scale, 0.0, 255.0));
  }
  return img;
}

}  // namespace eod::dwarfs
