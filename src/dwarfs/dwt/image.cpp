#include "dwarfs/dwt/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

GrayImage generate_leaf_image(std::size_t width, std::size_t height) {
  GrayImage img;
  img.width = width;
  img.height = height;
  img.pixels.resize(width * height);

  const double w = static_cast<double>(width);
  const double h = static_cast<double>(height);
  // The leaf's shape terms depend only on the column: tabulate them once
  // per column (the same expressions, so the same bits), then render the
  // rows in parallel.
  struct Column {
    double u;      // normalised coordinate in [-1, 1], leaf axis horizontal
    double blade;  // half-width of the leaf blade at u
    double vein;   // lateral-vein phase at u, before the |v| taper
  };
  std::vector<Column> cols(width);
  for (std::size_t x = 0; x < width; ++x) {
    const double u = 2.0 * (static_cast<double>(x) + 0.5) / w - 1.0;
    cols[x].u = u;
    // Lens shape |v| < blade(u) with a serrated margin.
    cols[x].blade = 0.62 * std::sqrt(std::max(0.0, 1.0 - u * u)) *
                    (1.0 + 0.12 * std::sin(9.0 * M_PI * u));
    cols[x].vein = std::sin(14.0 * (u + 1.0) * M_PI) * 0.5;
  }
  xcl::ThreadPool::global().parallel_for(height, [&](std::size_t y) {
    const double v = 2.0 * (static_cast<double>(y) + 0.5) / h - 1.0;
    for (std::size_t x = 0; x < width; ++x) {
      const Column& c = cols[x];
      // Background: soft diagonal gradient.
      double val = 190.0 + 30.0 * (c.u + v) * 0.5;
      if (std::abs(v) < c.blade) {
        val = 95.0 + 40.0 * std::abs(v) / (c.blade + 1e-9);
        // Midrib.
        if (std::abs(v) < 0.02) val = 60.0;
        // Lateral veins at regular angles off the midrib.
        const double vein = std::abs(c.vein * (1.0 - std::abs(v)));
        if (vein > 0.46 && std::abs(v) > 0.02) val -= 25.0;
      }
      // Deterministic fine texture (hash noise).
      const std::uint64_t n =
          (x * 0x9e3779b97f4a7c15ull) ^ (y * 0xbf58476d1ce4e5b9ull);
      val += static_cast<double>((n >> 33) & 0xF) - 7.5;

      img.pixels[y * width + x] =
          static_cast<std::uint8_t>(std::clamp(val, 0.0, 255.0));
    }
  });
  return img;
}

GrayImage box_resize(const GrayImage& src, std::size_t width,
                     std::size_t height) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("box_resize target must be non-empty");
  }
  GrayImage dst;
  dst.width = width;
  dst.height = height;
  dst.pixels.resize(width * height);
  const double sx = static_cast<double>(src.width) / width;
  const double sy = static_cast<double>(src.height) / height;
  xcl::ThreadPool::global().parallel_for(height, [&](std::size_t y) {
    const auto y0 = static_cast<std::size_t>(y * sy);
    const auto y1 = std::max<std::size_t>(
        y0 + 1, std::min(src.height, static_cast<std::size_t>(
                                         std::ceil((y + 1) * sy))));
    for (std::size_t x = 0; x < width; ++x) {
      const auto x0 = static_cast<std::size_t>(x * sx);
      const auto x1 = std::max<std::size_t>(
          x0 + 1, std::min(src.width, static_cast<std::size_t>(
                                          std::ceil((x + 1) * sx))));
      double acc = 0.0;
      std::size_t count = 0;
      for (std::size_t yy = y0; yy < y1; ++yy) {
        for (std::size_t xx = x0; xx < x1; ++xx) {
          acc += src.at(xx, yy);
          ++count;
        }
      }
      dst.pixels[y * width + x] = static_cast<std::uint8_t>(
          std::clamp(acc / std::max<std::size_t>(1, count), 0.0, 255.0));
    }
  });
  return dst;
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

GrayImage tile_coefficients(const std::vector<float>& coeffs,
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
