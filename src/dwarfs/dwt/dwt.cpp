#include "dwarfs/dwt/dwt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "xcl/kernel.hpp"
#include "xcl/simd.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

Dwt::Extent Dwt::extent_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return {72, 54};
    case ProblemSize::kSmall:
      return {200, 150};
    case ProblemSize::kMedium:
      return {1152, 864};
    case ProblemSize::kLarge:
      return {3648, 2736};
  }
  return {};
}

std::string Dwt::scale_parameter(ProblemSize s) const {
  const Extent e = extent_for(s);
  return std::to_string(e.width) + "x" + std::to_string(e.height);
}

void Dwt::setup(ProblemSize size) {
  configure(extent_for(size), kLevels);
}

void Dwt::configure(Extent extent, unsigned levels) {
  set_extent(extent, levels);
  input_fill_.reset();
}

void Dwt::fill_input() const {
  // The paper's large image is the original photo; smaller classes are
  // down-sampled with ImageMagick.  Mirror that: render the full-size leaf
  // straight into the requested extent's box averages.
  input_fill_.ensure([&] {
    const Extent full = extent_for(ProblemSize::kLarge);
    render_leaf_resized(full.width, full.height, extent_.width,
                        extent_.height, input_);
  });
}

void Dwt::configure_with_image(Extent extent, unsigned levels,
                               std::span<const float> image) {
  require(image.size() == extent.width * extent.height,
          xcl::Status::kInvalidValue,
          "dwt image must hold width x height pixels");
  set_extent(extent, levels);
  std::copy(image.begin(), image.end(), input_.begin());
  input_fill_.mark_filled();
}

void Dwt::set_extent(Extent extent, unsigned levels) {
  require(extent.width >= 2 && extent.height >= 2,
          xcl::Status::kInvalidValue, "dwt image must be at least 2x2");
  const unsigned max = max_levels(extent);
  if (levels > max) {
    throw std::invalid_argument(
        "dwt: a " + std::to_string(extent.width) + "x" +
        std::to_string(extent.height) + " image supports 1.." +
        std::to_string(max) + " levels (halvings while both sides stay >= 2)" +
        "; got -l " + std::to_string(levels));
  }
  require(levels >= 1, xcl::Status::kInvalidValue,
          "dwt needs at least one level");
  // validate() stages the raster in doubles, the widest copy of it.
  const std::size_t pixels = checked_elements(extent.width, extent.height,
                                              sizeof(double), "dwt: w x h");
  extent_ = extent;
  levels_ = levels;
  input_ = HostVector<float>(pixels);
  output_ = HostVector<float>(pixels);
}

unsigned Dwt::max_levels(Extent extent) {
  unsigned levels = 0;
  for (std::size_t w = extent.width, h = extent.height; w >= 2 && h >= 2;
       w = (w + 1) / 2, h = (h + 1) / 2) {
    ++levels;
  }
  return levels;
}

void Dwt::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  data_buf_.emplace(ctx, input_.size() * sizeof(float));
  temp_buf_.emplace(ctx, input_.size() * sizeof(float));
  if (q.functional()) fill_input();  // run() uploads it
}

void Dwt::enqueue_level(std::size_t lw, std::size_t lh) {
  const std::size_t stride = extent_.width;
  auto data = data_buf_->access<float>("data");
  auto temp = temp_buf_->access<float>("temp");

  // Horizontal pass: one work-item per row, deinterleave into temp.  Fully
  // indexed (no row-base pointers) so the checked tier sees every access.
  xcl::Kernel horiz("dwt_horizontal", [=](xcl::WorkItem& it) {
    const std::size_t r = it.global_id(0);
    if (r >= lh) return;
    const std::size_t row = r * stride;
    const std::size_t n = lw;
    const std::size_t ns = (n + 1) / 2;
    const std::size_t nd = n / 2;
    for (std::size_t i = 0; i < nd; ++i) {
      const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
      temp[row + ns + i] =
          data[row + 2 * i + 1] -
          0.5f * (data[row + 2 * i] + data[row + rr]);
    }
    for (std::size_t i = 0; i < ns; ++i) {
      const std::size_t dl = i == 0 ? 0 : i - 1;
      const std::size_t dr = i < nd ? i : nd - 1;
      temp[row + i] =
          data[row + 2 * i] +
          0.25f * (temp[row + ns + dl] + temp[row + ns + dr]);
    }
  });

  // Span tier: a run of whole rows (or columns below) per call.  data and
  // temp are distinct buffers, so the lifting loops run over restrict-
  // qualified pointers.
  horiz.span([=](std::size_t begin, std::size_t end) {
    const float* EOD_RESTRICT dp = data.data();
    float* EOD_RESTRICT tp = temp.data();
    const std::size_t n = lw;
    const std::size_t ns = (n + 1) / 2;
    const std::size_t nd = n / 2;
    for (std::size_t r = begin, last = std::min(end, lh); r < last; ++r) {
      const float* EOD_RESTRICT in_row = dp + r * stride;
      float* EOD_RESTRICT out_row = tp + r * stride;
      for (std::size_t i = 0; i < nd; ++i) {
        const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
        out_row[ns + i] =
            in_row[2 * i + 1] - 0.5f * (in_row[2 * i] + in_row[rr]);
      }
      for (std::size_t i = 0; i < ns; ++i) {
        const std::size_t dl = i == 0 ? 0 : i - 1;
        const std::size_t dr = i < nd ? i : nd - 1;
        out_row[i] =
            in_row[2 * i] + 0.25f * (out_row[ns + dl] + out_row[ns + dr]);
      }
    }
  });

  // Vertical pass: one work-item per column, temp -> data.
  xcl::Kernel vert("dwt_vertical", [=](xcl::WorkItem& it) {
    const std::size_t c = it.global_id(0);
    if (c >= lw) return;
    const std::size_t n = lh;
    const std::size_t ns = (n + 1) / 2;
    const std::size_t nd = n / 2;
    for (std::size_t i = 0; i < nd; ++i) {
      const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
      data[(ns + i) * stride + c] =
          temp[(2 * i + 1) * stride + c] -
          0.5f * (temp[2 * i * stride + c] + temp[rr * stride + c]);
    }
    for (std::size_t i = 0; i < ns; ++i) {
      const std::size_t dl = i == 0 ? 0 : i - 1;
      const std::size_t dr = i < nd ? i : nd - 1;
      data[i * stride + c] =
          temp[2 * i * stride + c] + 0.25f * (data[(ns + dl) * stride + c] +
                                              data[(ns + dr) * stride + c]);
    }
  });

  // Span tier: rows outermost, the group's columns innermost in lanes, so
  // each step streams along a row instead of striding down a column.  The
  // columns are independent and the update rows read only predict outputs
  // of their own column, so every coefficient sees the item body's
  // operands in its order, element-wise, bit-identically.
  vert.span([=](std::size_t begin, std::size_t end) {
    namespace sv = xcl::simd;
    constexpr std::size_t W = sv::kLanes;
    float* EOD_RESTRICT dp = data.data();
    const float* EOD_RESTRICT tp = temp.data();
    const std::size_t n = lh;
    const std::size_t ns = (n + 1) / 2;
    const std::size_t nd = n / 2;
    const std::size_t last = std::min(end, lw);
    const sv::vfloat half = sv::vbroadcast(0.5f);
    const sv::vfloat quarter = sv::vbroadcast(0.25f);
    for (std::size_t i = 0; i < nd; ++i) {
      const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
      float* out = dp + (ns + i) * stride;
      const float* odd = tp + (2 * i + 1) * stride;
      const float* even = tp + 2 * i * stride;
      const float* next = tp + rr * stride;
      std::size_t c = begin;
      for (; c + W <= last; c += W) {
        sv::vstore(out + c,
                   sv::vload(odd + c) -
                       half * (sv::vload(even + c) + sv::vload(next + c)));
      }
      for (; c < last; ++c) out[c] = odd[c] - 0.5f * (even[c] + next[c]);
    }
    for (std::size_t i = 0; i < ns; ++i) {
      const std::size_t dl = i == 0 ? 0 : i - 1;
      const std::size_t dr = i < nd ? i : nd - 1;
      float* out = dp + i * stride;
      const float* even = tp + 2 * i * stride;
      const float* left = dp + (ns + dl) * stride;
      const float* right = dp + (ns + dr) * stride;
      std::size_t c = begin;
      for (; c + W <= last; c += W) {
        sv::vstore(out + c,
                   sv::vload(even + c) +
                       quarter * (sv::vload(left + c) + sv::vload(right + c)));
      }
      for (; c < last; ++c) out[c] = even[c] + 0.25f * (left[c] + right[c]);
    }
  });

  const double cells = static_cast<double>(lw) * static_cast<double>(lh);
  xcl::WorkloadProfile hprof;
  hprof.flops = cells * 4.0;
  hprof.int_ops = cells * 4.0;
  hprof.bytes_read = cells * 1.5 * sizeof(float);
  hprof.bytes_written = cells * sizeof(float);
  hprof.working_set_bytes =
      static_cast<double>(2 * input_.size()) * sizeof(float);
  hprof.pattern = xcl::AccessPattern::kStreaming;

  xcl::WorkloadProfile vprof = hprof;
  vprof.pattern = xcl::AccessPattern::kStrided;  // column walks

  const std::size_t hwg = std::min<std::size_t>(64, lh);
  queue_->enqueue(horiz, xcl::NDRange((lh + hwg - 1) / hwg * hwg, hwg),
                  hprof);
  const std::size_t vwg = std::min<std::size_t>(64, lw);
  queue_->enqueue(vert, xcl::NDRange((lw + vwg - 1) / vwg * vwg, vwg),
                  vprof);
}

void Dwt::run() {
  queue_->enqueue_write<float>(*data_buf_, input_);
  std::size_t lw = extent_.width;
  std::size_t lh = extent_.height;
  for (unsigned level = 0; level < levels_ && lw >= 2 && lh >= 2; ++level) {
    enqueue_level(lw, lh);
    lw = (lw + 1) / 2;
    lh = (lh + 1) / 2;
  }
}

void Dwt::finish() {
  queue_->enqueue_read<float>(*data_buf_, std::span(output_));
}

void Dwt::stream_trace(sim::TraceWriter& out) const {
  // The lifting passes in kernel order: horizontal rows (streaming reads,
  // deinterleaved writes into temp), then vertical column walks.
  const std::size_t stride = extent_.width;
  const std::uint64_t data_base = 0x10000;
  const std::uint64_t temp_base =
      data_base + input_.size() * sizeof(float);
  std::size_t lw = extent_.width;
  std::size_t lh = extent_.height;
  for (unsigned level = 0; level < levels_ && lw >= 2 && lh >= 2;
       ++level) {
    for (std::size_t r = 0; r < lh; ++r) {
      for (std::size_t cidx = 0; cidx < lw; ++cidx) {
        out.emit(data_base + (r * stride + cidx) * 4, 4, false);
        out.emit(temp_base + (r * stride + cidx) * 4, 4, true);
      }
    }
    for (std::size_t cidx = 0; cidx < lw; ++cidx) {
      for (std::size_t r = 0; r < lh; ++r) {
        out.emit(temp_base + (r * stride + cidx) * 4, 4, false);
        out.emit(data_base + (r * stride + cidx) * 4, 4, true);
      }
    }
    lw = (lw + 1) / 2;
    lh = (lh + 1) / 2;
  }
}

std::size_t Dwt::trace_size_hint() const {
  std::size_t total = 0;
  std::size_t lw = extent_.width;
  std::size_t lh = extent_.height;
  for (unsigned level = 0; level < levels_ && lw >= 2 && lh >= 2;
       ++level) {
    total += 4 * lw * lh;
    lw = (lw + 1) / 2;
    lh = (lh + 1) / 2;
  }
  return total;
}

void Dwt::reference_dwt53(std::span<double> data, std::size_t width,
                          std::size_t height, unsigned levels) {
  // Every pass is row-major and parallel over rows: the vertical lifting
  // steps walk i outermost with the columns streaming inside, and each
  // sub-pass only reads rows the one before it wrote, so every coefficient
  // sees the same operands in the same order as a column-at-a-time walk.
  // The vertical steps are element-wise along a row, so columns ride in
  // double lanes.
  namespace sv = xcl::simd;
  constexpr std::size_t W = sv::kDoubleLanes;
  xcl::ThreadPool& pool = xcl::ThreadPool::global();
  HostVector<double> temp(data.size());
  std::size_t lw = width;
  std::size_t lh = height;
  for (unsigned level = 0; level < levels && lw >= 2 && lh >= 2; ++level) {
    // Horizontal: data -> temp, one row per iteration.
    pool.parallel_for(lh, [&](std::size_t r) {
      const double* in = &data[r * width];
      double* out = &temp[r * width];
      const std::size_t n = lw;
      const std::size_t ns = (n + 1) / 2;
      const std::size_t nd = n / 2;
      for (std::size_t i = 0; i < nd; ++i) {
        const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
        out[ns + i] = in[2 * i + 1] - 0.5 * (in[2 * i] + in[rr]);
      }
      for (std::size_t i = 0; i < ns; ++i) {
        const std::size_t dl = i == 0 ? 0 : i - 1;
        const std::size_t dr = i < nd ? i : nd - 1;
        out[i] = in[2 * i] + 0.25 * (out[ns + dl] + out[ns + dr]);
      }
    });
    // Vertical: temp -> data.  Predict writes the detail rows [ns, lh),
    // then update writes the smooth rows [0, ns) from them.
    const std::size_t n = lh;
    const std::size_t ns = (n + 1) / 2;
    const std::size_t nd = n / 2;
    pool.parallel_for(nd, [&](std::size_t i) {
      const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
      double* out = &data[(ns + i) * width];
      const double* odd = &temp[(2 * i + 1) * width];
      const double* even = &temp[2 * i * width];
      const double* next = &temp[rr * width];
      std::size_t c = 0;
      for (; c + W <= lw; c += W) {
        sv::vstore_f64(out + c, sv::vload_f64(odd + c) -
                                    sv::vbroadcast_f64(0.5) *
                                        (sv::vload_f64(even + c) +
                                         sv::vload_f64(next + c)));
      }
      for (; c < lw; ++c) out[c] = odd[c] - 0.5 * (even[c] + next[c]);
    });
    pool.parallel_for(ns, [&](std::size_t i) {
      const std::size_t dl = i == 0 ? 0 : i - 1;
      const std::size_t dr = i < nd ? i : nd - 1;
      double* out = &data[i * width];
      const double* even = &temp[2 * i * width];
      const double* left = &data[(ns + dl) * width];
      const double* right = &data[(ns + dr) * width];
      std::size_t c = 0;
      for (; c + W <= lw; c += W) {
        sv::vstore_f64(out + c, sv::vload_f64(even + c) +
                                    sv::vbroadcast_f64(0.25) *
                                        (sv::vload_f64(left + c) +
                                         sv::vload_f64(right + c)));
      }
      for (; c < lw; ++c) out[c] = even[c] + 0.25 * (left[c] + right[c]);
    });
    lw = (lw + 1) / 2;
    lh = (lh + 1) / 2;
  }
}

void Dwt::reference_idwt53(std::span<double> data, std::size_t width,
                           std::size_t height, unsigned levels) {
  // Collect the level extents, then invert from the deepest level out.
  std::vector<std::pair<std::size_t, std::size_t>> exts;
  std::size_t lw = width;
  std::size_t lh = height;
  for (unsigned level = 0; level < levels && lw >= 2 && lh >= 2; ++level) {
    exts.emplace_back(lw, lh);
    lw = (lw + 1) / 2;
    lh = (lh + 1) / 2;
  }
  HostVector<double> temp(data.size());
  for (auto it = exts.rbegin(); it != exts.rend(); ++it) {
    const auto [w, h] = *it;
    // Inverse vertical: data -> temp (interleaved rows).
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t n = h;
      const std::size_t ns = (n + 1) / 2;
      const std::size_t nd = n / 2;
      // Undo update.
      std::vector<double> x(n);
      for (std::size_t i = 0; i < ns; ++i) {
        const std::size_t dl = i == 0 ? 0 : i - 1;
        const std::size_t dr = i < nd ? i : nd - 1;
        x[2 * i] = data[i * width + c] -
                   0.25 * (data[(ns + dl) * width + c] +
                           data[(ns + dr) * width + c]);
      }
      // Undo predict (x[rr] is an even sample recovered just above).
      for (std::size_t i = 0; i < nd; ++i) {
        const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
        x[2 * i + 1] = data[(ns + i) * width + c] +
                       0.5 * (x[2 * i] + x[rr]);
      }
      for (std::size_t i = 0; i < n; ++i) temp[i * width + c] = x[i];
    }
    // Inverse horizontal: temp -> data.
    for (std::size_t r = 0; r < h; ++r) {
      const double* in = &temp[r * width];
      double* out = &data[r * width];
      const std::size_t n = w;
      const std::size_t ns = (n + 1) / 2;
      const std::size_t nd = n / 2;
      std::vector<double> x(n);
      for (std::size_t i = 0; i < ns; ++i) {
        const std::size_t dl = i == 0 ? 0 : i - 1;
        const std::size_t dr = i < nd ? i : nd - 1;
        x[2 * i] = in[i] - 0.25 * (in[ns + dl] + in[ns + dr]);
      }
      for (std::size_t i = 0; i < nd; ++i) {
        const std::size_t rr = (2 * i + 2 <= n - 1) ? 2 * i + 2 : n - 2;
        x[2 * i + 1] = in[ns + i] + 0.5 * (x[2 * i] + x[rr]);
      }
      for (std::size_t i = 0; i < n; ++i) out[i] = x[i];
    }
  }
}

Validation Dwt::validate() {
  // The float <-> double staging copies are element-wise and run on the
  // pool by rows.
  xcl::ThreadPool& pool = xcl::ThreadPool::global();
  const std::size_t width = extent_.width;
  const std::span<const float> in = input();
  HostVector<double> ref(in.size());
  pool.parallel_for(extent_.height, [&](std::size_t r) {
    for (std::size_t c = r * width; c < (r + 1) * width; ++c) {
      ref[c] = in[c];
    }
  });
  reference_dwt53(ref, width, extent_.height, levels_);
  HostVector<float> want(ref.size());
  pool.parallel_for(extent_.height, [&](std::size_t r) {
    for (std::size_t c = r * width; c < (r + 1) * width; ++c) {
      want[c] = static_cast<float>(ref[c]);
    }
  });
  return validate_norm(output_, want, 1e-4, "dwt CDF 5/3 coefficients");
}

void Dwt::unbind() {
  temp_buf_.reset();
  data_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
