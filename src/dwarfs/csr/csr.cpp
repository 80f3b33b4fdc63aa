#include "dwarfs/csr/csr.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "xcl/host_memory.hpp"
#include "xcl/kernel.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

CsrMatrix create_csr(std::size_t n, double density, std::uint64_t seed) {
  CsrMatrix m;
  m.n = n;
  const auto per_row = std::max<std::size_t>(
      1, static_cast<std::size_t>(density * static_cast<double>(n)));
  m.row_ptr = HostVector<std::uint32_t>(n + 1);
  m.cols = HostVector<std::uint32_t>(n * per_row);
  m.vals = HostVector<float>(n * per_row);
  // Draw order, row by row: distinct columns by rejection, then one value
  // per column in ascending column order.  The column draws stay serial (a
  // row's draw count depends on its duplicates); a per-column stamp of the
  // last row that drew it makes the duplicate test O(1).  Each row records
  // where its value draws start, so ordering and values run on the pool.
  // The draws are the first writes to m.cols, so its pages are faulted in
  // on the pool first, one task per huge page: the serial loop then takes
  // none of those faults.
  constexpr std::size_t kPageCols = 4096 / sizeof(std::uint32_t);
  constexpr std::size_t kHugePageCols =
      xcl::kHugePageBytes / sizeof(std::uint32_t);
  xcl::ThreadPool::global().parallel_for(
      (m.cols.size() + kHugePageCols - 1) / kHugePageCols,
      [&](std::size_t h) {
        const std::size_t end =
            std::min(m.cols.size(), (h + 1) * kHugePageCols);
        for (std::size_t i = h * kHugePageCols; i < end; i += kPageCols) {
          m.cols[i] = 0;
        }
      });
  std::vector<std::size_t> drawn_by(n, 0);  // row + 1 of the last draw
  std::vector<std::uint64_t> value_draw(n);
  std::uint64_t draws = 0;
  for (std::size_t r = 0; r < n; ++r) {
    SplitMix64 rng = SplitMix64::at(seed, draws);
    std::uint32_t* row = &m.cols[r * per_row];
    for (std::size_t have = 0; have < per_row; ++draws) {
      const auto c = static_cast<std::uint32_t>(rng.below(n));
      if (drawn_by[c] != r + 1) {
        drawn_by[c] = r + 1;
        row[have++] = c;
      }
    }
    value_draw[r] = draws;
    draws += per_row;
    m.row_ptr[r + 1] = static_cast<std::uint32_t>((r + 1) * per_row);
  }
  // A row's columns are distinct and below n, so they need no comparison
  // sort: each task marks a row's columns in its n-bit map, and each
  // nonzero map word in a summary bit, then reads the columns back in
  // ascending order (clearing both for the next row) and draws the values
  // in the same pass.  The maps are allocated here, not by workers.
  const std::size_t words = (n + 63) / 64;
  const std::size_t summary_words = (words + 63) / 64;
  const std::size_t tasks = pool_tasks(n);
  std::vector<std::uint64_t> maps(tasks * (words + summary_words), 0);
  xcl::ThreadPool::global().parallel_for(tasks, [&](std::size_t t) {
    std::uint64_t* map = &maps[t * (words + summary_words)];
    std::uint64_t* summary = map + words;
    for (std::size_t r = t * n / tasks; r < (t + 1) * n / tasks; ++r) {
      std::uint32_t* row = &m.cols[r * per_row];
      for (std::size_t k = 0; k < per_row; ++k) {
        const std::size_t w = row[k] / 64;
        map[w] |= std::uint64_t{1} << (row[k] % 64);
        summary[w / 64] |= std::uint64_t{1} << (w % 64);
      }
      SplitMix64 rng = SplitMix64::at(seed, value_draw[r]);
      float* vals = &m.vals[r * per_row];
      for (std::size_t s = 0; s < summary_words; ++s) {
        for (std::uint64_t used = std::exchange(summary[s], 0); used != 0;
             used &= used - 1) {
          const std::size_t w = 64 * s + std::countr_zero(used);
          for (std::uint64_t bits = std::exchange(map[w], 0); bits != 0;
               bits &= bits - 1) {
            *row++ = static_cast<std::uint32_t>(64 * w +
                                                std::countr_zero(bits));
            *vals++ = rng.uniform(-1.0f, 1.0f);
          }
        }
      }
    }
  });
  return m;
}

std::size_t Csr::dim_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return 736;
    case ProblemSize::kSmall:
      return 2416;
    case ProblemSize::kMedium:
      return 14336;
    case ProblemSize::kLarge:
      return 16384;
  }
  return 0;
}

std::size_t Csr::footprint_bytes(ProblemSize s) const {
  const std::size_t n = dim_for(s);
  const auto per_row = std::max<std::size_t>(
      1, static_cast<std::size_t>(kDensity * static_cast<double>(n)));
  const std::size_t nnz = n * per_row;
  return nnz * (sizeof(float) + sizeof(std::uint32_t)) +
         (n + 1) * sizeof(std::uint32_t) + 2 * n * sizeof(float);
}

void Csr::setup(ProblemSize size) { configure(dim_for(size), kDensity); }

void Csr::configure_with_matrix(CsrMatrix matrix) {
  require(matrix.n > 0, xcl::Status::kInvalidValue, "empty CSR matrix");
  m_ = std::move(matrix);
  x_ = HostVector<float>(m_.n);
  generate_indexed(x_.size(), 0x637372aaull, 1,
                   [&](SplitMix64& rng, std::size_t i) {
                     x_[i] = rng.uniform(-1.0f, 1.0f);
                   });
  y_ = HostVector<float>(m_.n);
}

void Csr::configure(std::size_t n, double density) {
  // density > 1 asks for more distinct columns per row than exist.
  if (n == 0 || !(density >= 0.0 && density <= 1.0)) {
    throw std::invalid_argument(
        "csr: needs n >= 1 and 0 <= density <= 1; got n=" + std::to_string(n) +
        " density=" + std::to_string(density));
  }
  configure_with_matrix(create_csr(n, density, 0x637372ull));  // "csr"
}

void Csr::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  rowptr_buf_.emplace(ctx, m_.row_ptr.size() * sizeof(std::uint32_t));
  cols_buf_.emplace(ctx, m_.cols.size() * sizeof(std::uint32_t));
  vals_buf_.emplace(ctx, m_.vals.size() * sizeof(float));
  x_buf_.emplace(ctx, x_.size() * sizeof(float));
  y_buf_.emplace(ctx, y_.size() * sizeof(float));
  q.enqueue_write<std::uint32_t>(*rowptr_buf_, m_.row_ptr);
  q.enqueue_write<std::uint32_t>(*cols_buf_, m_.cols);
  q.enqueue_write<float>(*vals_buf_, m_.vals);
  q.enqueue_write<float>(*x_buf_, x_);
}

void Csr::run() {
  const std::size_t n = m_.n;
  auto row_ptr = rowptr_buf_->access<const std::uint32_t>("row_ptr");
  auto cols = cols_buf_->access<const std::uint32_t>("cols");
  auto vals = vals_buf_->access<const float>("vals");
  auto x = x_buf_->access<const float>("x");
  auto y = y_buf_->access<float>("y");

  xcl::Kernel spmv("csr_spmv", [=](xcl::WorkItem& it) {
    const std::size_t r = it.global_id(0);
    if (r >= n) return;
    float acc = 0.0f;
    for (std::uint32_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      acc += vals[k] * x[cols[k]];
    }
    y[r] = acc;
  });

  // Span tier: one call per group of rows; restrict pointers let the
  // compiler keep row_ptr/vals/cols loads out of each other's way (the
  // x gather itself stays serial, as on real hardware).
  spmv.span([=](std::size_t begin, std::size_t end) {
    const std::uint32_t* EOD_RESTRICT rp = row_ptr.data();
    const std::uint32_t* EOD_RESTRICT ci = cols.data();
    const float* EOD_RESTRICT va = vals.data();
    const float* EOD_RESTRICT xv = x.data();
    float* EOD_RESTRICT yv = y.data();
    for (std::size_t r = begin, last = std::min(end, n); r < last; ++r) {
      float acc = 0.0f;
      for (std::uint32_t k = rp[r]; k < rp[r + 1]; ++k) {
        acc += va[k] * xv[ci[k]];
      }
      yv[r] = acc;
    }
  });

  const double nnz = static_cast<double>(m_.nnz());
  xcl::WorkloadProfile prof;
  prof.flops = 2.0 * nnz;
  prof.int_ops = 3.0 * nnz;
  prof.bytes_read = nnz * (sizeof(float) + sizeof(std::uint32_t) +
                           sizeof(float)) +  // vals, cols, gathered x
                    static_cast<double>(n + 1) * sizeof(std::uint32_t);
  prof.bytes_written = static_cast<double>(n) * sizeof(float);
  prof.working_set_bytes = static_cast<double>(
      m_.bytes() + 2 * n * sizeof(float));
  prof.pattern = xcl::AccessPattern::kGather;
  // Row lengths vary around the mean: mild divergence within a SIMD group.
  prof.branch_divergence = 0.1;
  const std::size_t wg = 64;
  queue_->enqueue(spmv, xcl::NDRange((n + wg - 1) / wg * wg, wg), prof);
}

void Csr::finish() {
  queue_->enqueue_read<float>(*y_buf_, std::span(y_));
}

Validation Csr::validate() {
  HostVector<float> want(m_.n);
  for (std::size_t r = 0; r < m_.n; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = m_.row_ptr[r]; k < m_.row_ptr[r + 1]; ++k) {
      acc += static_cast<double>(m_.vals[k]) * x_[m_.cols[k]];
    }
    want[r] = static_cast<float>(acc);
  }
  return validate_norm(y_, want, 1e-5, "csr SpMV");
}

void Csr::unbind() {
  y_buf_.reset();
  x_buf_.reset();
  vals_buf_.reset();
  cols_buf_.reset();
  rowptr_buf_.reset();
  queue_ = nullptr;
}

void Csr::stream_trace(sim::TraceWriter& out) const {
  const std::uint64_t rp_base = 0x10000;
  const std::uint64_t cols_base = rp_base + m_.row_ptr.size() * 4;
  const std::uint64_t vals_base = cols_base + m_.cols.size() * 4;
  const std::uint64_t x_base = vals_base + m_.vals.size() * 4;
  const std::uint64_t y_base = x_base + x_.size() * 4;
  for (std::size_t r = 0; r < m_.n; ++r) {
    out.emit(rp_base + r * 4, 8, false);
    for (std::uint32_t k = m_.row_ptr[r]; k < m_.row_ptr[r + 1]; ++k) {
      out.emit(cols_base + k * 4ull, 4, false);
      out.emit(vals_base + k * 4ull, 4, false);
      out.emit(x_base + m_.cols[k] * 4ull, 4, false);
    }
    out.emit(y_base + r * 4, 4, true);
  }
}

std::size_t Csr::trace_size_hint() const {
  return 2 * m_.n + 3 * m_.cols.size();
}

}  // namespace eod::dwarfs
