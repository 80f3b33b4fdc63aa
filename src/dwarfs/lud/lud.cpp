#include "dwarfs/lud/lud.hpp"

#include <algorithm>
#include <cmath>

#include "xcl/kernel.hpp"
#include "xcl/simd.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

namespace {
constexpr std::size_t B = Lud::kBlock;
}  // namespace

std::size_t Lud::dim_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return 80;
    case ProblemSize::kSmall:
      return 240;
    case ProblemSize::kMedium:
      return 1440;
    case ProblemSize::kLarge:
      return 4096;
  }
  return 0;
}

void Lud::setup(ProblemSize size) { configure(dim_for(size)); }

void Lud::configure(std::size_t n) {
  require(n >= B && n % B == 0, xcl::Status::kInvalidValue,
          "lud dimension must be a positive multiple of 16");
  const std::size_t elements = checked_elements(n, n, sizeof(float),
                                                "lud: n x n");
  n_ = n;
  input_ = HostVector<float>(elements);
  result_ = HostVector<float>(elements);
  input_fill_.reset();
}

void Lud::fill_input() const {
  input_fill_.ensure([&] {
    generate_indexed(input_.size(), 0x6c7564ull /* "lud" */, 1,
                     [&](SplitMix64& rng, std::size_t i) {
                       input_[i] = rng.uniform(0.0f, 1.0f);
                     });
    // Diagonal dominance keeps the pivot-free factorization stable.
    for (std::size_t i = 0; i < n_; ++i) {
      input_[i * n_ + i] += static_cast<float>(n_);
    }
  });
}

void Lud::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  matrix_buf_.emplace(ctx, input_.size() * sizeof(float));
  if (q.functional()) fill_input();  // run() uploads it
}

xcl::Kernel Lud::make_diagonal_kernel(xcl::Buffer& matrix, std::size_t n,
                                      std::size_t k) {
  auto a = matrix.access<float>("matrix");
  const std::size_t base = k * B * n + k * B;

  xcl::Kernel diag("lud_diagonal", [=](xcl::WorkItem& it) {
    const std::size_t j = it.local_id(0);
    for (std::size_t i = 0; i + 1 < B; ++i) {
      it.barrier();
      if (j > i) {
        const float pivot = a[base + i * n + i];
        const float lji = a[base + j * n + i] / pivot;
        a[base + j * n + i] = lji;
        for (std::size_t l = i + 1; l < B; ++l) {
          a[base + j * n + l] -= lji * a[base + i * n + l];
        }
      }
      it.barrier();
    }
  });
  diag.uses_barriers();

  // Span tier (DESIGN.md §9): the sequential unblocked elimination.  The
  // barriers only ordered the i iterations; within one i the rows j > i
  // never read each other, so the j-then-l loops replay each element's
  // exact operation sequence and the factor is bit-identical.
  diag.span([=](std::size_t, std::size_t) {
    float* EOD_RESTRICT p = a.data();
    for (std::size_t i = 0; i + 1 < B; ++i) {
      const float pivot = p[base + i * n + i];
      for (std::size_t j = i + 1; j < B; ++j) {
        const float lji = p[base + j * n + i] / pivot;
        p[base + j * n + i] = lji;
        for (std::size_t l = i + 1; l < B; ++l) {
          p[base + j * n + l] -= lji * p[base + i * n + l];
        }
      }
    }
  });
  return diag;
}

xcl::Kernel Lud::make_perimeter_row_kernel(xcl::Buffer& matrix, std::size_t n,
                                           std::size_t k) {
  auto a = matrix.access<float>("matrix");
  const std::size_t diag_base = k * B * n + k * B;

  // Row blocks (k, m): U := L_kk^-1 A.  One work-item owns one column of
  // its block; the in-column dependency is carried inside the item, so no
  // barrier is required.
  xcl::Kernel row("lud_perimeter_row", [=](xcl::WorkItem& it) {
    const std::size_t m = k + 1 + it.group_id(0);
    const std::size_t c = it.local_id(0);
    const std::size_t blk = k * B * n + m * B;
    for (std::size_t i = 1; i < B; ++i) {
      float acc = a[blk + i * n + c];
      for (std::size_t t = 0; t < i; ++t) {
        acc -= a[diag_base + i * n + t] * a[blk + t * n + c];
      }
      a[blk + i * n + c] = acc;
    }
  });

  // Span tier: same triangular solve with the row loop outermost and the
  // B independent columns in lanes; each element still subtracts its t
  // terms in ascending order, so the panel is bit-identical.
  row.span([=](std::size_t begin, std::size_t /*end*/) {
    namespace sv = xcl::simd;
    constexpr std::size_t V = B / sv::kLanes;
    const std::size_t m = k + 1 + begin / B;
    const std::size_t blk = k * B * n + m * B;
    float* EOD_RESTRICT p = a.data();
    for (std::size_t i = 1; i < B; ++i) {
      float* out = p + blk + i * n;
      sv::vfloat acc[V];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < V; ++v) {
        acc[v] = sv::vload(out + v * sv::kLanes);
      }
      for (std::size_t t = 0; t < i; ++t) {
        const sv::vfloat l = sv::vbroadcast(p[diag_base + i * n + t]);
        const float* u = p + blk + t * n;
#pragma GCC unroll 16
        for (std::size_t v = 0; v < V; ++v) {
          acc[v] = acc[v] - l * sv::vload(u + v * sv::kLanes);
        }
      }
#pragma GCC unroll 16
      for (std::size_t v = 0; v < V; ++v) {
        sv::vstore(out + v * sv::kLanes, acc[v]);
      }
    }
  });
  return row;
}

xcl::Kernel Lud::make_perimeter_col_kernel(xcl::Buffer& matrix, std::size_t n,
                                           std::size_t k, std::size_t m_lo) {
  auto a = matrix.access<float>("matrix");
  const std::size_t diag_base = k * B * n + k * B;

  // Column blocks (m, k): L := A U_kk^-1.  One work-item owns one row.
  xcl::Kernel col("lud_perimeter_col", [=](xcl::WorkItem& it) {
    const std::size_t m = m_lo + it.group_id(0);
    const std::size_t r = it.local_id(0);
    const std::size_t blk = m * B * n + k * B;
    for (std::size_t j = 0; j < B; ++j) {
      float acc = a[blk + r * n + j];
      for (std::size_t t = 0; t < j; ++t) {
        acc -= a[blk + r * n + t] * a[diag_base + t * n + j];
      }
      a[blk + r * n + j] = acc / a[diag_base + j * n + j];
    }
  });

  // Span tier: rows of the block are independent; replaying each row's
  // j loop in item order keeps the solve bit-identical.
  col.span([=](std::size_t begin, std::size_t /*end*/) {
    const std::size_t m = m_lo + begin / B;
    const std::size_t blk = m * B * n + k * B;
    float* EOD_RESTRICT p = a.data();
    for (std::size_t r = 0; r < B; ++r) {
      for (std::size_t j = 0; j < B; ++j) {
        float acc = p[blk + r * n + j];
        for (std::size_t t = 0; t < j; ++t) {
          acc -= p[blk + r * n + t] * p[diag_base + t * n + j];
        }
        p[blk + r * n + j] = acc / p[diag_base + j * n + j];
      }
    }
  });
  return col;
}

xcl::Kernel Lud::make_internal_kernel(xcl::Buffer& matrix, std::size_t n,
                                      std::size_t k, std::size_t bi_lo) {
  auto a = matrix.access<float>("matrix");
  const std::size_t rem = n / B - k - 1;  // trailing block columns

  // Tiled GEMM update A_ij -= L_ik * U_kj staged through __local memory.
  // The (bi, bj) block grid is flattened bi-major onto a 1-D range of
  // B*B-item groups so the span tier below is reachable (span bodies only
  // dispatch for 1-D ranges); the work-item set and its math are the same
  // as the historical 2-D launch.
  xcl::Kernel internal("lud_internal", [=](xcl::WorkItem& it) {
    const std::size_t g = it.group_id(0);
    const std::size_t bi = bi_lo + g / rem;
    const std::size_t bj = k + 1 + g % rem;
    const std::size_t r = it.local_id(0) / B;
    const std::size_t c = it.local_id(0) % B;
    auto l_tile = it.local<float>(0, B * B);
    auto u_tile = it.local<float>(1, B * B);
    l_tile[r * B + c] = a[(bi * B + r) * n + k * B + c];
    u_tile[r * B + c] = a[(k * B + r) * n + bj * B + c];
    it.barrier();
    float acc = 0.0f;
    for (std::size_t t = 0; t < B; ++t) {
      acc += l_tile[r * B + t] * u_tile[t * B + c];
    }
    it.barrier();
    a[(bi * B + r) * n + bj * B + c] -= acc;
  });
  internal.uses_barriers();

  // Span tier: one call per block.  The __local tiles were pure copies, so
  // reading the panels in place accumulates the same products in the same
  // t order per element -- bit-identical.  kRows rows of B columns step
  // together with their accumulators in lane registers, so each U row
  // piece is loaded once per kRows rows and no partial sum touches memory.
  internal.span([=](std::size_t begin, std::size_t /*end*/) {
    namespace sv = xcl::simd;
    constexpr std::size_t V = B / sv::kLanes;
    // Enough rows to reuse each U load, few enough that kRows * V
    // accumulators plus V U pieces fit the register file.
    constexpr std::size_t kRows = std::max<std::size_t>(2, 8 / V);
    static_assert(B % sv::kLanes == 0 && B % kRows == 0,
                  "lanes and row steps must divide the block");
    const std::size_t g = begin / (B * B);
    const std::size_t bi = bi_lo + g / rem;
    const std::size_t bj = k + 1 + g % rem;
    float* EOD_RESTRICT p = a.data();
    const float* l_blk = p + bi * B * n + k * B;
    const float* u_blk = p + k * B * n + bj * B;
    float* out_blk = p + bi * B * n + bj * B;
    for (std::size_t r0 = 0; r0 < B; r0 += kRows) {
      sv::vfloat acc[kRows][V] = {};
      for (std::size_t t = 0; t < B; ++t) {
        sv::vfloat u[V];
#pragma GCC unroll 16
        for (std::size_t v = 0; v < V; ++v) {
          u[v] = sv::vload(u_blk + t * n + v * sv::kLanes);
        }
#pragma GCC unroll 16
        for (std::size_t r = 0; r < kRows; ++r) {
          const sv::vfloat l = sv::vbroadcast(l_blk[(r0 + r) * n + t]);
#pragma GCC unroll 16
          for (std::size_t v = 0; v < V; ++v) acc[r][v] += l * u[v];
        }
      }
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kRows; ++r) {
        float* out = out_blk + (r0 + r) * n;
#pragma GCC unroll 16
        for (std::size_t v = 0; v < V; ++v) {
          const std::size_t c = v * sv::kLanes;
          sv::vstore(out + c, sv::vload(out + c) - acc[r][v]);
        }
      }
    }
  });
  return internal;
}

xcl::WorkloadProfile Lud::diagonal_profile(std::size_t n) {
  xcl::WorkloadProfile prof;
  prof.flops = 2.0 / 3.0 * B * B * B;
  prof.int_ops = static_cast<double>(B) * B * 2;
  prof.bytes_read = static_cast<double>(B) * B * sizeof(float) * 2;
  prof.bytes_written = static_cast<double>(B) * B * sizeof(float);
  prof.working_set_bytes = static_cast<double>(n) * n * sizeof(float);
  prof.pattern = xcl::AccessPattern::kTiled;
  return prof;
}

xcl::WorkloadProfile Lud::perimeter_profile(std::size_t n,
                                            std::size_t blocks) {
  xcl::WorkloadProfile prof;
  prof.flops = static_cast<double>(blocks) * B * B * B;
  prof.int_ops = static_cast<double>(blocks) * B * B * 2;
  prof.bytes_read = static_cast<double>(blocks) * 2 * B * B * sizeof(float);
  prof.bytes_written = static_cast<double>(blocks) * B * B * sizeof(float);
  prof.working_set_bytes = static_cast<double>(n) * n * sizeof(float);
  prof.pattern = xcl::AccessPattern::kTiled;
  return prof;
}

xcl::WorkloadProfile Lud::internal_profile(std::size_t n,
                                           std::size_t bi_blocks,
                                           std::size_t bj_blocks) {
  const double blocks = static_cast<double>(bi_blocks) * bj_blocks;
  xcl::WorkloadProfile prof;
  prof.flops = blocks * 2.0 * B * B * B;
  prof.int_ops = blocks * B * B * 3;
  prof.bytes_read = blocks * 3 * B * B * sizeof(float);
  prof.bytes_written = blocks * B * B * sizeof(float);
  prof.working_set_bytes = static_cast<double>(n) * n * sizeof(float);
  prof.pattern = xcl::AccessPattern::kTiled;
  return prof;
}

void Lud::enqueue_diagonal(std::size_t k) {
  queue_->enqueue(make_diagonal_kernel(*matrix_buf_, n_, k),
                  xcl::NDRange(B, B), diagonal_profile(n_));
}

void Lud::enqueue_perimeter(std::size_t k) {
  const std::size_t nb = n_ / B;
  const std::size_t rem = nb - k - 1;
  if (rem == 0) return;
  const xcl::WorkloadProfile prof = perimeter_profile(n_, rem);
  queue_->enqueue(make_perimeter_row_kernel(*matrix_buf_, n_, k),
                  xcl::NDRange(rem * B, B), prof);
  queue_->enqueue(make_perimeter_col_kernel(*matrix_buf_, n_, k, k + 1),
                  xcl::NDRange(rem * B, B), prof);
}

void Lud::enqueue_internal(std::size_t k) {
  const std::size_t nb = n_ / B;
  const std::size_t rem = nb - k - 1;
  if (rem == 0) return;
  queue_->enqueue(make_internal_kernel(*matrix_buf_, n_, k, k + 1),
                  xcl::NDRange(rem * rem * B * B, B * B),
                  internal_profile(n_, rem, rem));
}

void Lud::run() {
  // The factorization is destructive, so each application iteration
  // re-uploads the input (a memory-transfer segment, as in OpenDwarfs).
  queue_->enqueue_write<float>(*matrix_buf_, input_);
  const std::size_t nb = n_ / B;
  for (std::size_t k = 0; k < nb; ++k) {
    enqueue_diagonal(k);
    enqueue_perimeter(k);
    enqueue_internal(k);
  }
}

void Lud::finish() {
  queue_->enqueue_read<float>(*matrix_buf_, std::span(result_));
}

Validation Lud::validate() {
  // Reconstruct L*U from the packed factor and compare with the original
  // matrix (norm comparison, §4.4.2).  Every (i, j) sums t = 0 .. min(i, j)
  // ascending in its own double accumulator, as the serial i-t-j loop does.
  // The pool runs panels of kPanel rows.  A panel walks groups of kGroup
  // columns: the group's U strip is first copied to a contiguous buffer
  // (a power-of-two n would otherwise map every strided strip row to the
  // same cache sets), then each kCols tile of the group is computed for
  // the panel's blocks of kRows rows in turn, columns in double lanes and
  // accumulators in registers.  Each tile element takes the terms
  // t < min(i0, j0) there (i0 is its block's first row), every U row
  // piece widened once for the block, then finishes its own terms up to
  // t = min(i, j) one at a time.
  namespace sv = xcl::simd;
  constexpr std::size_t W = sv::kDoubleLanes;
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kPanel = 16;
  constexpr std::size_t kGroup = 16;  // one 64-byte line of floats
  constexpr std::size_t kVecs = 2;
  constexpr std::size_t kCols = kVecs * W;
  static_assert(B % kPanel == 0 && kPanel % kRows == 0 && B % kGroup == 0 &&
                    kGroup % kCols == 0,
                "tiles must divide n");
  const std::size_t n = n_;
  const float* f = result_.data();
  const auto finish_sum = [&](std::size_t i, std::size_t j, std::size_t t,
                              double acc) {
    for (; t <= std::min(i, j); ++t) {
      // L's unit diagonal is implicit in the packed factor.
      const double l = t == i ? 1.0 : f[i * n + t];
      acc += l * f[t * n + j];
    }
    return static_cast<float>(acc);
  };
  HostVector<float> recon(n * n);
  xcl::ThreadPool::global().parallel_for(n / kPanel, [&](std::size_t panel) {
    const std::size_t p0 = panel * kPanel;
    // Blocks of this panel take their shared terms for t < t_end only.
    const std::size_t t_end = p0 + kPanel - kRows;
    // l(p0 + r, t), widened and splatted once.
    std::vector<sv::vdouble> l_splat(t_end * kPanel);
    for (std::size_t t = 0; t < t_end; ++t) {
      for (std::size_t r = 0; r < kPanel; ++r) {
        l_splat[t * kPanel + r] = sv::vbroadcast_f64(f[(p0 + r) * n + t]);
      }
    }
    std::vector<float> strip(t_end * kGroup);
    for (std::size_t g0 = 0; g0 < n; g0 += kGroup) {
      const std::size_t rows = std::min(t_end, g0 + kGroup);
      for (std::size_t t = 0; t < rows; ++t) {
        std::copy_n(f + t * n + g0, kGroup, &strip[t * kGroup]);
      }
      for (std::size_t j0 = g0; j0 < g0 + kGroup; j0 += kCols) {
        for (std::size_t i0 = p0; i0 < p0 + kPanel; i0 += kRows) {
          // The unrolled loops keep acc in registers.
          sv::vdouble acc[kRows][kVecs] = {};
          const std::size_t shared = std::min(i0, j0);
          const sv::vdouble* l_block = l_splat.data() + (i0 - p0);
          const float* u_tile = strip.data() + (j0 - g0);
          for (std::size_t t = 0; t < shared; ++t) {
            sv::vdouble u[kVecs];
#pragma GCC unroll 8
            for (std::size_t v = 0; v < kVecs; ++v) {
              u[v] = sv::vload_widen(u_tile + t * kGroup + v * W);
            }
#pragma GCC unroll 8
            for (std::size_t r = 0; r < kRows; ++r) {
              const sv::vdouble l = l_block[t * kPanel + r];
#pragma GCC unroll 8
              for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += l * u[v];
            }
          }
          double sums[kRows][kCols];
#pragma GCC unroll 8
          for (std::size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
            for (std::size_t v = 0; v < kVecs; ++v) {
              sv::vstore_f64(&sums[r][v * W], acc[r][v]);
            }
          }
          for (std::size_t r = 0; r < kRows; ++r) {
            for (std::size_t c = 0; c < kCols; ++c) {
              recon[(i0 + r) * n + j0 + c] =
                  finish_sum(i0 + r, j0 + c, shared, sums[r][c]);
            }
          }
        }
      }
    }
  });
  return validate_norm(recon, input(), 1e-4, "lud L*U reconstruction");
}

void Lud::stream_trace(sim::TraceWriter& out) const {
  // Blocked factorization order: per step k, the diagonal block, the
  // perimeter row/column panels, then every interior block re-reading its
  // L/U panels -- the tiled-reuse pattern the kTiled factor models.
  const std::size_t n = n_;
  const std::size_t nb = n / B;
  const std::uint64_t base = 0x10000;
  auto touch_block = [&](std::size_t bi, std::size_t bj, bool write) {
    // Each block row is a dense 4B-stride run of B elements.
    for (std::size_t r = 0; r < B; ++r) {
      out.emit_run(base + ((bi * B + r) * n + bj * B) * 4, 4, B, write);
    }
  };
  for (std::size_t k = 0; k < nb; ++k) {
    touch_block(k, k, true);
    for (std::size_t m = k + 1; m < nb; ++m) {
      touch_block(k, k, false);
      touch_block(k, m, true);  // row panel
      touch_block(m, k, true);  // column panel
    }
    for (std::size_t bi = k + 1; bi < nb; ++bi) {
      for (std::size_t bj = k + 1; bj < nb; ++bj) {
        touch_block(bi, k, false);
        touch_block(k, bj, false);
        touch_block(bi, bj, true);
      }
    }
  }
}

std::size_t Lud::trace_size_hint() const {
  const std::size_t nb = n_ / B;
  std::size_t blocks = 0;
  for (std::size_t k = 0; k < nb; ++k) {
    const std::size_t rest = nb - k - 1;
    blocks += 1 + 3 * rest + 3 * rest * rest;
  }
  return blocks * B * B;
}

void Lud::unbind() {
  matrix_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
