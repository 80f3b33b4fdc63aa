#include "dwarfs/nw/nw.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "xcl/kernel.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

namespace {

constexpr std::size_t B = Nw::kBlock;

// BLOSUM62 substitution matrix (24 residue codes), as shipped with Rodinia.
constexpr std::array<std::array<std::int8_t, 24>, 24> kBlosum62 = {{
    {4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0, -4},
    {-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1, -4},
    {-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1, -4},
    {-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1, -4},
    {0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4},
    {-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1, -4},
    {-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},
    {0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1, -4},
    {-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1, -4},
    {-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1, -4},
    {-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1, -4},
    {-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1, -4},
    {-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1, -4},
    {-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1, -4},
    {-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2, -4},
    {1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0, -4},
    {0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0, -4},
    {-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2, -4},
    {-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1, -4},
    {0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1, -4},
    {-2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1, -4},
    {-1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},
    {0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1, -4},
    {-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, 1},
}};

}  // namespace

std::size_t Nw::length_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return 48;
    case ProblemSize::kSmall:
      return 176;
    case ProblemSize::kMedium:
      return 1008;
    case ProblemSize::kLarge:
      return 4096;
  }
  return 0;
}

void Nw::setup(ProblemSize size) {
  configure(length_for(size), kPenalty);
}

void Nw::configure(std::size_t n, std::int32_t penalty) {
  require(n >= B && n % B == 0, xcl::Status::kInvalidValue,
          "nw length must be a positive multiple of 16");
  require(penalty >= 0, xcl::Status::kInvalidValue,
          "nw penalty must be non-negative");
  const std::size_t cells = checked_elements(
      n + 1, n + 1, sizeof(std::int32_t), "nw: (n+1) x (n+1)");
  n_ = n;
  penalty_ = penalty;
  similarity_ = HostVector<std::int32_t>(cells);
  init_matrix_ = HostVector<std::int32_t>(cells);
  result_ = HostVector<std::int32_t>(cells);
  input_fill_.reset();
}

void Nw::fill_input() const {
  input_fill_.ensure([&] {
    const std::size_t m = n_ + 1;
    SplitMix64 rng(0x6e77ull);  // "nw"
    std::vector<std::uint8_t> seq1(m), seq2(m);
    for (std::size_t i = 1; i < m; ++i) {
      seq1[i] = static_cast<std::uint8_t>(rng.below(23));  // residue codes
      seq2[i] = static_cast<std::uint8_t>(rng.below(23));
    }
    // Fresh storage reads zero, which row 0 and column 0 keep.
    xcl::ThreadPool::global().parallel_for(m - 1, [&](std::size_t r) {
      const std::size_t i = r + 1;
      const auto& row = kBlosum62[seq1[i]];
      for (std::size_t j = 1; j < m; ++j) {
        similarity_[i * m + j] = row[seq2[j]];
      }
    });
    for (std::size_t j = 1; j < m; ++j) {
      init_matrix_[j] = -static_cast<std::int32_t>(j) * penalty_;
    }
    // Column 0 touches one page per row: fault them in row-parallel.
    xcl::ThreadPool::global().parallel_for(m - 1, [&](std::size_t r) {
      const std::size_t i = r + 1;
      init_matrix_[i * m] = -static_cast<std::int32_t>(i) * penalty_;
    });
  });
}

void Nw::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  const std::size_t bytes = init_matrix_.size() * sizeof(std::int32_t);
  score_buf_.emplace(ctx, bytes);
  sim_buf_.emplace(ctx, bytes);
  if (q.functional()) fill_input();  // uploaded here and by run()
  q.enqueue_write<std::int32_t>(*sim_buf_, similarity_);
}

xcl::Kernel Nw::make_block_kernel(xcl::Buffer& score_buf, xcl::Buffer& sim_buf,
                                  std::size_t m, std::int32_t penalty,
                                  std::size_t d, std::size_t lo) {
  auto score = score_buf.access<std::int32_t>("score");
  auto sim = sim_buf.access<const std::int32_t>("similarity");

  xcl::Kernel kernel("nw_block", [=](xcl::WorkItem& it) {
    const std::size_t bi = lo + it.group_id(0);
    const std::size_t bj = d - bi;
    const std::size_t row0 = 1 + bi * B;
    const std::size_t col0 = 1 + bj * B;
    const std::size_t c = it.local_id(0);  // column owned by this item
    // Internal anti-diagonal wavefront: cell (r,c) is ready at step r+c.
    for (std::size_t t = 0; t < 2 * B - 1; ++t) {
      if (t >= c && t - c < B) {
        const std::size_t r = t - c;
        const std::size_t gr = row0 + r;
        const std::size_t gc = col0 + c;
        const std::int32_t diag =
            score[(gr - 1) * m + gc - 1] + sim[gr * m + gc];
        const std::int32_t up = score[(gr - 1) * m + gc] - penalty;
        const std::int32_t left = score[gr * m + gc - 1] - penalty;
        score[gr * m + gc] = std::max({diag, up, left});
      }
      it.barrier();
    }
  });
  kernel.uses_barriers();

  // Span tier for a barrier kernel (DESIGN.md §9): one call computes the
  // whole B x B block row-major.  Row-major order satisfies every
  // diag/up/left dependency the intra-block wavefront's barriers
  // enforced.  Each row first takes max(diag, up) for all B columns (no
  // dependency between them), then carries its left chain in a register;
  // integer max is associative and has no rounding, so the scores are
  // bit-identical to the fiber path.  One group is exactly one block, so
  // begin / B recovers the group index.
  kernel.span([=](std::size_t begin, std::size_t /*end*/) {
    const std::size_t bi = lo + begin / B;
    const std::size_t bj = d - bi;
    const std::size_t row0 = 1 + bi * B;
    const std::size_t col0 = 1 + bj * B;
    std::int32_t* EOD_RESTRICT sc = score.data();
    const std::int32_t* EOD_RESTRICT sm = sim.data();
    for (std::size_t r = 0; r < B; ++r) {
      const std::size_t gr = row0 + r;
      // above[c] is cell (r, c)'s diag neighbour, above[c + 1] its up.
      const std::int32_t* above = sc + (gr - 1) * m + col0 - 1;
      const std::int32_t* subst = sm + gr * m + col0;
      std::int32_t* row = sc + gr * m + col0;
      std::int32_t cand[B];
      for (std::size_t c = 0; c < B; ++c) {
        cand[c] = std::max(above[c] + subst[c], above[c + 1] - penalty);
      }
      std::int32_t left = row[-1];
      for (std::size_t c = 0; c < B; ++c) {
        left = std::max(cand[c], left - penalty);
        row[c] = left;
      }
    }
  });
  return kernel;
}

xcl::WorkloadProfile Nw::block_profile(std::size_t m, std::size_t groups) {
  const double cells = static_cast<double>(groups) * B * B;
  xcl::WorkloadProfile prof;
  prof.int_ops = cells * 10.0;
  prof.bytes_read = cells * 4.0 * sizeof(std::int32_t);
  prof.bytes_written = cells * sizeof(std::int32_t);
  prof.working_set_bytes =
      static_cast<double>(2 * m) * m * sizeof(std::int32_t);
  prof.pattern = xcl::AccessPattern::kTiled;
  return prof;
}

void Nw::enqueue_diagonal(std::size_t d, std::size_t nb) {
  const std::size_t m = n_ + 1;
  // Blocks (bi, bj) with bi + bj == d, both < nb; the cell grid starts at
  // (1,1) so block (bi,bj) covers rows 1+bi*B .. and cols 1+bj*B ..
  const std::size_t lo = d >= nb ? d - nb + 1 : 0;
  const std::size_t hi = std::min(d, nb - 1);
  const std::size_t groups = hi - lo + 1;
  xcl::Kernel kernel =
      make_block_kernel(*score_buf_, *sim_buf_, m, penalty_, d, lo);
  queue_->enqueue(kernel, xcl::NDRange(groups * B, B),
                  block_profile(m, groups));
}

void Nw::run() {
  // The sweep is destructive, so each iteration re-uploads the initialized
  // boundary matrix.
  queue_->enqueue_write<std::int32_t>(*score_buf_, init_matrix_);
  const std::size_t nb = n_ / B;
  for (std::size_t d = 0; d < 2 * nb - 1; ++d) enqueue_diagonal(d, nb);
}

void Nw::finish() {
  queue_->enqueue_read<std::int32_t>(*score_buf_, std::span(result_));
}

Validation Nw::validate() {
  // Row-major sweep over two row buffers; `left` carries each row's chain
  // in a register.  Every cell sees the same diag/up/left operands as in a
  // full-matrix sweep, and is compared as soon as it is known.
  const std::size_t m = n_ + 1;
  fill_input();
  std::vector<std::int32_t> prev(init_matrix_.begin(),
                                 init_matrix_.begin() + m);
  std::vector<std::int32_t> cur(m);
  std::size_t bad = 0;
  for (std::size_t j = 0; j < m; ++j) bad += result_[j] != prev[j];
  for (std::size_t i = 1; i < m; ++i) {
    const std::int32_t* sim = &similarity_[i * m];
    const std::int32_t* got = &result_[i * m];
    std::int32_t left = init_matrix_[i * m];
    cur[0] = left;
    bad += got[0] != left;
    for (std::size_t j = 1; j < m; ++j) {
      const std::int32_t diag = prev[j - 1] + sim[j];
      const std::int32_t up = prev[j] - penalty_;
      left = std::max({diag, up, left - penalty_});
      cur[j] = left;
      bad += got[j] != left;
    }
    std::swap(prev, cur);
  }
  Validation v;
  v.error = static_cast<double>(bad);
  v.ok = bad == 0;
  std::ostringstream os;
  os << "nw: " << bad << " of " << m * m
     << " score cells mismatch the serial reference";
  v.detail = os.str();
  return v;
}

void Nw::stream_trace(sim::TraceWriter& out) const {
  // One full wavefront sweep in cell order: each cell reads its three
  // score neighbours and its similarity entry, then writes its score.
  const std::size_t m = n_ + 1;
  const std::uint64_t score_base = 0x10000;
  const std::uint64_t sim_base = score_base + m * m * 4;
  for (std::size_t i = 1; i < m; ++i) {
    for (std::size_t j = 1; j < m; ++j) {
      out.emit(score_base + ((i - 1) * m + j - 1) * 4, 4, false);
      out.emit(score_base + ((i - 1) * m + j) * 4, 4, false);
      out.emit(score_base + (i * m + j - 1) * 4, 4, false);
      out.emit(sim_base + (i * m + j) * 4, 4, false);
      out.emit(score_base + (i * m + j) * 4, 4, true);
    }
  }
}

std::size_t Nw::trace_size_hint() const {
  const std::size_t m = n_ + 1;
  return (m - 1) * (m - 1) * 5;
}

void Nw::unbind() {
  sim_buf_.reset();
  score_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
