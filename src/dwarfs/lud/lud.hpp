// Blocked LU decomposition -- the Dense Linear Algebra dwarf.
//
// Rodinia-style three-kernel blocked factorization (block size 16): a
// diagonal kernel (work-group cooperating through barriers), two perimeter
// kernels (independent row/column solves), and an internal kernel (tiled
// matrix-multiply update staged through __local memory with barriers).
// The input matrix is generated diagonally dominant so the factorization is
// stable without pivoting; validation reconstructs L*U and compares norms
// against the original matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "dwarfs/common.hpp"
#include "xcl/kernel.hpp"
#include "xcl/modeling.hpp"

namespace eod::dwarfs {

class Lud final : public Dwarf {
 public:
  static constexpr std::size_t kBlock = 16;

  /// Table 2, lud row: Phi = matrix dimension n (n x n floats).
  [[nodiscard]] static std::size_t dim_for(ProblemSize s);

  /// Custom matrix dimension (must be a multiple of kBlock); setup(size)
  /// is the Table 2 preset configure(dim_for(size)).
  void configure(std::size_t n);

  [[nodiscard]] std::string name() const override { return "lud"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Dense Linear Algebra";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(dim_for(s));
  }
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    const std::size_t n = dim_for(s);
    return n * n * sizeof(float);
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

  /// Packed L\U factor after the sweep, byte-exact.  The factorization is
  /// pivot-free and every kernel body evaluates in a fixed order, so the
  /// signature is reproducible across dispatch tiers and device counts.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(result_);
  }

  // ---- shared kernel construction (harness/partition reuses it) ----
  //
  // Each factory builds one of the three Rodinia kernels over an (n x n)
  // matrix buffer for factorization step `k`.  The perimeter-column and
  // internal factories take the first block-row they should cover
  // (`m_lo` / `bi_lo`) so the partitioned runner can restrict a launch to
  // one device's block-row stripe; the single-device path passes k + 1 and
  // recovers the historical full-range launches bit for bit.
  [[nodiscard]] static xcl::Kernel make_diagonal_kernel(xcl::Buffer& matrix,
                                                        std::size_t n,
                                                        std::size_t k);
  [[nodiscard]] static xcl::Kernel make_perimeter_row_kernel(
      xcl::Buffer& matrix, std::size_t n, std::size_t k);
  [[nodiscard]] static xcl::Kernel make_perimeter_col_kernel(
      xcl::Buffer& matrix, std::size_t n, std::size_t k, std::size_t m_lo);
  [[nodiscard]] static xcl::Kernel make_internal_kernel(xcl::Buffer& matrix,
                                                        std::size_t n,
                                                        std::size_t k,
                                                        std::size_t bi_lo);
  [[nodiscard]] static xcl::WorkloadProfile diagonal_profile(std::size_t n);
  /// Profile for `blocks` perimeter panel blocks.
  [[nodiscard]] static xcl::WorkloadProfile perimeter_profile(
      std::size_t n, std::size_t blocks);
  /// Profile for a `bi_blocks` x `bj_blocks` trailing-submatrix update.
  [[nodiscard]] static xcl::WorkloadProfile internal_profile(
      std::size_t n, std::size_t bi_blocks, std::size_t bj_blocks);

  // ---- partitioned-runner access (harness/partition) ----
  [[nodiscard]] std::size_t dim() const noexcept { return n_; }
  [[nodiscard]] std::span<const float> input() const {
    fill_input();
    return input_;
  }
  /// Installs an externally computed factor (the partitioned runner's
  /// assembled panels) so validate()/result_signature() work unchanged.
  void adopt_result(HostVector<float> result) {
    require(result.size() == input_.size(), xcl::Status::kInvalidValue,
            "lud adopted result has the wrong shape");
    result_ = std::move(result);
  }

 private:
  void enqueue_diagonal(std::size_t k);
  void enqueue_perimeter(std::size_t k);
  void enqueue_internal(std::size_t k);
  void fill_input() const;

  std::size_t n_ = 0;
  mutable HostVector<float> input_;  // original matrix (restored every run)
  InputFill input_fill_;
  HostVector<float> result_;  // factorized matrix read back by finish()

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> matrix_buf_;
};

}  // namespace eod::dwarfs
