// Needleman-Wunsch sequence alignment -- the Dynamic Programming dwarf.
//
// Rodinia-style blocked anti-diagonal sweep: the (n+1)^2 score matrix is
// processed in 16x16 blocks, one kernel launch per block diagonal, with a
// barrier-stepped internal wavefront inside each work-group.  The benchmark
// is launch-intensive (2*(n/16)-1 launches), which is exactly what exposes
// the AMD runtime's enqueue cost in the paper's Fig. 3b.
//
// Similarity comes from the BLOSUM62 substitution matrix over two random
// residue sequences, with a linear gap penalty of 10 (Table 3: nw Phi 10).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dwarfs/common.hpp"
#include "xcl/kernel.hpp"
#include "xcl/modeling.hpp"

namespace eod::dwarfs {

class Nw final : public Dwarf {
 public:
  static constexpr std::size_t kBlock = 16;
  static constexpr std::int32_t kPenalty = 10;  // Table 3: nw Phi 10

  /// Table 2, nw row: Phi = sequence length n.
  [[nodiscard]] static std::size_t length_for(ProblemSize s);

  /// Custom length/penalty (n must be a multiple of kBlock); setup(size)
  /// is the Table 2/3 preset configure(length_for(size), kPenalty).
  void configure(std::size_t n, std::int32_t penalty);

  [[nodiscard]] std::string name() const override { return "nw"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Dynamic Programming";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(length_for(s));
  }
  /// Score matrix + similarity matrix, each (n+1)^2 int32.
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    const std::size_t m = length_for(s) + 1;
    return 2 * m * m * sizeof(std::int32_t);
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

  /// Full score matrix after the sweep, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<std::int32_t>(result_);
  }
  /// The (n+1)^2 score matrix finish() read back.
  [[nodiscard]] std::span<const std::int32_t> scores() const noexcept {
    return result_;
  }

  // ---- shared kernel construction (harness/partition reuses it) ----

  /// Builds the "nw_block" kernel computing blocks (bi = lo + group,
  /// bj = d - bi) of global block-diagonal `d` on an (m x m) score matrix.
  /// Carries both the fiber wavefront body and the bit-identical row-major
  /// span body, so every caller composes with every --dispatch mode.  The
  /// single-device sweep and the partitioned multi-device runner both
  /// launch exactly this kernel, which is what makes their results
  /// byte-exact against each other.
  [[nodiscard]] static xcl::Kernel make_block_kernel(xcl::Buffer& score,
                                                     xcl::Buffer& sim,
                                                     std::size_t m,
                                                     std::int32_t penalty,
                                                     std::size_t d,
                                                     std::size_t lo);
  /// Workload profile of a `groups`-block diagonal launch on that matrix.
  [[nodiscard]] static xcl::WorkloadProfile block_profile(std::size_t m,
                                                          std::size_t groups);

  // ---- partitioned-runner access (harness/partition) ----
  [[nodiscard]] std::size_t length() const noexcept { return n_; }
  [[nodiscard]] std::int32_t penalty() const noexcept { return penalty_; }
  [[nodiscard]] std::span<const std::int32_t> similarity() const {
    fill_input();
    return similarity_;
  }
  /// Boundary-initialised score matrix each sweep starts from.
  [[nodiscard]] std::span<const std::int32_t> boundary() const {
    fill_input();
    return init_matrix_;
  }
  /// Installs an externally computed score matrix (the partitioned runner's
  /// assembled stripes) so validate()/result_signature() work unchanged.
  void adopt_result(HostVector<std::int32_t> result) {
    require(result.size() == init_matrix_.size(), xcl::Status::kInvalidValue,
            "nw adopted result has the wrong shape");
    result_ = std::move(result);
  }

 private:
  void enqueue_diagonal(std::size_t d, std::size_t nb);
  void fill_input() const;

  std::size_t n_ = 0;
  std::int32_t penalty_ = kPenalty;
  // Both (n+1)^2, generated on first read (InputFill).
  mutable HostVector<std::int32_t> init_matrix_;  // boundary-initialised
  mutable HostVector<std::int32_t> similarity_;   // BLOSUM62 lookups
  InputFill input_fill_;
  HostVector<std::int32_t> result_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> score_buf_;
  std::optional<xcl::Buffer> sim_buf_;
};

}  // namespace eod::dwarfs
