// CSR sparse matrix-vector multiply -- the Sparse Linear Algebra dwarf.
//
// The input matrix is produced by a createcsr-equivalent generator
// (Table 3: createcsr -n Phi -d 5000, i.e. 0.5% dense) with a fixed seed;
// the kernel is row-per-work-item SpMV with indirect gathers into x.
#pragma once

#include <cstdint>
#include <optional>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

/// A CSR matrix as written by the createcsr tool.
struct CsrMatrix {
  std::size_t n = 0;  ///< square dimension
  HostVector<std::uint32_t> row_ptr;  ///< n+1 offsets
  HostVector<std::uint32_t> cols;
  HostVector<float> vals;

  [[nodiscard]] std::size_t nnz() const noexcept { return vals.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return row_ptr.size() * sizeof(std::uint32_t) +
           cols.size() * sizeof(std::uint32_t) + vals.size() * sizeof(float);
  }
};

/// createcsr equivalent: uniform random pattern at the given density, with
/// ~density*n entries per row (deterministic for a given seed).
[[nodiscard]] CsrMatrix create_csr(std::size_t n, double density,
                                   std::uint64_t seed);

class Csr final : public Dwarf {
 public:
  static constexpr double kDensity = 0.005;  // -d 5000 per mille -> 0.5%

  /// Table 2, csr row: Phi = matrix dimension.
  [[nodiscard]] static std::size_t dim_for(ProblemSize s);

  /// Custom dimension/density (createcsr -n/-d); setup(size) is the
  /// Table 2 preset configure(dim_for(size), kDensity).
  void configure(std::size_t n, double density);

  /// Uses a pre-built matrix (Table 3: `csr -i Psi` loads the file written
  /// by createcsr; see csr_io.hpp).
  void configure_with_matrix(CsrMatrix matrix);

  [[nodiscard]] std::string name() const override { return "csr"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Sparse Linear Algebra";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(dim_for(s));
  }
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override;

  void setup(ProblemSize size) override;
  void bind(xcl::Context& ctx, xcl::Queue& q) override;
  void run() override;
  void finish() override;
  [[nodiscard]] Validation validate() override;
  void unbind() override;

  using Dwarf::stream_trace;
  void stream_trace(sim::TraceWriter& out) const override;
  [[nodiscard]] std::size_t trace_size_hint() const override;

  /// y = Ax product vector, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(y_);
  }

 private:
  CsrMatrix m_;
  HostVector<float> x_;
  HostVector<float> y_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> rowptr_buf_;
  std::optional<xcl::Buffer> cols_buf_;
  std::optional<xcl::Buffer> vals_buf_;
  std::optional<xcl::Buffer> x_buf_;
  std::optional<xcl::Buffer> y_buf_;
};

}  // namespace eod::dwarfs
