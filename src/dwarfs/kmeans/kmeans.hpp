// k-means clustering -- the MapReduce dwarf (§4.4.1).
//
// The paper's version generates a random distribution of points (rather
// than loading a file) "to more fairly evaluate cache performance", fixes
// the cluster count at 5, and scales the point count Pn per problem size
// with Fn = 26 features (Table 2/3: -g -f 26 -p Phi).  The kernel assigns
// each point to its nearest centroid; centroid relocation happens on the
// host, as in OpenDwarfs.  For measurement reproducibility the benchmark
// runs a fixed number of assign/update rounds per iteration instead of a
// data-dependent convergence loop.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

class KMeans final : public Dwarf {
 public:
  struct Params {
    std::size_t points = 0;
    unsigned features = 26;
    unsigned clusters = 5;
    unsigned rounds = 10;  ///< assign/update rounds per benchmark iteration
  };
  [[nodiscard]] static Params params_for(ProblemSize s);

  /// Custom problem configuration (the suite's "flexibility of
  /// configuration including problem sizes"); setup(size) is the Table 2
  /// preset configure(params_for(size)).
  void configure(const Params& params);

  [[nodiscard]] std::string name() const override { return "kmeans"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "MapReduce";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override;
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

  /// Working-set equation (1) of the paper, in bytes:
  /// size(feature) + size(membership) + size(cluster).
  [[nodiscard]] static std::size_t working_set_bytes(std::size_t points,
                                                     unsigned features,
                                                     unsigned clusters);

  /// Final membership assignment, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<std::int32_t>(membership_);
  }
  /// Cluster index per point, as finish() read it back.
  [[nodiscard]] std::span<const std::int32_t> membership() const noexcept {
    return membership_;
  }

 private:
  /// Enqueues the assign kernel over points [begin, end) after `wait`,
  /// returning its event.  run() splits the point range in two so each
  /// half's membership read-back overlaps the other half's compute on an
  /// out-of-order queue (double-buffered write-back, DESIGN.md §12).
  xcl::Event enqueue_assign(std::size_t begin, std::size_t end,
                            std::span<const xcl::Event> wait);
  void host_update_centroids();
  void fill_input();

  Params params_;
  // The features and the starting centroids drawn from them are generated
  // on first read (InputFill).
  HostVector<float> features_;       // Pn x Fn, row-major
  std::vector<float> centroids_;     // Cn x Fn (current host copy)
  InputFill input_fill_;
  HostVector<std::int32_t> membership_;

  xcl::Context* ctx_ = nullptr;
  xcl::Queue* queue_ = nullptr;
  /// Last centroid upload; each round's assign kernels wait on it, which
  /// is the only cross-round edge the dependency graph needs.
  xcl::Event centroid_write_;
  std::optional<xcl::Buffer> feature_buf_;
  std::optional<xcl::Buffer> cluster_buf_;
  std::optional<xcl::Buffer> membership_buf_;
};

}  // namespace eod::dwarfs
