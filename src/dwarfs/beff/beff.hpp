// b_eff -- effective interconnect bandwidth, the communication dwarf.
//
// Modeled on the HPC Challenge / Linpack-suite b_eff benchmark: sweep
// power-of-two message sizes and measure the achieved bandwidth of the
// host<->device link in three patterns -- unidirectional write (H2D),
// unidirectional read (D2H), and bidirectional echo (write immediately
// followed by the matching read, sharing the transfer lane).  Every modeled
// link is latency + size/bandwidth, so the achieved-bandwidth curve rises
// from latency-bound small messages and saturates at the link's nominal
// rate; BENCH_multidev.json records that curve.
//
// The Dwarf lifecycle binds one device, so this dwarf covers that device's
// host link only.  Device-to-device patterns (the b_eff ring over peer
// copies) need several queues and live in harness::ring_sweep, which
// beff_app and bench/micro_multidev drive on top of the same sweep grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

/// One message size of the sweep, with achieved bandwidth per pattern.
struct BeffPoint {
  std::size_t bytes = 0;
  double write_gbs = 0.0;  ///< unidirectional host -> device
  double read_gbs = 0.0;   ///< unidirectional device -> host
  double bi_gbs = 0.0;     ///< write + read echo, both directions counted
};

class Beff final : public Dwarf {
 public:
  /// Smallest message of the sweep; sizes double up to max_message_for().
  static constexpr std::size_t kMinMessage = 1024;

  /// Largest message per size class (tiny 64 KiB ... large 32 MiB).
  [[nodiscard]] static std::size_t max_message_for(ProblemSize s);

  /// The power-of-two sweep grid [kMinMessage, max_bytes].
  [[nodiscard]] static std::vector<std::size_t> sweep_sizes(
      std::size_t max_bytes);

  /// Custom sweep ceiling (power of two, >= kMinMessage); setup(size) is
  /// the preset configure(max_message_for(size)).
  void configure(std::size_t max_bytes);

  [[nodiscard]] std::string name() const override { return "beff"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Communication";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(max_message_for(s));
  }
  /// One device-resident message buffer of the largest message.
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override {
    return max_message_for(s);
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

  /// Echoed payload, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<std::uint8_t>(recv_);
  }

  /// The bandwidth curve of the last run() (one entry per sweep size,
  /// strictly increasing bytes).
  [[nodiscard]] const std::vector<BeffPoint>& points() const noexcept {
    return points_;
  }
  /// The configured sweep ceiling.
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

 private:
  std::size_t max_bytes_ = 0;
  HostVector<std::uint8_t> send_;
  HostVector<std::uint8_t> recv_;
  std::vector<BeffPoint> points_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> msg_buf_;
};

}  // namespace eod::dwarfs
