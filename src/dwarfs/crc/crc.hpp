// Cyclic redundancy check -- the Combinational Logic dwarf.
//
// Each work-item computes the CRC32 (reflected 0xEDB88320 polynomial,
// table-driven) of one page of the input buffer; the result is one CRC per
// page, validated bit-exactly against a serial implementation.  The paper
// singles crc out as the one benchmark where CPUs beat every accelerator,
// "probably due to the low floating-point intensity of the CRC
// computation" -- the workload profile is pure integer work with a
// dependent per-byte chain.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

class Crc final : public Dwarf {
 public:
  static constexpr std::size_t kPageBytes = 16384;

  /// Table 2, crc row: Phi = input buffer size in bytes.
  [[nodiscard]] static std::size_t buffer_bytes_for(ProblemSize s);

  /// Custom input size in bytes; setup(size) is the Table 2 preset
  /// configure(buffer_bytes_for(size)).
  void configure(std::size_t bytes);

  [[nodiscard]] std::string name() const override { return "crc"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Combinational Logic";
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    return std::to_string(buffer_bytes_for(s));
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

  /// Serial reference CRC32 of a byte range.
  [[nodiscard]] static std::uint32_t crc32_reference(
      std::span<const std::uint8_t> data);

  /// Per-page CRC words, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<std::uint32_t>(page_crcs_);
  }
  /// One CRC-32 per kPageBytes page, as finish() read them back.
  [[nodiscard]] std::span<const std::uint32_t> page_crcs() const noexcept {
    return page_crcs_;
  }

 private:
  [[nodiscard]] std::size_t pages() const {
    return (data_.size() + kPageBytes - 1) / kPageBytes;
  }

  void fill_input() const;
  // Generated on first read (InputFill): bind, validate, stream_trace.
  mutable HostVector<std::uint8_t> data_;
  InputFill input_fill_;
  std::vector<std::uint32_t> page_crcs_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> data_buf_;
  std::optional<xcl::Buffer> table_buf_;
  std::optional<xcl::Buffer> crc_buf_;
};

}  // namespace eod::dwarfs
