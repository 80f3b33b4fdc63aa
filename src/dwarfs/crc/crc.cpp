#include "dwarfs/crc/crc.hpp"

#include <array>
#include <sstream>

#include "xcl/kernel.hpp"

namespace eod::dwarfs {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;  // reflected CRC-32

std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = build_table();
  return table;
}

// Slice-by-8 tables (the span body's formulation, DESIGN.md §9): table k
// advances a byte's contribution through k additional zero bytes, so eight
// single-byte chain steps collapse into eight independent lookups XORed
// together.  Pure GF(2) algebra over the same polynomial -- the resulting
// CRC is the identical integer, not merely close, which is what lets the
// span body keep the bit-exactness contract without lane vectors.
std::array<std::array<std::uint32_t, 256>, 8> build_slice_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = build_table();
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

const std::array<std::array<std::uint32_t, 256>, 8>& slice_tables() {
  static const auto tables = build_slice_tables();
  return tables;
}

}  // namespace

std::size_t Crc::buffer_bytes_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return 2000;
    case ProblemSize::kSmall:
      return 16000;
    case ProblemSize::kMedium:
      return 524000;
    case ProblemSize::kLarge:
      return 4194304;
  }
  return 0;
}

std::size_t Crc::footprint_bytes(ProblemSize s) const {
  const std::size_t bytes = buffer_bytes_for(s);
  const std::size_t n_pages = (bytes + kPageBytes - 1) / kPageBytes;
  return bytes + 256 * sizeof(std::uint32_t) +
         n_pages * sizeof(std::uint32_t);
}

std::uint32_t Crc::crc32_reference(std::span<const std::uint8_t> data) {
  const auto& table = crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Crc::setup(ProblemSize size) { configure(buffer_bytes_for(size)); }

void Crc::configure(std::size_t bytes) {
  require(bytes > 0, xcl::Status::kInvalidValue,
          "crc input must be non-empty");
  data_ = HostVector<std::uint8_t>(bytes);
  generate_indexed(bytes, 0x637263ull /* "crc" */, 1,
                   [&](SplitMix64& rng, std::size_t i) {
                     data_[i] = static_cast<std::uint8_t>(rng.next());
                   });
  page_crcs_.assign(pages(), 0);
}

void Crc::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  data_buf_.emplace(ctx, data_.size());
  table_buf_.emplace(ctx, 256 * sizeof(std::uint32_t));
  crc_buf_.emplace(ctx, page_crcs_.size() * sizeof(std::uint32_t));
  q.enqueue_write<std::uint8_t>(*data_buf_, data_);
  q.enqueue_write<std::uint32_t>(
      *table_buf_, std::span<const std::uint32_t>(crc_table()));
}

void Crc::run() {
  const std::size_t n_pages = pages();
  const std::size_t total = data_.size();
  auto bytes = data_buf_->access<const std::uint8_t>("data");
  auto table = table_buf_->access<const std::uint32_t>("table");
  auto out = crc_buf_->access<std::uint32_t>("page_crcs");

  xcl::Kernel kernel("crc_page", [=](xcl::WorkItem& it) {
    const std::size_t page = it.global_id(0);
    if (page >= n_pages) return;
    const std::size_t begin = page * kPageBytes;
    const std::size_t end = std::min(total, begin + kPageBytes);
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = begin; i < end; ++i) {
      c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
    }
    out[page] = c ^ 0xFFFFFFFFu;
  });

  // Span tier (DESIGN.md §9): a run of whole pages per call, slice-by-8.
  // The scalar chain serializes one table lookup per byte; slicing
  // processes 8 bytes per step as eight independent lookups the core can
  // issue in parallel.  Byte assembly into the two
  // 32-bit words goes through explicit shifts, so the result is
  // endian-independent and equal to the byte-at-a-time chain bit for bit.
  kernel.span([=](std::size_t page_begin, std::size_t page_end) {
    const std::uint8_t* EOD_RESTRICT data = bytes.data();
    const auto& t = slice_tables();
    std::uint32_t* EOD_RESTRICT crcs = out.data();
    for (std::size_t page = page_begin, last = std::min(page_end, n_pages);
         page < last; ++page) {
      const std::size_t begin = page * kPageBytes;
      const std::size_t end = std::min(total, begin + kPageBytes);
      std::uint32_t c = 0xFFFFFFFFu;
      std::size_t i = begin;
      for (; i + 8 <= end; i += 8) {
        const std::uint32_t lo =
            c ^ (static_cast<std::uint32_t>(data[i]) |
                 static_cast<std::uint32_t>(data[i + 1]) << 8 |
                 static_cast<std::uint32_t>(data[i + 2]) << 16 |
                 static_cast<std::uint32_t>(data[i + 3]) << 24);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(data[i + 4]) |
            static_cast<std::uint32_t>(data[i + 5]) << 8 |
            static_cast<std::uint32_t>(data[i + 6]) << 16 |
            static_cast<std::uint32_t>(data[i + 7]) << 24;
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
      }
      for (; i < end; ++i) {
        c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
      }
      crcs[page] = c ^ 0xFFFFFFFFu;
    }
  });

  xcl::WorkloadProfile prof;
  // Per byte: xor, mask, table index, shift, xor plus loop bookkeeping.
  prof.int_ops = static_cast<double>(total) * 8.0;
  prof.bytes_read = static_cast<double>(total);  // the data streams once
  prof.bytes_written = static_cast<double>(n_pages) * sizeof(std::uint32_t);
  prof.working_set_bytes =
      static_cast<double>(total + 256 * sizeof(std::uint32_t) +
                          n_pages * sizeof(std::uint32_t));
  prof.pattern = xcl::AccessPattern::kStreaming;
  // The per-page byte chain is strictly dependent -- each table lookup
  // feeds the next -- and the chain's structure is the 1 KiB table.
  prof.dependent_accesses = static_cast<double>(total);
  prof.chain_working_set_bytes = 256 * sizeof(std::uint32_t);
  prof.parallel_fraction = 1.0;
  const std::size_t wg = std::min<std::size_t>(64, n_pages);
  const std::size_t global = (n_pages + wg - 1) / wg * wg;
  queue_->enqueue(kernel, xcl::NDRange(global, wg), prof);
}

void Crc::finish() {
  queue_->enqueue_read<std::uint32_t>(*crc_buf_, std::span(page_crcs_));
}

Validation Crc::validate() {
  Validation v;
  std::size_t bad = 0;
  const std::size_t n_pages = pages();
  for (std::size_t p = 0; p < n_pages; ++p) {
    const std::size_t begin = p * kPageBytes;
    const std::size_t end = std::min(data_.size(), begin + kPageBytes);
    const std::uint32_t want = crc32_reference(
        std::span(data_).subspan(begin, end - begin));
    if (page_crcs_[p] != want) ++bad;
  }
  v.error = static_cast<double>(bad);
  v.ok = bad == 0;
  std::ostringstream os;
  os << "crc: " << bad << " of " << n_pages
     << " page CRCs mismatch the serial reference";
  v.detail = os.str();
  return v;
}

void Crc::unbind() {
  crc_buf_.reset();
  table_buf_.reset();
  data_buf_.reset();
  queue_ = nullptr;
}

void Crc::stream_trace(sim::TraceWriter& out) const {
  const std::uint64_t data_base = 0x10000;
  const std::uint64_t table_base = data_base + data_.size();
  const std::uint64_t out_base = table_base + 256 * 4;
  // Program order of one work-item sweep over its page, pages in sequence.
  for (std::size_t p = 0; p < pages(); ++p) {
    const std::size_t begin = p * kPageBytes;
    const std::size_t end = std::min(data_.size(), begin + kPageBytes);
    for (std::size_t i = begin; i < end; ++i) {
      out.emit(data_base + i, 1, false);
      out.emit(table_base + (data_[i] & 0xFFu) * 4ull, 4, false);
    }
    out.emit(out_base + p * 4, 4, true);
  }
}

std::size_t Crc::trace_size_hint() const {
  return 2 * data_.size() + pages();
}

}  // namespace eod::dwarfs
