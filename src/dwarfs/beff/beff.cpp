#include "dwarfs/beff/beff.hpp"

#include <sstream>

#include "xcl/event.hpp"

namespace eod::dwarfs {

namespace {

double achieved_gbs(std::size_t bytes, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(bytes) / seconds / 1e9;
}

double duration_s(const xcl::Event& e) {
  return e.modeled_end_s - e.modeled_start_s;
}

}  // namespace

std::size_t Beff::max_message_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return 64 * 1024;
    case ProblemSize::kSmall:
      return 256 * 1024;
    case ProblemSize::kMedium:
      return 4 * 1024 * 1024;
    case ProblemSize::kLarge:
      return 32 * 1024 * 1024;
  }
  return 0;
}

std::vector<std::size_t> Beff::sweep_sizes(std::size_t max_bytes) {
  std::vector<std::size_t> sizes;
  for (std::size_t b = kMinMessage; b <= max_bytes; b *= 2) sizes.push_back(b);
  return sizes;
}

void Beff::setup(ProblemSize size) { configure(max_message_for(size)); }

void Beff::configure(std::size_t max_bytes) {
  require(max_bytes >= kMinMessage && (max_bytes & (max_bytes - 1)) == 0,
          xcl::Status::kInvalidValue,
          "beff sweep ceiling must be a power of two >= 1 KiB");
  max_bytes_ = max_bytes;
  send_ = HostVector<std::uint8_t>(max_bytes_);
  generate_indexed(max_bytes_, 0x62656666ull /* "beff" */, 1,
                   [&](SplitMix64& rng, std::size_t i) {
                     send_[i] = static_cast<std::uint8_t>(rng.next());
                   });
  recv_ = HostVector<std::uint8_t>(max_bytes_);
  points_.clear();
}

void Beff::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  msg_buf_.emplace(ctx, max_bytes_);
}

void Beff::run() {
  // One echo (write then read) per message size.  The queue's transfer
  // lane serialises the two legs, exactly like a blocking ping-pong, so
  // the pair also times the bidirectional pattern: uni bandwidths come
  // from each leg's own modeled duration, bi from the round trip moving
  // 2 x bytes.  Messages grow monotonically, so after the sweep the
  // device buffer holds the full payload for finish() to echo back.
  points_.clear();
  for (const std::size_t bytes : sweep_sizes(max_bytes_)) {
    const xcl::Event w = queue_->enqueue_write<std::uint8_t>(
        *msg_buf_, std::span<const std::uint8_t>(send_.data(), bytes));
    const xcl::Event r = queue_->enqueue_read<std::uint8_t>(
        *msg_buf_, std::span<std::uint8_t>(recv_.data(), bytes));
    BeffPoint p;
    p.bytes = bytes;
    p.write_gbs = achieved_gbs(bytes, duration_s(w));
    p.read_gbs = achieved_gbs(bytes, duration_s(r));
    p.bi_gbs = achieved_gbs(2 * bytes, duration_s(w) + duration_s(r));
    points_.push_back(p);
  }
}

void Beff::finish() {
  queue_->enqueue_read<std::uint8_t>(*msg_buf_, std::span(recv_));
}

Validation Beff::validate() {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < send_.size(); ++i) {
    if (recv_[i] != send_[i]) ++bad;
  }
  Validation v;
  v.error = static_cast<double>(bad);
  v.ok = bad == 0;
  std::ostringstream os;
  os << "beff: " << bad << " of " << send_.size()
     << " echoed bytes mismatch the payload";
  v.detail = os.str();
  return v;
}

void Beff::stream_trace(sim::TraceWriter& out) const {
  // Pure streaming at cache-line granularity: the device writes the
  // incoming payload once and reads it back once.
  const std::uint64_t base = 0x10000;
  out.emit_run(base, 64, max_bytes_ / 64, true);
  out.emit_run(base, 64, max_bytes_ / 64, false);
}

std::size_t Beff::trace_size_hint() const { return 2 * (max_bytes_ / 64); }

void Beff::unbind() {
  msg_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
