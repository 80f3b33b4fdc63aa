#include "sim/trace_replay.hpp"

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::sim {

namespace {

// Replay-engine instruments (DESIGN.md §11): page-buffer fan-outs and the
// coalesced entries they carried, accumulated process-wide.
obs::Counter& g_pages_coalesced = obs::counter("replay.pages_coalesced");
obs::Counter& g_coalesced_entries = obs::counter("replay.coalesced_entries");
obs::Counter& g_replay_passes = obs::counter("replay.passes");

}  // namespace

void TraceWriter::flush() {
  if (coalesced_sink_ != nullptr) {
    coalesced_sink_->consume(cpage_.data(), count_);
    // The merge-candidate entry left the buffer; forget its span.
    last_first_ = ~0ull;
    last_last_ = ~0ull;
  } else {
    raw_sink_->consume(rpage_.data(), count_);
  }
  count_ = 0;
}

void TraceWriter::emit_run(std::uint64_t base, std::uint32_t elem_bytes,
                          std::uint64_t count, bool is_write) {
  if (coalesced_sink_ == nullptr || elem_bytes == 0 ||
      kCoalesceLineBytes % elem_bytes != 0 || base % elem_bytes != 0) {
    for (std::uint64_t i = 0; i < count; ++i) {
      emit(base + i * elem_bytes, elem_bytes, is_write);
    }
    return;
  }
  // Elements tile 64B lines exactly, so all elements inside one line share
  // one line span: record the line's first element and fold the rest into
  // its repeat count.  The per-line element count is a constant of the run
  // (the one division below); full interior lines are written straight into
  // the page buffer, bypassing emit()'s per-access span bookkeeping.
  const std::uint64_t per_line = kCoalesceLineBytes / elem_bytes;
  std::uint64_t i = 0;
  // Head: partial first line (base may start mid-line) via the slow path,
  // which also handles a possible merge into the current tail record.
  {
    const std::uint64_t line_end =
        ((base >> kCoalesceLineShift) + 1) << kCoalesceLineShift;
    std::uint64_t head = (line_end - base) / elem_bytes;
    if (head > count) head = count;
    if (head < per_line || count < per_line) {
      for (; i < head; ++i) emit(base + i * elem_bytes, elem_bytes, is_write);
    }
  }
  const std::uint32_t rep = static_cast<std::uint32_t>(per_line - 1);
  CoalescedAccess* page = cpage_.data();
  std::size_t n = count_;
  const std::uint64_t interior_start = i;
  std::uint64_t addr = base + i * elem_bytes;
  // Interior: one record per fully-covered line, emitted with local
  // cursors (flushing restores them) -- no per-element work at all.
  for (; count - i >= per_line; i += per_line, addr += kCoalesceLineBytes) {
    if (n == kTracePageAccesses) {
      count_ = n;
      flush();
      n = 0;
    }
    page[n++] = {addr, elem_bytes, rep};
  }
  count_ = n;
  accesses_ += i - interior_start;
  if (i != interior_start) {
    // The tail record is a full line: a following equal-span emit() may
    // still merge into it.
    last_first_ = (addr - kCoalesceLineBytes) >> kCoalesceLineShift;
    last_last_ = last_first_;
  }
  // Tail: trailing elements that do not fill a line.
  for (; i < count; ++i) emit(base + i * elem_bytes, elem_bytes, is_write);
}

void TraceHasher::consume(const CoalescedAccess* page, std::size_t n) {
  std::uint64_t h = hash_;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = page[i].address * 0x9E3779B97F4A7C15ull;
    x ^= (static_cast<std::uint64_t>(page[i].bytes) << 32) ^
         page[i].repeats;
    h = (h ^ x) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  hash_ = h;
}

TraceKey hash_trace(const TraceGenerator& gen) {
  TraceHasher hasher;
  TraceWriter writer(hasher);
  gen(writer);
  writer.finish();
  return {hasher.hash(), writer.accesses()};
}

namespace {

/// Coalesced sink that runs every page through every hierarchy's fused
/// walk on the pool before letting the writer reuse its buffer.
class FanOutSink final : public CoalescedSink {
 public:
  FanOutSink(std::vector<std::unique_ptr<CacheHierarchy>>& hierarchies,
             xcl::ThreadPool& pool)
      : hierarchies_(hierarchies), pool_(pool), body_([this](std::size_t h) {
          hierarchies_[h]->consume_coalesced(page_, n_);
        }) {}

  void consume(const CoalescedAccess* page, std::size_t n) override {
    if (n == 0) return;
    g_pages_coalesced.add(1);
    g_coalesced_entries.add(static_cast<std::int64_t>(n));
    obs::TraceSpan span("replay:page", "replay", "entries",
                        static_cast<double>(n));
    page_ = page;
    n_ = n;
    pool_.parallel_for(hierarchies_.size(), body_);
  }

 private:
  std::vector<std::unique_ptr<CacheHierarchy>>& hierarchies_;
  xcl::ThreadPool& pool_;
  const CoalescedAccess* page_ = nullptr;
  std::size_t n_ = 0;
  std::function<void(std::size_t)> body_;
};

}  // namespace

std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen, const std::vector<const DeviceSpec*>& specs,
    xcl::ThreadPool& pool) {
  std::vector<ReplayMemoEntry> out(specs.size());
  if (specs.empty()) return out;

  std::vector<std::unique_ptr<CacheHierarchy>> hierarchies;
  hierarchies.reserve(specs.size());
  for (const DeviceSpec* spec : specs) {
    hierarchies.push_back(std::make_unique<CacheHierarchy>(*spec));
  }

  std::uint64_t accesses = 0;
  for (int pass = 0; pass < 2; ++pass) {
    g_replay_passes.add(1);
    obs::TraceSpan pass_span(pass == 0 ? "replay:cold" : "replay:warm",
                             "replay", "hierarchies",
                             static_cast<double>(hierarchies.size()));
    if (pass == 1) {
      for (auto& hier : hierarchies) hier->reset();
    }
    FanOutSink sink(hierarchies, pool);
    TraceWriter writer(sink);
    gen(writer);
    writer.finish();
    for (std::size_t h = 0; h < hierarchies.size(); ++h) {
      (pass == 0 ? out[h].cold : out[h].warm) = hierarchies[h]->counters();
    }
    accesses = writer.accesses();
  }
  for (ReplayMemoEntry& entry : out) entry.accesses = accesses;
  return out;
}

std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen,
    const std::vector<const DeviceSpec*>& specs) {
  return replay_hierarchies(gen, specs, xcl::ThreadPool::global());
}

}  // namespace eod::sim
