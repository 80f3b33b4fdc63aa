#include "sim/trace_replay.hpp"

#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::sim {

namespace {

// Replay-engine instruments (DESIGN.md §11): replayed pages and the
// coalesced entries they carried, accumulated process-wide.
obs::Counter& g_pages_coalesced = obs::counter("replay.pages_coalesced");
obs::Counter& g_coalesced_entries = obs::counter("replay.coalesced_entries");
obs::Counter& g_replay_passes = obs::counter("replay.passes");
// Replay-forest units per level, added once per replay_hierarchies call.
obs::Counter& g_units_tlb = obs::counter("replay.units.tlb");
obs::Counter& g_units_l1 = obs::counter("replay.units.l1");
obs::Counter& g_units_l2 = obs::counter("replay.units.l2");
obs::Counter& g_units_l3 = obs::counter("replay.units.l3");

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

// The data TLB every spec replays with: CacheHierarchy's and
// hierarchy_geometry_hash's defaults.
constexpr unsigned kTlbEntries = 64;
constexpr unsigned kPageShift = 12;  // 4 KiB pages

// Miss addresses a cache unit collects before its children replay them:
// small enough to stay cache-resident next to the level's own tags.
constexpr std::size_t kMissBatch = 1024;

std::uint64_t last_byte(const CoalescedAccess& r) {
  return r.address + (r.bytes == 0 ? 0 : r.bytes - 1);
}

bool same_geometry(const CacheLevelSpec& a, const CacheLevelSpec& b) {
  return a.size_bytes == b.size_bytes && a.line_bytes == b.line_bytes &&
         a.associativity == b.associativity;
}

template <class Unit>
std::size_t unit_for(std::vector<Unit>& units, const CacheLevelSpec& spec) {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (same_geometry(units[i].geometry, spec)) return i;
  }
  units.emplace_back(spec);
  return units.size() - 1;
}

// Calls f(std::integral_constant<unsigned, A>) with A = assoc for the
// testbed's associativities and A = 0 (a runtime count) for any other.
template <class F>
void with_ways(unsigned assoc, const F& f) {
  switch (assoc) {
    case 4:
      return f(std::integral_constant<unsigned, 4>{});
    case 8:
      return f(std::integral_constant<unsigned, 8>{});
    case 16:
      return f(std::integral_constant<unsigned, 16>{});
    default:
      return f(std::integral_constant<unsigned, 0>{});
  }
}

}  // namespace

ReplayForest::Tlb::Tlb() : tlb(kTlbEntries) {}

void ReplayForest::Tlb::walk(const CoalescedAccess* page, std::size_t n) {
  // A two-page filter: re-touches of the two most recent pages are hits
  // (kTlbEntries >= 2) and are not looked up.  A re-touch of `second` swaps
  // the two in the true recency order but not in `tlb`'s; `flipped`
  // records that, and the next other page first re-touches `mru` so that
  // `tlb` holds the true order again before its lookup.  Each such
  // re-touch repays an earlier skipped one, so the filter never adds a
  // lookup.
  static_assert(kTlbEntries >= 2);
  std::uint64_t miss = 0, mru = mru_page, second = second_page;
  bool flip = flipped;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t first = page[i].address >> kPageShift;
    const std::uint64_t last = last_byte(page[i]) >> kPageShift;
    // Repeats of a span of at most kTlbEntries pages re-touch pages that
    // are all still resident, in the order that left them most recent:
    // guaranteed hits that leave the recency order as it was.  A wider
    // span is expanded into real passes.
    const std::uint64_t passes =
        last - first + 1 > kTlbEntries ? std::uint64_t{page[i].repeats} + 1
                                       : 1;
    for (std::uint64_t p = 0; p < passes; ++p) {
      for (std::uint64_t pg = first; pg <= last; ++pg) {
        if (pg == mru) continue;
        if (pg == second) {
          second = mru;
          mru = pg;
          flip = !flip;
          continue;
        }
        if (flip) {
          tlb.touch(mru);
          flip = false;
        }
        second = mru;
        mru = pg;
        if (!tlb.touch(pg)) ++miss;
      }
    }
  }
  misses += miss;
  mru_page = mru;
  second_page = second;
  flipped = flip;
}

ReplayForest::Cache::Cache(const CacheLevelSpec& spec)
    : geometry(spec),
      level(spec.size_bytes, spec.line_bytes, spec.associativity) {}

void ReplayForest::Cache::walk(const CoalescedAccess* page, std::size_t n) {
  with_ways(level.associativity(),
            [&](auto ways) { walk_ways<decltype(ways)::value>(page, n); });
}

void ReplayForest::Cache::consume(const std::uint64_t* addresses,
                                  std::size_t n) {
  with_ways(level.associativity(), [&](auto ways) {
    consume_ways<decltype(ways)::value>(addresses, n);
  });
}

template <unsigned kAssoc>
void ReplayForest::Cache::walk_ways(const CoalescedAccess* page,
                                    std::size_t n) {
  // Every accumulator is a local: the compiler cannot prove the member
  // counters do not alias `page`, so member updates inside the loop would
  // be reloaded on every record.
  const unsigned shift = level.line_shift();
  // Repeat credit precondition: after one pass over the span every span
  // line is still resident (consecutive lines put at most ceil(span/sets)
  // lines in a set, and older lines are the LRU victims while that stays
  // <= associativity), and each is the most recent line of its set, so the
  // repeats are guaranteed hits that leave the recency order as it was.
  // Spans emitted by TraceWriter are <= 2 lines; a longer span is expanded
  // into real passes.
  const std::uint64_t safe_span = level.capacity_lines();
  std::uint64_t* const out = missed.data();
  std::uint64_t total = 0, miss = 0, mru = last_line;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t first = page[i].address >> shift;
    const std::uint64_t last = last_byte(page[i]) >> shift;
    const std::uint64_t span = last - first + 1;
    const std::uint64_t runs = std::uint64_t{page[i].repeats} + 1;
    total += runs * span;
    const std::uint64_t passes = span > safe_span ? runs : 1;
    for (std::uint64_t p = 0; p < passes; ++p) {
      for (std::uint64_t l = first; l <= last; ++l) {
        // Re-touch of the MRU line: a guaranteed hit, and the skipped
        // recency refresh cannot change any relative LRU order.
        if (l == mru) continue;
        mru = l;
        if (level.touch_line<kAssoc>(l)) continue;
        ++miss;
        out[k++] = l << shift;
        if (k == kMissBatch) {
          hand_down(k);
          k = 0;
        }
      }
    }
  }
  hand_down(k);
  accesses += total;
  misses += miss;
  last_line = mru;
}

template <unsigned kAssoc>
void ReplayForest::Cache::consume_ways(const std::uint64_t* addresses,
                                       std::size_t n) {
  const unsigned shift = level.line_shift();
  std::uint64_t* const out = missed.empty() ? nullptr : missed.data();
  std::uint64_t miss = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (level.touch_line<kAssoc>(addresses[i] >> shift)) continue;
    ++miss;
    if (out != nullptr) out[k++] = addresses[i];
  }
  misses += miss;
  hand_down(k);
}

void ReplayForest::Cache::hand_down(std::size_t n) {
  if (n == 0) return;
  for (Cache& child : children) child.consume(missed.data(), n);
}

ReplayForest::ReplayForest(const std::vector<const DeviceSpec*>& specs,
                           xcl::ThreadPool& pool)
    : pool_(pool), body_([this](std::size_t t) {
        if (t == 0) {
          tlb_.walk(page_, n_);
        } else {
          l1s_[t - 1].walk(page_, n_);
        }
      }) {
  for (const DeviceSpec* spec : specs) {
    Path path;
    path.l1 = unit_for(l1s_, spec->l1);
    Cache& l1 = l1s_[path.l1];
    l1.missed.resize(kMissBatch);
    path.l2 = unit_for(l1.children, spec->l2);
    if (spec->l3.size_bytes != 0) {
      Cache& l2 = l1.children[path.l2];
      l2.missed.resize(kMissBatch);
      path.l3 = unit_for(l2.children, spec->l3);
      path.has_l3 = true;
    }
    paths_.push_back(path);
  }
}

void ReplayForest::consume(const CoalescedAccess* page, std::size_t n) {
  if (n == 0) return;
  g_pages_coalesced.add(1);
  g_coalesced_entries.add(static_cast<std::int64_t>(n));
  obs::TraceSpan span("replay:page", "replay", "entries",
                      static_cast<double>(n));
  page_ = page;
  n_ = n;
  pool_.parallel_for(1 + l1s_.size(), body_);
}

HierarchyCounters ReplayForest::counters(std::size_t spec) const {
  const Path& path = paths_.at(spec);
  const Cache& l1 = l1s_[path.l1];
  const Cache& l2 = l1.children[path.l2];
  HierarchyCounters c;
  c.total_accesses = l1.accesses;
  c.l1_dcm = l1.misses;
  c.l2_dcm = l2.misses;
  // No L3: every L2 miss goes to DRAM.
  c.l3_tcm = path.has_l3 ? l2.children[path.l3].misses : l2.misses;
  c.tlb_dm = tlb_.misses;
  return c;
}

void ReplayForest::reset_counters() noexcept {
  tlb_.misses = 0;
  for (Cache& l1 : l1s_) {
    l1.accesses = l1.misses = 0;
    for (Cache& l2 : l1.children) {
      l2.misses = 0;
      for (Cache& l3 : l2.children) l3.misses = 0;
    }
  }
}

ReplayForest::Shape ReplayForest::shape() const noexcept {
  Shape s;
  s.tlb = 1;
  s.l1 = l1s_.size();
  for (const Cache& l1 : l1s_) {
    s.l2 += l1.children.size();
    for (const Cache& l2 : l1.children) s.l3 += l2.children.size();
  }
  return s;
}

std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen, const std::vector<const DeviceSpec*>& specs,
    xcl::ThreadPool& pool) {
  std::vector<ReplayMemoEntry> out(specs.size());
  if (specs.empty()) return out;

  ReplayForest forest(specs, pool);
  const ReplayForest::Shape shape = forest.shape();
  g_units_tlb.add(shape.tlb);
  g_units_l1.add(shape.l1);
  g_units_l2.add(shape.l2);
  g_units_l3.add(shape.l3);
  const double units =
      static_cast<double>(shape.tlb + shape.l1 + shape.l2 + shape.l3);
  std::uint64_t accesses = 0;
  for (int pass = 0; pass < 2; ++pass) {
    g_replay_passes.add(1);
    obs::TraceSpan pass_span(pass == 0 ? "replay:cold" : "replay:warm",
                             "replay", "units", units);
    if (pass == 1) forest.reset_counters();
    TraceWriter writer(forest);
    gen(writer);
    writer.finish();
    for (std::size_t h = 0; h < specs.size(); ++h) {
      (pass == 0 ? out[h].cold : out[h].warm) = forest.counters(h);
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
