#include "dwarfs/common.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace eod::dwarfs {

const char* to_string(ProblemSize s) noexcept {
  switch (s) {
    case ProblemSize::kTiny:
      return "tiny";
    case ProblemSize::kSmall:
      return "small";
    case ProblemSize::kMedium:
      return "medium";
    case ProblemSize::kLarge:
      return "large";
  }
  return "unknown";
}

std::optional<ProblemSize> parse_problem_size(
    const std::string& name) noexcept {
  if (name == "tiny") return ProblemSize::kTiny;
  if (name == "small") return ProblemSize::kSmall;
  if (name == "medium") return ProblemSize::kMedium;
  if (name == "large") return ProblemSize::kLarge;
  return std::nullopt;
}

double rel_l2_diff(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return HUGE_VAL;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : HUGE_VAL;
  return std::sqrt(num / den);
}

double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return HUGE_VAL;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

Validation validate_norm(std::span<const float> got,
                         std::span<const float> want, double tolerance,
                         const std::string& what) {
  Validation v;
  v.error = rel_l2_diff(got, want);
  v.ok = v.error <= tolerance;
  std::ostringstream os;
  os << what << ": relative L2 difference " << v.error << " (tolerance "
     << tolerance << ")";
  v.detail = os.str();
  return v;
}

std::size_t checked_elements(std::size_t rows, std::size_t cols,
                             std::size_t elem_bytes, const std::string& what) {
  std::size_t elements = 0;
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(rows, cols, &elements) ||
      __builtin_mul_overflow(elements, elem_bytes, &bytes)) {
    throw std::invalid_argument(what + " = " + std::to_string(rows) + " x " +
                                std::to_string(cols) +
                                " elements overflow the address space");
  }
  return elements;
}

void InputFill::ensure(const std::function<void()>& gen) const {
  if (filled_) return;
  gen();
  filled_ = true;
  static obs::Counter& fills = obs::counter("dwarfs.input_fills");
  fills.add(1);
}

namespace {

// ---------------------------------------------------------------------------
// hash_bytes: FNV-1a, h <- (h ^ b) * P mod 2^64, computed chunk-parallel
// with the serial loop's exact value (DESIGN.md §7, "Output signatures").
// XOR with a byte touches only the low byte of h and P is odd, so a chunk
// of m bytes maps h to (h - (h & 0xff)) * P^m + FNV(h & 0xff): only the low
// byte crosses a chunk boundary.  That byte evolves as l <- 179 (l ^ b)
// mod 256 and its low nibble as n <- 3 (n ^ b) mod 16.  Pass 1 runs all 16
// start nibbles through each chunk; chaining those maps gives every chunk's
// true start nibble.  Pass 2 runs the 16 start bytes with that nibble;
// chaining gives every chunk's true start byte.  Pass 3 hashes each chunk
// from its start byte, and the first identity folds the chunks in order.

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
// Chunks one pool task walks side by side, so their per-byte dependency
// chains overlap in the pipeline (the unroll pragmas below match it).
constexpr std::size_t kChunksPerTask = 4;

// Sixteen byte lanes, one per start nibble; Lanes16 holds eight 16-bit
// lanes, whose products keep an exact low byte.
using Lanes8 = std::uint8_t __attribute__((vector_size(16)));
using Lanes16 = std::uint16_t __attribute__((vector_size(16)));
using LaneMap = std::array<std::uint8_t, 16>;  // start lane -> end value

// kSplat[b] is byte b in all 16 lanes: one load per input byte.
struct alignas(16) Splat {
  std::array<std::uint8_t, 16> lane;
};
constexpr std::array<Splat, 256> kSplat = [] {
  std::array<Splat, 256> t{};
  for (std::size_t b = 0; b < t.size(); ++b) {
    t[b].lane.fill(static_cast<std::uint8_t>(b));
  }
  return t;
}();

template <typename V>
V splat(unsigned char b) {
  V v;
  std::memcpy(&v, &kSplat[b], sizeof v);
  return v;
}

std::uint64_t fnv1a(const unsigned char* p, std::size_t n, std::uint64_t h) {
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// The chunks of one task, as byte pointers and chunk indices.  A short last
// group repeats its last chunk; the repeat writes the same value twice.
struct Group {
  std::array<const unsigned char*, kChunksPerTask> data{};
  std::array<std::size_t, kChunksPerTask> index{};

  Group(const unsigned char* base, std::size_t task, std::size_t chunks) {
    for (std::size_t g = 0; g < kChunksPerTask; ++g) {
      index[g] = std::min(task * kChunksPerTask + g, chunks - 1);
      data[g] = base + index[g] * kHashChunk;
    }
  }
};

// Pass 1: end low nibble for each start nibble.  Byte lanes run
// v <- 3 (v ^ b) mod 256, whose low nibble is the true one: the low nibble
// of a product depends only on the low nibbles of its factors.
void nibble_maps(const Group& grp, LaneMap* maps) {
  std::array<Lanes8, kChunksPerTask> s;
  s.fill(Lanes8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  for (std::size_t i = 0; i < kHashChunk; ++i) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < kChunksPerTask; ++g) {
      const Lanes8 x = s[g] ^ splat<Lanes8>(grp.data[g][i]);
      s[g] = x + x + x;
    }
  }
  for (std::size_t g = 0; g < kChunksPerTask; ++g) {
    const Lanes8 end = s[g] & 15;
    std::memcpy(maps[grp.index[g]].data(), &end, sizeof end);
  }
}

// Pass 2: end low byte for each high nibble h of the start byte
// 16 h + nibble[chunk].  16-bit lanes run v <- (v ^ b) * P; the splat's
// copy of b in the high byte only disturbs bits the low byte never sees.
void byte_maps(const Group& grp, const std::uint8_t* nibble, LaneMap* maps) {
  constexpr auto kMul = static_cast<std::uint16_t>(kFnvPrime);
  std::array<std::array<Lanes16, 2>, kChunksPerTask> s;
  for (std::size_t g = 0; g < kChunksPerTask; ++g) {
    for (int h = 0; h < 16; ++h) {
      s[g][h / 8][h % 8] =
          static_cast<std::uint16_t>(h << 4 | nibble[grp.index[g]]);
    }
  }
  for (std::size_t i = 0; i < kHashChunk; ++i) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < kChunksPerTask; ++g) {
      const auto b = splat<Lanes16>(grp.data[g][i]);
      s[g][0] = (s[g][0] ^ b) * kMul;
      s[g][1] = (s[g][1] ^ b) * kMul;
    }
  }
  for (std::size_t g = 0; g < kChunksPerTask; ++g) {
    for (int h = 0; h < 16; ++h) {
      maps[grp.index[g]][h] = static_cast<std::uint8_t>(s[g][h / 8][h % 8]);
    }
  }
}

// Pass 3: plain FNV-1a of each chunk from its true start byte.
void chunk_hashes(const Group& grp, const std::uint8_t* low,
                  std::uint64_t* out) {
  std::array<std::uint64_t, kChunksPerTask> h{};
  for (std::size_t g = 0; g < kChunksPerTask; ++g) h[g] = low[grp.index[g]];
  for (std::size_t i = 0; i < kHashChunk; ++i) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < kChunksPerTask; ++g) {
      h[g] = (h[g] ^ grp.data[g][i]) * kFnvPrime;
    }
  }
  for (std::size_t g = 0; g < kChunksPerTask; ++g) out[grp.index[g]] = h[g];
}

constexpr std::uint64_t pow_mod64(std::uint64_t base, std::size_t e) {
  std::uint64_t r = 1;
  for (; e != 0; e >>= 1, base *= base) {
    if ((e & 1) != 0) r *= base;
  }
  return r;
}

}  // namespace

std::uint64_t hash_bytes(std::span<const std::byte> bytes, std::uint64_t seed,
                         xcl::ThreadPool& pool) {
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t chunks =
      bytes.size() >= kHashParallelMin ? bytes.size() / kHashChunk : 0;
  const std::size_t tasks = (chunks + kChunksPerTask - 1) / kChunksPerTask;
  std::vector<LaneMap> maps(chunks);
  std::vector<std::uint8_t> start(chunks);  // true start nibble, then byte
  std::vector<std::uint64_t> hashes(chunks);

  pool.parallel_for(tasks, [&](std::size_t t) {
    nibble_maps(Group(base, t, chunks), maps.data());
  });
  std::uint8_t nibble = seed & 15;
  for (std::size_t c = 0; c < chunks; ++c) {
    start[c] = nibble;
    nibble = maps[c][nibble];
  }
  pool.parallel_for(tasks, [&](std::size_t t) {
    byte_maps(Group(base, t, chunks), start.data(), maps.data());
  });
  std::uint8_t low = seed & 0xff;
  for (std::size_t c = 0; c < chunks; ++c) {
    start[c] = low;
    low = maps[c][low >> 4];
  }
  pool.parallel_for(tasks, [&](std::size_t t) {
    chunk_hashes(Group(base, t, chunks), start.data(), hashes.data());
  });

  constexpr std::uint64_t kChunkPower = pow_mod64(kFnvPrime, kHashChunk);
  std::uint64_t h = seed;
  for (const std::uint64_t chunk_hash : hashes) {
    h = (h - (h & 0xff)) * kChunkPower + chunk_hash;
  }
  const std::size_t done = chunks * kHashChunk;
  return fnv1a(base + done, bytes.size() - done, h);
}

}  // namespace eod::dwarfs
