// Shared benchmark framework: the Dwarf interface every benchmark
// implements, problem-size naming, validation helpers, and a deterministic
// RNG for workload generation.
//
// The paper's methodology (§4.4) drives the interface: each benchmark must
// expose its device-side memory footprint per problem size (the Table 2
// working-set equations), generate its own input data, run through the xcl
// runtime, and validate results against a serial reference "either by
// directly comparing outputs against a serial implementation ... or by
// adding utilities to compare norms".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/trace_replay.hpp"
#include "xcl/buffer.hpp"
#include "xcl/host_memory.hpp"
#include "xcl/queue.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

using xcl::HostVector;

/// The four problem-size classes of §4.4, anchored to the Skylake memory
/// hierarchy: tiny -> 32 KiB L1, small -> 256 KiB L2, medium -> 8 MiB L3,
/// large -> at least 4x L3 (out of cache).
enum class ProblemSize : std::uint8_t { kTiny, kSmall, kMedium, kLarge };

inline constexpr ProblemSize kAllSizes[] = {
    ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
    ProblemSize::kLarge};

[[nodiscard]] const char* to_string(ProblemSize s) noexcept;
[[nodiscard]] std::optional<ProblemSize> parse_problem_size(
    const std::string& name) noexcept;

/// Result of comparing device output with the serial reference.
struct Validation {
  bool ok = false;
  double error = 0.0;      ///< metric value (max abs diff or relative norm)
  std::string detail;      ///< human-readable explanation
};

/// Relative L2-norm difference ||a-b|| / ||b|| (paper: "compare norms").
[[nodiscard]] double rel_l2_diff(std::span<const float> a,
                                 std::span<const float> b);
[[nodiscard]] double max_abs_diff(std::span<const float> a,
                                  std::span<const float> b);

/// Builds a Validation from a relative-norm comparison with tolerance.
[[nodiscard]] Validation validate_norm(std::span<const float> got,
                                       std::span<const float> want,
                                       double tolerance,
                                       const std::string& what);

/// splitmix64: small deterministic RNG for input generation (keeps every
/// benchmark's dataset reproducible across runs and platforms).  It is a
/// counter generator: draw k (from 0) mixes state seed + (k+1)*kGamma, so
/// any point of a stream is reachable in O(1) through at().
class SplitMix64 {
 public:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  /// The generator `seed` becomes after `draws` calls of next().
  [[nodiscard]] static SplitMix64 at(std::uint64_t seed, std::uint64_t draws) {
    return SplitMix64(seed + draws * kGamma);
  }
  std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform float in [0, 1).  One draw, as are the two overloads below.
  float uniform() {
    return static_cast<float>(next() >> 40) * (1.0f / 16777216.0f);
  }
  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Pool tasks for `n` independent items of similar cost: four per pool
/// participant (the workers and the calling thread), so the work balances,
/// and never more than `n`.
[[nodiscard]] inline std::size_t pool_tasks(std::size_t n) {
  return std::min<std::size_t>(
      n, 4 * (std::size_t{xcl::ThreadPool::global().size()} + 1));
}

/// Items per generate_indexed chunk (one pool iteration): small enough
/// that a few hundred thousand items still split into several chunks per
/// pool participant.
inline constexpr std::size_t kGenerateChunk = std::size_t{1} << 12;

/// Runs gen(rng, i) for every i in [0, n), where gen draws exactly
/// `draws_per_item` values from rng: bit-identical to the serial loop
///   SplitMix64 rng(seed); for (i = 0; i < n; ++i) gen(rng, i);
/// but chunks of kGenerateChunk items run on the shared pool, each starting
/// from its own SplitMix64::at(seed, first_item * draws_per_item).
template <typename Gen>
void generate_indexed(std::size_t n, std::uint64_t seed,
                      std::size_t draws_per_item, const Gen& gen) {
  const std::size_t chunks = (n + kGenerateChunk - 1) / kGenerateChunk;
  xcl::ThreadPool::global().parallel_for(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kGenerateChunk;
    const std::size_t hi = std::min(n, lo + kGenerateChunk);
    SplitMix64 rng = SplitMix64::at(seed, lo * draws_per_item);
    for (std::size_t i = lo; i < hi; ++i) gen(rng, i);
  });
}

/// FNV-1a offset basis: the seed of a fresh signature.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
/// Bytes per hash_bytes chunk.
inline constexpr std::size_t kHashChunk = std::size_t{1} << 15;
/// Inputs shorter than this hash in one serial pass (no whole chunks).
inline constexpr std::size_t kHashParallelMin = std::size_t{1} << 20;

/// FNV-1a over raw bytes: exactly the serial loop
///   h = seed; for (b : bytes) h = (h ^ b) * 0x100000001b3;
/// but inputs of kHashParallelMin bytes or more run their whole
/// kHashChunk-byte chunks on `pool` (DESIGN.md §7, "Output signatures").
/// The value depends only on the bytes and the seed, never on the pool's
/// width or the chunk size.
[[nodiscard]] std::uint64_t hash_bytes(
    std::span<const std::byte> bytes, std::uint64_t seed = kFnvOffsetBasis,
    xcl::ThreadPool& pool = xcl::ThreadPool::global());

/// FNV-1a over a typed output vector, for Dwarf::result_signature
/// implementations.  Byte-exact: two runs hash equal iff every output
/// element is bit-identical (NaN payloads and signed zeros included).
template <typename T>
[[nodiscard]] std::uint64_t hash_result(std::span<const T> data,
                                        std::uint64_t seed = kFnvOffsetBasis) {
  static_assert(std::is_trivially_copyable_v<T>);
  return hash_bytes(std::as_bytes(data), seed);
}

/// rows * cols elements of `elem_bytes` each, for a configure() that sizes
/// an array from two of its arguments.  Throws std::invalid_argument
/// naming `what` (the arguments, e.g. "lud: n x n") when the byte count
/// does not fit std::size_t, before anything is allocated.
[[nodiscard]] std::size_t checked_elements(std::size_t rows, std::size_t cols,
                                           std::size_t elem_bytes,
                                           const std::string& what);

/// Deferred input generation (DESIGN.md §5, "Model-only measurements").
/// configure() checks its arguments, sizes the input arrays (untouched
/// HostVector pages cost nothing) and calls reset().  Every reader of the
/// input -- a functional bind(), validate(), a public input accessor, a
/// trace that reads data -- calls ensure(gen) first, which runs the
/// generator once per configure(), on the calling thread, and counts it
/// in "dwarfs.input_fills".  Entry points that install caller data call
/// mark_filled(), so the generator never overwrites it.  A model-only
/// sweep reads no input, so it generates none.  The arrays a generator
/// writes are `mutable`: filling them is a const reader's first step.  Like
/// the rest of a dwarf, the flag is used from one thread at a time.
class InputFill {
 public:
  void reset() noexcept { filled_ = false; }
  void mark_filled() noexcept { filled_ = true; }
  /// Runs `gen` unless the input is already filled, then marks it filled.
  void ensure(const std::function<void()>& gen) const;

 private:
  mutable bool filled_ = true;  // nothing to generate before configure()
};

/// A benchmark in the suite.  Lifecycle:
///   setup(size)  -- shape the host-side input (device independent); the
///                   data is generated on its first read (InputFill)
///   bind(ctx,q)  -- allocate device buffers and enqueue initial transfers
///   run()        -- enqueue one application iteration's kernels (§2: the
///                   harness loops this for >= 2 s)
///   finish()     -- read results back
///   validate()   -- compare with the serial reference
/// bind/run/finish may be repeated for multiple devices after one setup().
class Dwarf {
 public:
  virtual ~Dwarf() = default;

  /// Benchmark id as used in the paper's tables ("kmeans", "lud", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  /// The Berkeley dwarf the benchmark represents ("MapReduce", ...).
  [[nodiscard]] virtual std::string berkeley_dwarf() const = 0;
  /// Sizes the benchmark supports (nqueens: one size; hmm: tiny validated).
  [[nodiscard]] virtual std::vector<ProblemSize> supported_sizes() const {
    return {kAllSizes, kAllSizes + 4};
  }
  /// The Table 2 scale parameter cell for a size (e.g. "65600", "1152x864").
  [[nodiscard]] virtual std::string scale_parameter(ProblemSize s) const = 0;
  /// Device-side footprint in bytes, from the benchmark's working-set
  /// equation (verified against Context::allocated_bytes in tests).
  [[nodiscard]] virtual std::size_t footprint_bytes(ProblemSize s) const = 0;

  virtual void setup(ProblemSize size) = 0;
  virtual void bind(xcl::Context& ctx, xcl::Queue& q) = 0;
  virtual void run() = 0;
  virtual void finish() = 0;
  [[nodiscard]] virtual Validation validate() = 0;
  /// Releases device buffers (must leave the dwarf re-bindable).
  virtual void unbind() = 0;

  /// Order-sensitive hash over the benchmark's host-side output vectors
  /// (valid after finish(); 0 when the dwarf does not implement it).
  /// Unlike validate(), which tolerates rounding, equal signatures mean
  /// bit-identical results -- the span-tier equivalence tests pin the span
  /// kernels to the per-item reference path with it.
  [[nodiscard]] virtual std::uint64_t result_signature() const { return 0; }

  /// Optional single-iteration memory trace for the cache simulator
  /// (§4.4: used to verify size classes land in the intended cache level).
  /// Emits into a batched (optionally line-coalescing) writer so large
  /// traces never materialise and never pay a per-access callback.
  /// Overriders should add `using Dwarf::stream_trace;` so the legacy
  /// per-access overload below stays visible on the concrete type.
  virtual void stream_trace(sim::TraceWriter& out) const { (void)out; }

  /// Exact (or best-effort) number of accesses stream_trace will emit for
  /// the current setup; 0 when unknown or trace-less.  Lets memory_trace()
  /// reserve and lets callers refuse oversized replays up front.
  [[nodiscard]] virtual std::size_t trace_size_hint() const { return 0; }

  /// Legacy per-access streaming interface, adapted onto the batched one.
  void stream_trace(
      const std::function<void(const sim::MemAccess&)>& sink) const {
    sim::FunctionTraceSink fn_sink(sink);
    sim::TraceWriter writer(fn_sink);
    stream_trace(writer);
  }

  /// Convenience: collects stream_trace into a vector (small sizes only).
  [[nodiscard]] sim::MemoryTrace memory_trace() const {
    sim::MemoryTrace t;
    t.reserve(trace_size_hint());
    sim::VectorTraceSink vec_sink(t);
    sim::TraceWriter writer(vec_sink);
    stream_trace(writer);
    writer.finish();
    return t;
  }
};

}  // namespace eod::dwarfs
