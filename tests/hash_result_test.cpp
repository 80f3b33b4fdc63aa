// Output signatures (DESIGN.md §7): hash_result must return exactly the
// serial byte-at-a-time FNV-1a value at every length, element type, seed,
// data pattern and pool width, because every pinned result_signature() and
// medium pin is that value.
#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dwarfs/common.hpp"
#include "xcl/thread_pool.hpp"

namespace eod {
namespace {

using dwarfs::hash_result;
using dwarfs::kFnvOffsetBasis;
using dwarfs::kHashChunk;
using dwarfs::kHashParallelMin;

// The definition, one byte at a time.
std::uint64_t byte_loop(std::span<const std::byte> bytes,
                        std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t h = seed;
  for (const std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t byte_loop(const std::vector<T>& v,
                        std::uint64_t seed = kFnvOffsetBasis) {
  return byte_loop(std::as_bytes(std::span<const T>(v)), seed);
}

template <typename T>
std::uint64_t hash(const std::vector<T>& v,
                   std::uint64_t seed = kFnvOffsetBasis) {
  return hash_result<T>(v, seed);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  dwarfs::SplitMix64 rng(seed);
  for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// Several whole chunks past the threshold, a chunk count that leaves a
// short last task group, and an odd tail.
constexpr std::size_t kMultiChunk = kHashParallelMin + 7 * kHashChunk + 3;

TEST(HashResult, MatchesByteLoopAtEveryBoundaryLength) {
  const std::size_t k = kHashParallelMin / kHashChunk + 5;
  const std::vector<std::uint8_t> data = random_bytes((k + 1) * kHashChunk, 1);
  const std::size_t lengths[] = {0,
                                 1,
                                 kHashChunk - 1,
                                 kHashChunk,
                                 kHashChunk + 1,
                                 kHashParallelMin - 1,
                                 kHashParallelMin,
                                 kHashParallelMin + 1,
                                 (k - 1) * kHashChunk - 1,
                                 (k - 1) * kHashChunk + 1,
                                 k * kHashChunk - 1,
                                 k * kHashChunk,
                                 k * kHashChunk + 1};
  for (const std::size_t n : lengths) {
    const std::span<const std::uint8_t> prefix(data.data(), n);
    EXPECT_EQ(hash_result(prefix), byte_loop(std::as_bytes(prefix)))
        << "length " << n;
  }
}

TEST(HashResult, MatchesByteLoopForEveryElementType) {
  const std::vector<std::uint8_t> bytes = random_bytes(kMultiChunk, 2);
  std::vector<std::int32_t> ints(kMultiChunk / sizeof(std::int32_t) + 5);
  std::vector<float> floats(kMultiChunk / sizeof(float) + 3);
  std::vector<std::complex<double>> complexes(
      kMultiChunk / sizeof(std::complex<double>) + 1);
  dwarfs::SplitMix64 rng(3);
  for (std::int32_t& x : ints) x = static_cast<std::int32_t>(rng.next());
  for (float& x : floats) x = rng.uniform(-1e6f, 1e6f);
  for (std::complex<double>& x : complexes) {
    x = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f)};
  }
  floats[7] = -0.0f;
  EXPECT_EQ(hash(bytes), byte_loop(bytes));
  EXPECT_EQ(hash(ints), byte_loop(ints));
  EXPECT_EQ(hash(floats), byte_loop(floats));
  EXPECT_EQ(hash(complexes), byte_loop(complexes));
  const std::vector<float> short_floats(floats.begin(), floats.begin() + 33);
  EXPECT_EQ(hash(short_floats), byte_loop(short_floats));
}

TEST(HashResult, MatchesByteLoopFromEverySeedShape) {
  const std::vector<std::uint8_t> a = random_bytes(kMultiChunk, 4);
  const std::vector<std::uint8_t> b = random_bytes(kHashParallelMin + 1, 5);
  // Chained, as the tests' hash_arrays folds several arrays into one value.
  EXPECT_EQ(hash(b, hash(a)), byte_loop(b, byte_loop(a)));
  dwarfs::SplitMix64 rng(6);
  for (const std::uint64_t low : {0x00ull, 0xffull, 0x5aull}) {
    const std::uint64_t seed = (rng.next() & ~0xffull) | low;
    EXPECT_EQ(hash(a, seed), byte_loop(a, seed)) << std::hex << seed;
  }
  EXPECT_EQ(hash(a, 0), byte_loop(a, 0));
  EXPECT_EQ(hash(a, ~0ull), byte_loop(a, ~0ull));
}

TEST(HashResult, MatchesByteLoopOnEveryDataPattern) {
  std::vector<std::uint8_t> data(kMultiChunk, 0x00);
  EXPECT_EQ(hash(data), byte_loop(data)) << "all zero";
  std::fill(data.begin(), data.end(), 0xff);
  EXPECT_EQ(hash(data), byte_loop(data)) << "all 0xff";
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(hash(data), byte_loop(data)) << "every byte value repeated";
  data = random_bytes(kMultiChunk, 7);
  EXPECT_EQ(hash(data), byte_loop(data)) << "random";
}

TEST(HashResult, SameValueOnAnyPoolWidthAndInsideAPoolTask) {
  const std::vector<std::uint8_t> data = random_bytes(kMultiChunk, 8);
  const std::uint64_t want = byte_loop(data);
  const auto bytes = std::as_bytes(std::span<const std::uint8_t>(data));
  for (const unsigned workers : {1u, 2u, 3u}) {
    xcl::ThreadPool pool(workers);
    EXPECT_EQ(dwarfs::hash_bytes(bytes, kFnvOffsetBasis, pool), want)
        << workers << " worker(s)";
  }
  // A nested parallel_for runs inline on the calling task.
  std::vector<std::uint64_t> got(2, 0);
  xcl::ThreadPool::global().parallel_for(got.size(), [&](std::size_t i) {
    got[i] = hash(data);
  });
  EXPECT_EQ(got[0], want);
  EXPECT_EQ(got[1], want);
}

TEST(HashResult, OneBitFlipAnywhereChangesTheHash) {
  std::vector<std::uint8_t> data = random_bytes(kMultiChunk, 9);
  const std::uint64_t clean = hash(data);
  for (const std::size_t at : {std::size_t{0}, data.size() / 2,
                               data.size() - 1}) {
    data[at] ^= 0x10;
    const std::uint64_t flipped = hash(data);
    EXPECT_NE(flipped, clean) << "bit flip at byte " << at;
    EXPECT_EQ(flipped, byte_loop(data)) << "bit flip at byte " << at;
    data[at] ^= 0x10;
  }
}

}  // namespace
}  // namespace eod
