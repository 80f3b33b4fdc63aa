// Host memory and input synthesis primitives (DESIGN.md §5): the counter
// RNG's O(1) jump, generate_indexed's chunked fill against a serial loop,
// and allocate_host's huge-page blocks behind HostVector and Buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dwarfs/common.hpp"
#include "sim/testbed.hpp"
#include "xcl/buffer.hpp"
#include "xcl/check/report.hpp"
#include "xcl/check/session.hpp"
#include "xcl/context.hpp"
#include "xcl/host_memory.hpp"
#include "xcl/kernel.hpp"
#include "xcl/queue.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define EOD_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EOD_TEST_ASAN 1
#endif
#endif

namespace eod {
namespace {

using dwarfs::kGenerateChunk;
using dwarfs::SplitMix64;
using xcl::HostVector;
using xcl::kHugePageBytes;

bool aligned_to(const void* p, std::size_t to) {
  return reinterpret_cast<std::uintptr_t>(p) % to == 0;
}

TEST(SplitMix64, AtJumpsEqualThatManyNextCalls) {
  for (const std::uint64_t seed : {0ull, 0x6c7564ull, ~0ull}) {
    SplitMix64 serial(seed);
    for (std::uint64_t k = 0; k <= 1000; ++k) {
      SplitMix64 jumped = SplitMix64::at(seed, k);
      SplitMix64 copy = serial;
      ASSERT_EQ(jumped.next(), copy.next()) << "seed " << seed << " k " << k;
      (void)serial.next();
    }
  }
}

// Every chunk boundary case, with items that draw 1, 2 or 5 values and
// mix in their index, against the serial loop the helper replaces.
TEST(GenerateIndexed, MatchesTheSerialLoopBitForBit) {
  constexpr std::uint64_t kSeed = 0x5eedull;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kGenerateChunk - 1, kGenerateChunk,
        kGenerateChunk + 1, 5 * kGenerateChunk + 3}) {
    for (const std::size_t draws : {1u, 2u, 5u}) {
      const auto item = [draws](SplitMix64& rng, std::size_t i) {
        std::uint64_t v = i;
        for (std::size_t d = 0; d < draws; ++d) v = v * 31 + rng.next();
        return v;
      };
      std::vector<std::uint64_t> want(n);
      SplitMix64 rng(kSeed);
      for (std::size_t i = 0; i < n; ++i) want[i] = item(rng, i);
      HostVector<std::uint64_t> got(n);
      dwarfs::generate_indexed(n, kSeed, draws,
                               [&](SplitMix64& r, std::size_t i) {
                                 got[i] = item(r, i);
                               });
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "n " << n << " draws " << draws;
    }
  }
}

TEST(HostMemory, BlocksAreZeroFilledAlignedAndWritableAroundTheThreshold) {
  for (const std::size_t bytes :
       {std::size_t{1}, std::size_t{4097}, kHugePageBytes - 1, kHugePageBytes,
        kHugePageBytes + 1}) {
    auto* p = static_cast<std::uint8_t*>(xcl::allocate_host(bytes));
    EXPECT_TRUE(aligned_to(p, xcl::kHostAlignment)) << bytes;
    if (bytes >= kHugePageBytes) {
      EXPECT_TRUE(aligned_to(p, kHugePageBytes)) << bytes;
    }
    EXPECT_EQ(static_cast<std::size_t>(std::count(p, p + bytes, 0)), bytes)
        << bytes;
    std::fill(p, p + bytes, std::uint8_t{0xA5});
    EXPECT_EQ(p[bytes - 1], 0xA5);
    xcl::free_host(p, bytes);
  }
}

TEST(HostVector, GrowthAcrossTheThresholdKeepsContentsAndReadsZero) {
  HostVector<std::uint32_t> v;
  const std::size_t past = kHugePageBytes / sizeof(std::uint32_t) + 5;
  for (std::uint32_t i = 0; i < past; ++i) v.push_back(i * 3);
  EXPECT_TRUE(aligned_to(v.data(), kHugePageBytes));
  for (std::uint32_t i = 0; i < past; ++i) ASSERT_EQ(v[i], i * 3);
  // Growing into fresh storage default-initializes: the block's zeros.
  v.resize(4 * past);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(v.begin() + static_cast<std::ptrdiff_t>(past),
                           v.end(), 0u)),
            3 * past);
  v.clear();
  v.shrink_to_fit();
  v.assign(16, 7u);  // back under the threshold: a calloc block
  EXPECT_TRUE(aligned_to(v.data(), xcl::kHostAlignment));
  EXPECT_EQ(v, HostVector<std::uint32_t>(16, 7u));
}

xcl::Device& test_device() { return sim::testbed_device("i7-6700K"); }

TEST(HostMemory, MappedBufferMovesAndReturnsContextAccounting) {
  xcl::Context ctx(test_device());
  const std::size_t bytes = kHugePageBytes + 4;
  {
    xcl::Buffer a(ctx, bytes);
    EXPECT_TRUE(aligned_to(a.data(), kHugePageBytes));
    a.view<std::uint8_t>()[bytes - 1] = 9;
    xcl::Buffer b(std::move(a));
    EXPECT_EQ(a.bytes(), 0u);
    EXPECT_EQ(ctx.allocated_bytes(), bytes);
    xcl::Buffer c(ctx, 64);
    c = std::move(b);  // the 64 B block is freed first
    EXPECT_EQ(ctx.allocated_bytes(), bytes);
    EXPECT_EQ(ctx.peak_allocated_bytes(), bytes + 64);
    EXPECT_EQ(c.view<const std::uint8_t>()[bytes - 1], 9);
  }
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
}

TEST(HostMemory, CheckedTierFlagsAnOutOfBoundsWriteOnAMappedBuffer) {
  xcl::check::CheckSession session;
  xcl::Context ctx(test_device());
  xcl::Queue q(ctx);
  const std::size_t n = kHugePageBytes / sizeof(float);
  xcl::Buffer buf(ctx, n * sizeof(float));
  auto out = buf.access<float>("mapped");
  xcl::Kernel oob("mapped_oob", [=](xcl::WorkItem& it) {
    out[n - 8 + it.global_id(0)] = 1.0f;  // items 8..15 run past the end
  });
  xcl::WorkloadProfile p;
  p.bytes_written = 64.0;
  p.working_set_bytes = 64.0;
  q.enqueue(oob, xcl::NDRange(16, 16), p);
  const xcl::check::CheckReport report = session.take_report();
  bool flagged = false;
  for (const xcl::check::Finding& f : report.findings()) {
    if (f.kind == xcl::check::FindingKind::kOutOfBounds) {
      flagged = true;
      EXPECT_EQ(f.buffer, "mapped");
      EXPECT_EQ(f.occurrences, 8u);
    }
  }
  EXPECT_TRUE(flagged);
}

#ifdef EOD_TEST_ASAN
// The slack between the requested size and the mapping's page end is
// poisoned, so AddressSanitizer reports a write one past the end instead of
// letting it land in the block's own slack.
TEST(HostMemoryDeathTest, WriteOnePastAMappedVectorIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        HostVector<std::uint8_t> v(kHugePageBytes + 4);
        volatile std::uint8_t* p = v.data();
        p[v.size()] = 1;
      },
      "AddressSanitizer");
}
#endif

}  // namespace
}  // namespace eod
