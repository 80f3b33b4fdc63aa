// Kernel-tier dispatch microbench (DESIGN.md §9), in two parts.
//
// Part 1: the same two synthetic kernels -- one memory-bound (saxpy over a
// float stream), one compute-bound (a 64-deep dependent FMA chain per
// item) -- executed through each of the three tiers the executor offers:
//
//   fiber  the kernel declares barriers, every group runs as a fiber set
//   loop   the per-item reference path (--dispatch=item)
//   span   one RangeKernelRef call per work-group over [begin, end)
//
// The quantity reported is work-items/sec.  On the memory-bound kernel the
// per-item tiers pay a std::function call plus a WorkItem construction per
// element while the span tier runs a restrict-qualified vector loop, so
// the gap is the dispatch overhead the span tier exists to remove
// (acceptance target: >= 5x span vs loop).  On the compute-bound kernel
// real work dominates and the tiers converge -- the control that shows the
// span win is overhead elimination, not different arithmetic.
//
// Part 2: seven dwarfs' real application iterations -- setup/bind once,
// then timed run()+finish() reps -- under --dispatch=item and
// --dispatch=auto (each kernel's one fast body: explicit vectors for
// kmeans, gem, srad, dwt's vertical pass and lud's perimeter row and
// interior blocks, slice-by-8 for crc, an autovectorized loop for csr).
// Before any timing, every dwarf's auto output is checked bit-identical
// to the item reference via result_signature(); a speedup over a wrong
// answer is not a speedup.  Acceptance: fast/item >= 1.5x on at least two
// of the seven dwarfs.
//
// Part 3: output signatures.  dwarfs::hash_result against the serial
// byte-at-a-time FNV-1a it must equal, on 64 MiB of random bytes, in ns
// per MiB.  The two values must be identical; with >= 4 pool workers
// hash_result must be >= 1.5x faster.
//
// Part 4: dataset setup.  Dwarf::setup() of the four dwarfs whose input
// generators dominate a suite sweep's setup (dwt, csr, gem, nqueens), at
// every size the sweep runs, each rep on a fresh dwarf; the median is
// written as setup_<dwarf>_<size>_ms.  dwt and gem generate their input
// on its first read, not in setup(), so their time includes that read
// (Dwt::input(), Gem::molecule()).  Host times, advisory: no gate.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dwarfs/common.hpp"
#include "dwarfs/dwt/dwt.hpp"
#include "dwarfs/gem/gem.hpp"
#include "dwarfs/registry.hpp"
#include "scibench/timer.hpp"
#include "sim/testbed.hpp"
#include "xcl/context.hpp"
#include "xcl/executor.hpp"
#include "xcl/kernel.hpp"
#include "xcl/queue.hpp"
#include "xcl/simd.hpp"
#include "xcl/thread_pool.hpp"

namespace {

using namespace eod;

constexpr std::size_t kLocal = 256;
// The fiber tier suspends/resumes a ucontext per item; it gets a smaller
// grid so the benchmark stays quick, and the items/sec normalization keeps
// the tiers comparable.
constexpr std::size_t kMemItems = std::size_t{1} << 21;
constexpr std::size_t kComputeItems = std::size_t{1} << 18;
constexpr std::size_t kFiberItems = std::size_t{1} << 15;
constexpr int kWarmup = 2;
constexpr int kReps = 7;
constexpr int kFmaDepth = 64;
constexpr int kDwarfWarmup = 1;
constexpr int kDwarfReps = 5;
constexpr double kDwarfGateRatio = 1.5;
constexpr int kDwarfGateCount = 2;
constexpr std::size_t kSignatureBytes = std::size_t{64} << 20;
constexpr double kSignatureGateRatio = 1.5;
constexpr unsigned kSignatureGateWorkers = 4;
constexpr int kSetupReps = 5;
constexpr const char* kSetupDwarfs[] = {"dwt", "csr", "gem", "nqueens"};

struct ScopedDispatchMode {
  explicit ScopedDispatchMode(xcl::DispatchMode m) {
    xcl::set_dispatch_mode(m);
  }
  ~ScopedDispatchMode() { xcl::set_dispatch_mode(prev); }
  xcl::DispatchMode prev = xcl::dispatch_mode();
};

// Best rep, not the mean: the container shares one core, so any rep can
// absorb an unrelated scheduling bubble and the mean under-reports both
// tiers by different amounts; the fastest rep is the uncontended rate.
// Raw per-rep samples are also kept for the BENCH_kernels.json percentiles.
template <typename LaunchFn>
double mitems_per_second(std::size_t items, LaunchFn&& launch,
                         std::vector<double>* samples_ns = nullptr) {
  for (int i = 0; i < kWarmup; ++i) launch();
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < kReps; ++i) {
    const std::uint64_t t0 = scibench::now_ns();
    launch();
    const std::uint64_t t1 = scibench::now_ns();
    best = std::min(best, t1 - t0);
    if (samples_ns != nullptr) {
      samples_ns->push_back(static_cast<double>(t1 - t0));
    }
  }
  return static_cast<double>(items) * 1e3 / static_cast<double>(best);
}

struct KernelSet {
  xcl::Kernel plain;  ///< per-item body + span body (loop/span tiers)
  xcl::Kernel fiber;  ///< same per-item body behind a barrier (fiber tier)
};

// y[i] = a * x[i] + y[i]: one multiply-add per 8 streamed bytes.
KernelSet memory_bound(const float* x, float* y) {
  constexpr float a = 1.25f;
  auto body = [=](xcl::WorkItem& it) {
    const std::size_t i = it.global_id(0);
    y[i] = a * x[i] + y[i];
  };
  KernelSet set{xcl::Kernel("saxpy", body),
                xcl::Kernel("saxpy_barrier", [=](xcl::WorkItem& it) {
                  it.barrier();
                  body(it);
                })};
  set.fiber.uses_barriers();
  set.plain.span([=](std::size_t begin, std::size_t end) {
    const float* EOD_RESTRICT xp = x;
    float* EOD_RESTRICT yp = y;
    for (std::size_t i = begin; i < end; ++i) yp[i] = a * xp[i] + yp[i];
  });
  return set;
}

// A dependent 64-FMA chain per item: arithmetic latency dominates and the
// dispatch tiers should converge.
KernelSet compute_bound(const float* x, float* y) {
  auto chain = [](float v) {
    for (int j = 0; j < kFmaDepth; ++j) v = v * 1.000001f + 0.5f;
    return v;
  };
  auto body = [=](xcl::WorkItem& it) {
    const std::size_t i = it.global_id(0);
    y[i] = chain(x[i]);
  };
  KernelSet set{xcl::Kernel("fma_chain", body),
                xcl::Kernel("fma_chain_barrier", [=](xcl::WorkItem& it) {
                  it.barrier();
                  body(it);
                })};
  set.fiber.uses_barriers();
  set.plain.span([=](std::size_t begin, std::size_t end) {
    const float* EOD_RESTRICT xp = x;
    float* EOD_RESTRICT yp = y;
    for (std::size_t i = begin; i < end; ++i) yp[i] = chain(xp[i]);
  });
  return set;
}

struct TierRates {
  double fiber = 0.0;
  double loop = 0.0;
  double span = 0.0;
  std::vector<double> fiber_ns;
  std::vector<double> loop_ns;
  std::vector<double> span_ns;
};

TierRates measure(const KernelSet& set, const xcl::Device& device) {
  TierRates r;
  {
    // Fibers engage whenever the kernel declares barriers; the override
    // pins the per-item path so a span body (none here) can't interfere.
    ScopedDispatchMode mode(xcl::DispatchMode::kItem);
    const xcl::NDRange range(kFiberItems, kLocal);
    r.fiber = mitems_per_second(
        kFiberItems, [&] { xcl::execute_ndrange(set.fiber, range, device); },
        &r.fiber_ns);
  }
  const xcl::NDRange range(kMemItems, kLocal);
  {
    ScopedDispatchMode mode(xcl::DispatchMode::kItem);
    r.loop = mitems_per_second(
        kMemItems, [&] { xcl::execute_ndrange(set.plain, range, device); },
        &r.loop_ns);
  }
  {
    ScopedDispatchMode mode(xcl::DispatchMode::kAuto);
    r.span = mitems_per_second(
        kMemItems, [&] { xcl::execute_ndrange(set.plain, range, device); },
        &r.span_ns);
  }
  return r;
}

void report(const char* name, const TierRates& r) {
  std::printf(
      "%-14s fiber %8.1f Mitems/s   loop %8.1f Mitems/s   span %8.1f "
      "Mitems/s   span/loop %6.2fx\n",
      name, r.fiber, r.loop, r.span, r.span / r.loop);
}

struct DwarfCase {
  const char* name;
  dwarfs::ProblemSize time_size;  ///< size the throughput reps run at
  dwarfs::ProblemSize sig_size;   ///< size the bit-equivalence check runs at
};

// gem is O(vertices x atoms); small already gives the inner loop thousands
// of iterations per vertex, and medium would push one item-tier rep into
// minutes.  lud's item tier runs each interior block as 256 fibers, about
// 40 s per medium rep on 4 cores, so it times at small too.  Everything
// else times at medium (the 8 MiB L3 class), where a run is long enough to
// dwarf launch overhead but reps stay interactive.
const DwarfCase kDwarfs[] = {
    {"kmeans", dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kSmall},
    {"csr", dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kSmall},
    {"gem", dwarfs::ProblemSize::kSmall, dwarfs::ProblemSize::kTiny},
    {"srad", dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kSmall},
    {"crc", dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kSmall},
    {"dwt", dwarfs::ProblemSize::kMedium, dwarfs::ProblemSize::kSmall},
    {"lud", dwarfs::ProblemSize::kSmall, dwarfs::ProblemSize::kTiny},
};

// Sets a dwarf up and binds it on the i7-6700K under `mode`, calls
// `body(dwarf)`, then unbinds.
void with_bound_dwarf(const char* name, dwarfs::ProblemSize size,
                      xcl::DispatchMode mode,
                      const std::function<void(dwarfs::Dwarf&)>& body) {
  ScopedDispatchMode guard(mode);
  auto dwarf = dwarfs::create_dwarf(name);
  dwarf->setup(size);
  xcl::Context ctx(sim::testbed_device("i7-6700K"));
  xcl::Queue q(ctx);
  dwarf->bind(ctx, q);
  body(*dwarf);
  dwarf->unbind();
}

std::uint64_t signature_once(const char* name, dwarfs::ProblemSize size,
                             xcl::DispatchMode mode) {
  std::uint64_t sig = 0;
  with_bound_dwarf(name, size, mode, [&](dwarfs::Dwarf& d) {
    d.run();
    d.finish();
    sig = d.result_signature();
  });
  return sig;
}

// Best-of-reps seconds for one application iteration under `mode`; raw
// samples are kept for the json percentiles.  One setup/bind, repeated
// run()+finish() -- the same shape the harness measurement loop uses.
double time_dwarf(const char* name, dwarfs::ProblemSize size,
                  xcl::DispatchMode mode, std::vector<double>* samples_ns) {
  std::uint64_t best = ~std::uint64_t{0};
  with_bound_dwarf(name, size, mode, [&](dwarfs::Dwarf& d) {
    for (int i = 0; i < kDwarfWarmup; ++i) {
      d.run();
      d.finish();
    }
    for (int i = 0; i < kDwarfReps; ++i) {
      const std::uint64_t t0 = scibench::now_ns();
      d.run();
      d.finish();
      const std::uint64_t t1 = scibench::now_ns();
      best = std::min(best, t1 - t0);
      samples_ns->push_back(static_cast<double>(t1 - t0));
    }
  });
  return static_cast<double>(best) * 1e-9;
}

// The definition hash_result must reproduce, one byte at a time.
std::uint64_t fnv1a_byte_loop(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = dwarfs::kFnvOffsetBasis;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

// Best-of-reps ns per MiB of `hash` over `bytes`; *value gets its result.
template <typename HashFn>
double ns_per_mib(std::span<const std::uint8_t> bytes, HashFn&& hash,
                  std::uint64_t* value) {
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < kWarmup + kReps; ++i) {
    const std::uint64_t t0 = scibench::now_ns();
    *value = hash(bytes);
    const std::uint64_t t1 = scibench::now_ns();
    if (i >= kWarmup) best = std::min(best, t1 - t0);
  }
  return static_cast<double>(best) /
         (static_cast<double>(bytes.size()) / (1 << 20));
}

// Median milliseconds of Dwarf::setup(size) plus the first read of the
// input, each rep on a fresh dwarf.
double setup_ms(const char* name, dwarfs::ProblemSize size) {
  std::vector<double> ms;
  for (int i = 0; i < kSetupReps; ++i) {
    auto dwarf = dwarfs::create_dwarf(name);
    const std::uint64_t t0 = scibench::now_ns();
    dwarf->setup(size);
    if (const auto* dwt = dynamic_cast<const dwarfs::Dwt*>(dwarf.get())) {
      (void)dwt->input();
    }
    if (const auto* gem = dynamic_cast<const dwarfs::Gem*>(dwarf.get())) {
      (void)gem->molecule();
    }
    ms.push_back(static_cast<double>(scibench::now_ns() - t0) * 1e-6);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main() {
  // Bit-equivalence pre-check: each dwarf's fast bodies must reproduce the
  // per-item reference exactly before any timing counts.
  for (const DwarfCase& c : kDwarfs) {
    const std::uint64_t item =
        signature_once(c.name, c.sig_size, xcl::DispatchMode::kItem);
    const std::uint64_t fast =
        signature_once(c.name, c.sig_size, xcl::DispatchMode::kAuto);
    if (item == 0 || item != fast) {
      std::printf("FAIL: %s auto signature %016llx != item %016llx\n",
                  c.name, static_cast<unsigned long long>(fast),
                  static_cast<unsigned long long>(item));
      return 1;
    }
  }
  std::printf("signatures: all %zu dwarfs bit-identical to item tier\n\n",
              std::size(kDwarfs));

  xcl::Device& device = sim::testbed_device("i7-6700K");

  std::vector<float> x(kMemItems, 0.5f);
  std::vector<float> y(kMemItems, 0.25f);

  std::printf("kernel-tier dispatch throughput, %zu-item groups\n", kLocal);

  const KernelSet mem = memory_bound(x.data(), y.data());
  const TierRates mem_rates = measure(mem, device);
  report("memory-bound", mem_rates);

  const KernelSet fma = compute_bound(x.data(), y.data());
  TierRates fma_rates;
  {
    // Compute-bound grids are smaller; rebuild the rates with the right
    // normalization by timing over kComputeItems explicitly.
    ScopedDispatchMode mode(xcl::DispatchMode::kItem);
    const xcl::NDRange fiber_range(kFiberItems, kLocal);
    fma_rates.fiber = mitems_per_second(
        kFiberItems,
        [&] { xcl::execute_ndrange(fma.fiber, fiber_range, device); },
        &fma_rates.fiber_ns);
    const xcl::NDRange range(kComputeItems, kLocal);
    fma_rates.loop = mitems_per_second(
        kComputeItems, [&] { xcl::execute_ndrange(fma.plain, range, device); },
        &fma_rates.loop_ns);
  }
  {
    ScopedDispatchMode mode(xcl::DispatchMode::kAuto);
    const xcl::NDRange range(kComputeItems, kLocal);
    fma_rates.span = mitems_per_second(
        kComputeItems, [&] { xcl::execute_ndrange(fma.plain, range, device); },
        &fma_rates.span_ns);
  }
  report("compute-bound", fma_rates);

  const double target = mem_rates.span / mem_rates.loop;
  std::printf(
      "\nmemory-bound span/loop: %.2fx (target >= 5x); compute-bound "
      "span/loop: %.2fx (expected ~1x: real work dominates)\n",
      target, fma_rates.span / fma_rates.loop);

  std::printf("\nfast (auto) vs item on the dwarfs (%zu simd lanes)\n",
              xcl::simd::kLanes);
  bench::BenchReport json("kernels");
  json.config("device", device.info().name);
  json.config("local", static_cast<double>(kLocal));
  json.config("mem_items", static_cast<double>(kMemItems));
  json.config("compute_items", static_cast<double>(kComputeItems));
  json.config("simd_lanes", static_cast<double>(xcl::simd::kLanes));
  json.config("dwarf_reps", static_cast<double>(kDwarfReps));
  int cleared = 0;
  for (const DwarfCase& c : kDwarfs) {
    std::vector<double> item_ns;
    std::vector<double> fast_ns;
    const double item_s =
        time_dwarf(c.name, c.time_size, xcl::DispatchMode::kItem, &item_ns);
    const double fast_s =
        time_dwarf(c.name, c.time_size, xcl::DispatchMode::kAuto, &fast_ns);
    const double ratio = item_s / fast_s;
    if (ratio >= kDwarfGateRatio) ++cleared;
    std::printf("%-8s %-8s item %10.3f ms   fast %10.3f ms   fast/item "
                "%5.2fx%s\n",
                c.name, dwarfs::to_string(c.time_size), item_s * 1e3,
                fast_s * 1e3, ratio, ratio >= kDwarfGateRatio ? "  *" : "");
    json.config(std::string(c.name) + "_size",
                dwarfs::to_string(c.time_size));
    json.metric(std::string(c.name) + "_item", item_ns);
    json.metric(std::string(c.name) + "_fast", fast_ns);
    json.value(std::string(c.name) + "_fast_over_item", ratio);
  }

  json.metric("mem_fiber", mem_rates.fiber_ns);
  json.metric("mem_loop", mem_rates.loop_ns);
  json.metric("mem_span", mem_rates.span_ns);
  json.metric("fma_fiber", fma_rates.fiber_ns);
  json.metric("fma_loop", fma_rates.loop_ns);
  json.metric("fma_span", fma_rates.span_ns);
  json.value("mem_span_mitems_per_s", mem_rates.span);
  json.value("mem_loop_mitems_per_s", mem_rates.loop);
  json.value("fma_span_over_loop", fma_rates.span / fma_rates.loop);
  json.value("dwarfs_cleared", static_cast<double>(cleared));

  std::vector<std::uint8_t> sig_bytes(kSignatureBytes);
  dwarfs::generate_indexed(sig_bytes.size(), 1, 1,
                           [&](dwarfs::SplitMix64& rng, std::size_t i) {
                             sig_bytes[i] =
                                 static_cast<std::uint8_t>(rng.next());
                           });
  std::uint64_t loop_value = 0;
  std::uint64_t hash_value = 0;
  const double loop_ns = ns_per_mib(sig_bytes, fnv1a_byte_loop, &loop_value);
  const double hash_ns = ns_per_mib(
      sig_bytes,
      [](std::span<const std::uint8_t> b) { return dwarfs::hash_result(b); },
      &hash_value);
  const unsigned workers = xcl::ThreadPool::global().size();
  const double sig_ratio = loop_ns / hash_ns;
  std::printf("\nsignature over %zu MiB: byte loop %.0f ns/MiB, hash_result "
              "%.0f ns/MiB (%.2fx, %u pool workers)\n",
              kSignatureBytes >> 20, loop_ns, hash_ns, sig_ratio, workers);
  json.value("signature_byte_loop_ns_per_mib", loop_ns);
  json.value("signature_hash_result_ns_per_mib", hash_ns);

  std::printf("\ndataset setup, median of %d fresh setups (advisory)\n",
              kSetupReps);
  for (const char* name : kSetupDwarfs) {
    for (const dwarfs::ProblemSize size :
         dwarfs::create_dwarf(name)->supported_sizes()) {
      const double ms = setup_ms(name, size);
      std::printf("%-8s %-8s %8.2f ms\n", name, dwarfs::to_string(size), ms);
      json.value(std::string("setup_") + name + "_" +
                     dwarfs::to_string(size) + "_ms",
                 ms);
    }
  }
  json.speedup(target);
  if (!json.write()) std::printf("warning: BENCH_kernels.json not written\n");

  const bool span_ok = target >= 5.0;
  const bool dwarfs_ok = cleared >= kDwarfGateCount;
  const bool sig_equal = loop_value == hash_value;
  const bool sig_ok = sig_equal && (workers < kSignatureGateWorkers ||
                                    sig_ratio >= kSignatureGateRatio);
  std::printf("\n%d/%zu dwarfs at fast/item >= %.1fx (need %d)\n", cleared,
              std::size(kDwarfs), kDwarfGateRatio, kDwarfGateCount);
  std::printf("%s\n%s\n",
              span_ok ? "PASS: span tier removes per-item dispatch cost"
                      : "FAIL: span/loop target not met",
              dwarfs_ok ? "PASS: fast bodies beat the item tier where it "
                          "matters"
                        : "FAIL: fast/item gate not met");
  if (!sig_equal) {
    std::printf("FAIL: hash_result %016llx != byte loop %016llx\n",
                static_cast<unsigned long long>(hash_value),
                static_cast<unsigned long long>(loop_value));
  } else if (!sig_ok) {
    std::printf("FAIL: hash_result/byte loop %.2fx < %.1fx with %u workers\n",
                sig_ratio, kSignatureGateRatio, workers);
  } else {
    std::printf("PASS: hash_result equals the byte loop%s\n",
                workers >= kSignatureGateWorkers
                    ? " and clears the speedup gate"
                    : " (speedup gate needs >= 4 pool workers)");
  }
  return span_ok && dwarfs_ok && sig_ok ? 0 : 1;
}
