// Multi-device co-execution gate (DESIGN.md §14): partitioned lud and nw
// on 1 / 2 / 4 identical modeled GTX 1080s, speedup measured on the
// steady-state modeled span (compute_makespan_s: halos and kernels, minus
// the one-time uploads that are identical work at every device count).
// Correctness is anchored two ways before a number counts: nw validates
// against its serial reference (O(n^2), cheap even at this size), and both
// dwarfs must produce bit-identical result signatures at every device
// count -- a speedup over a wrong answer is not a speedup.  (lud's serial
// reconstruction check is O(n^3) and runs in the equivalence tests at
// smaller sizes instead.)
//
// Sizes matter here: every factorization step / wavefront diagonal costs
// one fixed launch overhead (~6 us on this device model) on the critical
// path *regardless of device count*, so small problems are overhead-bound
// and do not scale -- the bench runs large enough that per-block work
// dominates, which is exactly the regime the multi-device literature
// reports.  Dispatch is pinned to the span tier: the tier changes host
// wall time only, never the modeled span, and span keeps the functional
// pass fast.
//
// Acceptance gate: lud 2-device modeled speedup >= 1.5x.  lud is the
// headline because its trailing update is embarrassingly parallel across
// block rows; nw's wavefront pipeline is reported alongside (its fill /
// drain phases and per-diagonal halos make it the harder case).
//
// The same binary records the b_eff curves: the host-link message-size
// sweep (write/read/bidirectional, dwarfs::Beff) and the peer-link ring
// pattern (harness::ring_sweep).  Both rise from latency-bound small
// messages and saturate at the modeled link rate; CI keeps the curve in
// BENCH_multidev.json so regressions in the link model are visible.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dwarfs/beff/beff.hpp"
#include "dwarfs/lud/lud.hpp"
#include "dwarfs/nw/nw.hpp"
#include "harness/partition.hpp"
#include "sim/testbed.hpp"
#include "xcl/context.hpp"
#include "xcl/queue.hpp"

namespace {

using namespace eod;

constexpr double kGate = 1.5;
constexpr std::size_t kLudDim = 3840;    // 240 block rows
constexpr std::size_t kNwLength = 4096;  // 256 block rows
constexpr std::size_t kBeffMax = std::size_t{4} << 20;  // 4 MiB sweep top

struct SpanAtScale {
  std::size_t devices = 0;
  double span_s = 0.0;
  std::uint64_t signature = 0;
  bool ok = false;
};

std::vector<xcl::Device*> fleet(std::size_t n) {
  std::vector<xcl::Device*> devices;
  for (std::size_t i = 0; i < n; ++i) {
    devices.push_back(&sim::testbed_device("GTX 1080"));
  }
  return devices;
}

SpanAtScale run_lud(std::size_t n_devices) {
  dwarfs::Lud dwarf;
  dwarf.configure(kLudDim);
  harness::PartitionOptions opts;
  opts.validate = false;  // signature-checked across device counts below
  opts.dispatch = xcl::DispatchMode::kAuto;
  const harness::PartitionedResult r =
      harness::run_partitioned_lud(dwarf, fleet(n_devices), opts);
  return {n_devices, r.compute_makespan_s, r.signature, true};
}

SpanAtScale run_nw(std::size_t n_devices) {
  dwarfs::Nw dwarf;
  dwarf.configure(kNwLength, 10);
  harness::PartitionOptions opts;
  opts.validate = true;
  opts.dispatch = xcl::DispatchMode::kAuto;
  const harness::PartitionedResult r =
      harness::run_partitioned_nw(dwarf, fleet(n_devices), opts);
  return {n_devices, r.compute_makespan_s, r.signature, r.validation.ok};
}

void report_scaling(const char* name, const std::vector<SpanAtScale>& runs,
                    bench::BenchReport& report) {
  const double base = runs.front().span_s;
  for (const SpanAtScale& r : runs) {
    const double speedup = base / r.span_s;
    std::printf("  %s %zux: modeled span %8.3f ms  speedup %.2fx  %s\n",
                name, r.devices, r.span_s * 1e3, speedup,
                r.ok ? "valid" : "INVALID");
    const std::string key =
        std::string(name) + "_" + std::to_string(r.devices) + "dev";
    report.value(key + "_modeled_span_s", r.span_s);
    report.value(key + "_speedup", speedup);
  }
}

}  // namespace

int main() {
  std::printf("multi-device co-execution on modeled GTX 1080s\n");
  std::printf("lud -s %zu (block-row panels):\n", kLudDim);
  const std::vector<SpanAtScale> lud = {run_lud(1), run_lud(2), run_lud(4)};
  std::printf("nw %zu 10 (wavefront stripes):\n", kNwLength);
  const std::vector<SpanAtScale> nw = {run_nw(1), run_nw(2), run_nw(4)};

  bench::BenchReport report("multidev");
  report.config("device", "GTX 1080");
  report.config("lud_dim", static_cast<double>(kLudDim));
  report.config("nw_length", static_cast<double>(kNwLength));
  report.config("beff_max_bytes", static_cast<double>(kBeffMax));
  report_scaling("lud", lud, report);
  report_scaling("nw", nw, report);

  // b_eff host-link sweep on one device.
  {
    dwarfs::Beff beff;
    beff.configure(kBeffMax);
    xcl::Device& dev = sim::testbed_device("GTX 1080");
    xcl::Context ctx(dev);
    xcl::Queue q(ctx);
    beff.bind(ctx, q);
    beff.run();
    beff.finish();
    std::printf("b_eff host link (GB/s at %zu B .. %zu B):\n",
                dwarfs::Beff::kMinMessage, kBeffMax);
    for (const dwarfs::BeffPoint& p : beff.points()) {
      report.value("beff_write_gbs_" + std::to_string(p.bytes), p.write_gbs);
      report.value("beff_bi_gbs_" + std::to_string(p.bytes), p.bi_gbs);
    }
    std::printf("  %zu points, saturating at %.2f GB/s write\n",
                beff.points().size(), beff.points().back().write_gbs);
    beff.unbind();
  }

  // b_eff ring pattern over the peer links, 4 devices.
  {
    const std::vector<harness::RingPoint> ring =
        harness::ring_sweep(fleet(4), kBeffMax);
    for (const harness::RingPoint& p : ring) {
      report.value("beff_ring_gbs_" + std::to_string(p.bytes), p.ring_gbs);
    }
    std::printf("b_eff ring over 4 devices: %zu points, saturating at "
                "%.2f GB/s aggregate\n",
                ring.size(), ring.back().ring_gbs);
  }

  const bool all_valid = [&] {
    for (const SpanAtScale& r : lud) {
      if (!r.ok || r.signature != lud.front().signature) return false;
    }
    for (const SpanAtScale& r : nw) {
      if (!r.ok || r.signature != nw.front().signature) return false;
    }
    return true;
  }();
  const double speedup = lud[0].span_s / lud[1].span_s;
  report.speedup(speedup);
  if (!report.write()) {
    std::printf("warning: BENCH_multidev.json not written\n");
  }

  const bool ok = all_valid && speedup >= kGate;
  std::printf("headline lud 2-device speedup %.2fx (target >= %.1fx)\n",
              speedup, kGate);
  std::printf("%s\n", ok ? "PASS: partitioned co-execution beats one device"
                         : "FAIL: target not met or validation failed");
  return ok ? 0 : 1;
}
