#include "harness/partition.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "dwarfs/beff/beff.hpp"
#include "xcl/buffer.hpp"
#include "xcl/kernel.hpp"
#include "xcl/modeling.hpp"

namespace eod::harness {

namespace {

/// Modeled link cost of one halo transfer into `dst` from `src`, via the
/// installed LinkModel; endpoint host-link staging when none is installed.
double halo_link_seconds(const xcl::Device& src, const xcl::Device& dst,
                         std::size_t bytes) {
  if (const xcl::LinkModel* lm = xcl::link_model()) {
    return lm->peer_seconds(src, dst, bytes);
  }
  return src.model().transfer_seconds(bytes,
                                      xcl::TransferDir::kDeviceToHost) +
         dst.model().transfer_seconds(bytes, xcl::TransferDir::kHostToDevice);
}

/// Dispatch-tier override scoped like harness::measure()'s.
struct DispatchGuard {
  xcl::DispatchMode prev = xcl::dispatch_mode();
  explicit DispatchGuard(const std::optional<xcl::DispatchMode>& mode) {
    xcl::set_dispatch_mode(mode.value_or(xcl::default_dispatch_mode()));
  }
  ~DispatchGuard() { xcl::set_dispatch_mode(prev); }
};

/// Per-device execution state.  Queues are out-of-order so compute chains
/// only through the explicit wait lists and halo copies ride the transfer
/// lane concurrently with kernels.
struct DevState {
  explicit DevState(xcl::Device& device)
      : ctx(device), q(ctx, xcl::QueueMode::kOutOfOrder) {}
  xcl::Context ctx;
  xcl::Queue q;
  std::vector<xcl::Buffer> bufs;
};

struct SpanClock {
  double upload_end = 0.0;
  double last_end = 0.0;

  void upload(const xcl::Event& e) {
    upload_end = std::max(upload_end, e.modeled_end_s);
    last_end = std::max(last_end, e.modeled_end_s);
  }
  void work(const xcl::Event& e) {
    last_end = std::max(last_end, e.modeled_end_s);
  }
  void fill(PartitionedResult& r) const {
    r.makespan_s = last_end;
    r.upload_horizon_s = upload_end;
    r.compute_makespan_s = std::max(0.0, last_end - upload_end);
  }
};

void count_halo(PartitionedResult& r, const xcl::Event& e,
                std::size_t bytes) {
  ++r.halo_transfers;
  r.halo_bytes += bytes;
  r.halo_seconds += e.modeled_seconds();
}

}  // namespace

std::vector<Shard> plan_shards(const std::vector<xcl::Device*>& devices,
                               std::size_t total_blocks,
                               const xcl::WorkloadProfile& per_block,
                               xcl::NDRange block_range,
                               std::size_t halo_bytes,
                               const std::vector<double>& block_weights) {
  xcl::require(!devices.empty(), xcl::Status::kInvalidValue,
               "plan_shards needs at least one device");
  xcl::require(total_blocks > 0, xcl::Status::kInvalidValue,
               "plan_shards needs at least one block");
  xcl::require(block_weights.empty() || block_weights.size() == total_blocks,
               xcl::Status::kInvalidValue,
               "block_weights must be empty or one weight per block");
  const std::size_t n = devices.size();

  // Probe launch per device: the modeled duration of one block of work.
  // The kernel body is empty -- only the WorkloadProfile and the device's
  // timing model matter here.
  std::vector<double> per_block_s(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    xcl::Context ctx(*devices[i]);
    xcl::Queue q(ctx);
    q.set_functional(false);  // model-only probe
    xcl::Kernel probe("partition_probe", [](xcl::WorkItem&) {});
    // lint: no-deps(model-only probe, sole command on a fresh private queue)
    const xcl::Event e = q.enqueue(probe, block_range, per_block);
    per_block_s[i] = std::max(e.modeled_seconds(), 1e-12);
    // One halo arrives per super-step (wavefront diagonal / factorization
    // step) regardless of how wide the shard is, so its link cost
    // amortises across the row of blocks: devices on the far side of a
    // slow staged path get smaller shards without a latency-sized penalty
    // swamping the per-block compute signal.
    if (i > 0 && halo_bytes > 0) {
      per_block_s[i] += halo_link_seconds(*devices[i - 1], *devices[i],
                                          halo_bytes) /
                        static_cast<double>(total_blocks);
    }
  }

  // Proportional shares by modeled rate.
  std::vector<double> weight(n);
  for (std::size_t i = 0; i < n; ++i) weight[i] = 1.0 / per_block_s[i];
  std::vector<std::size_t> share(n, 0);
  if (!block_weights.empty()) {
    // Weighted prefix cut: walk the block rows once, closing a stripe when
    // adding the next row would overshoot the device's work target (its
    // rate share of the work still unassigned) by more than stopping short
    // undershoots it.  Every stripe leaves one row for each device after
    // it; the last device takes the remainder.
    double rate_left = std::accumulate(weight.begin(), weight.end(), 0.0);
    double work_left =
        std::accumulate(block_weights.begin(), block_weights.end(), 0.0);
    std::size_t begin = 0;
    for (std::size_t i = 0; i < n && begin < total_blocks; ++i) {
      const std::size_t devices_after = n - i - 1;
      std::size_t end = begin + 1;
      double acc = block_weights[begin];
      if (devices_after == 0) {
        end = total_blocks;
      } else {
        const double target = work_left * weight[i] / rate_left;
        while (end < total_blocks - devices_after &&
               acc + block_weights[end] / 2.0 < target) {
          acc += block_weights[end++];
        }
      }
      share[i] = end - begin;
      work_left -= acc;
      rate_left -= weight[i];
      begin = end;
    }
  } else {
    // Uniform blocks: largest-remainder rounding keeps the total exact.
    const double wsum = std::accumulate(weight.begin(), weight.end(), 0.0);
    std::vector<std::pair<double, std::size_t>> frac;
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ideal =
          static_cast<double>(total_blocks) * weight[i] / wsum;
      share[i] = static_cast<std::size_t>(ideal);
      assigned += share[i];
      frac.emplace_back(ideal - static_cast<double>(share[i]), i);
    }
    std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
      return a.first > b.first || (a.first == b.first && a.second < b.second);
    });
    for (std::size_t j = 0; assigned < total_blocks; ++j, ++assigned) {
      ++share[frac[j % n].second];
    }
  }
  // Every device keeps at least one block while blocks last; steal from
  // the largest share.
  for (std::size_t i = 0; i < std::min(n, total_blocks); ++i) {
    while (share[i] == 0) {
      auto big = std::max_element(share.begin(), share.end());
      --*big;
      ++share[i];
    }
  }

  std::vector<Shard> shards;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (share[i] == 0) continue;  // more devices than blocks
    Shard s;
    s.device = devices[i];
    s.block_begin = begin;
    s.block_end = begin + share[i];
    begin = s.block_end;
    shards.push_back(s);
  }
  return shards;
}

PartitionedResult run_partitioned_nw(dwarfs::Nw& nw,
                                     const std::vector<xcl::Device*>& devices,
                                     const PartitionOptions& options) {
  constexpr std::size_t B = dwarfs::Nw::kBlock;
  const std::size_t m = nw.length() + 1;
  const std::size_t nb = nw.length() / B;
  const std::size_t bytes = m * m * sizeof(std::int32_t);

  DispatchGuard dispatch_guard(options.dispatch);
  PartitionedResult r;
  r.shards = plan_shards(devices, nb, dwarfs::Nw::block_profile(m, 1),
                         xcl::NDRange(B, B), (B + 1) * sizeof(std::int32_t));
  const std::size_t nd = r.shards.size();

  std::vector<std::unique_ptr<DevState>> dev;
  SpanClock clock;
  // Each device's kernel chain is seeded with its *last upload event*, so
  // the modeled timeline is causal: no stripe computes before its inputs
  // landed, and the steady-state span cleanly starts at the upload horizon.
  std::vector<std::optional<xcl::Event>> last_launch(nd);
  for (std::size_t si = 0; si < r.shards.size(); ++si) {
    auto d = std::make_unique<DevState>(*r.shards[si].device);
    d->bufs.emplace_back(d->ctx, bytes);  // [0] score
    d->bufs.emplace_back(d->ctx, bytes);  // [1] similarity
    // lint: no-deps(seed upload: blocking, first command on this queue)
    clock.upload(d->q.enqueue_write<std::int32_t>(d->bufs[0], nw.boundary()));
    const xcl::Event up =
        // lint: no-deps(seed upload: blocking, first command on this queue)
        d->q.enqueue_write<std::int32_t>(d->bufs[1], nw.similarity());
    clock.upload(up);
    last_launch[si] = up;
    dev.push_back(std::move(d));
  }

  // The global anti-diagonal sweep, one launch per device per diagonal over
  // the blocks its stripe contributes.  A stripe's top block needs the
  // producer stripe's bottom row segment (B+1 cells: the row above plus
  // the shared corner); the peer copy waits only on the producer's previous
  // diagonal launch, so it lands while both devices keep computing.
  for (std::size_t d = 0; d < 2 * nb - 1; ++d) {
    const std::size_t glo = d >= nb ? d - nb + 1 : 0;
    const std::size_t ghi = std::min(d, nb - 1);
    // Snapshot so a halo waits on its producer's *previous*-diagonal
    // launch, not the one the producer just issued for this diagonal --
    // that is what keeps the stripes pipelined instead of lock-stepped.
    const std::vector<std::optional<xcl::Event>> prev_launch = last_launch;
    for (std::size_t si = 0; si < nd; ++si) {
      const Shard& s = r.shards[si];
      const std::size_t blo = std::max(glo, s.block_begin);
      const std::size_t bhi = std::min(ghi, s.block_end - 1);
      if (blo > bhi) continue;
      std::vector<xcl::Event> wait;
      if (last_launch[si].has_value()) wait.push_back(*last_launch[si]);
      if (si > 0 && blo == s.block_begin) {
        // Halo for top block (block_begin, bj): row block_begin*B, columns
        // bj*B .. bj*B + B, final on the producer after its previous
        // diagonal covered blocks (block_begin - 1, bj) and onward.
        const std::size_t bj = d - s.block_begin;
        const std::size_t off =
            (s.block_begin * B * m + bj * B) * sizeof(std::int32_t);
        std::vector<xcl::Event> halo_wait;
        if (prev_launch[si - 1].has_value()) {
          halo_wait.push_back(*prev_launch[si - 1]);
        }
        const xcl::Event halo = dev[si]->q.enqueue_peer_copy(
            dev[si - 1]->bufs[0], off, dev[si]->bufs[0], off,
            (B + 1) * sizeof(std::int32_t), halo_wait);
        count_halo(r, halo, (B + 1) * sizeof(std::int32_t));
        clock.work(halo);
        wait.push_back(halo);
      }
      const std::size_t groups = bhi - blo + 1;
      const xcl::Event launch = dev[si]->q.enqueue(
          dwarfs::Nw::make_block_kernel(dev[si]->bufs[0], dev[si]->bufs[1],
                                        m, nw.penalty(), d, blo),
          xcl::NDRange(groups * B, B), dwarfs::Nw::block_profile(m, groups),
          wait);
      clock.work(launch);
      last_launch[si] = launch;
    }
  }

  // Assemble: boundary matrix overlaid with each stripe's computed rows.
  for (auto& d : dev) d->q.finish();
  const std::span<const std::int32_t> boundary = nw.boundary();
  xcl::HostVector<std::int32_t> result(boundary.begin(), boundary.end());
  for (std::size_t si = 0; si < nd; ++si) {
    const Shard& s = r.shards[si];
    const std::size_t row0 = s.block_begin * B + 1;
    const std::size_t rows = s.blocks() * B;
    dev[si]->q.enqueue_read<std::int32_t>(
        dev[si]->bufs[0], std::span(result.data() + row0 * m, rows * m),
        row0 * m, {});
  }
  for (auto& d : dev) d->q.finish();  // explicit-wait reads are deferred
  nw.adopt_result(std::move(result));
  r.signature = nw.result_signature();
  if (options.validate) r.validation = nw.validate();
  clock.fill(r);
  return r;
}

PartitionedResult run_partitioned_lud(
    dwarfs::Lud& lud, const std::vector<xcl::Device*>& devices,
    const PartitionOptions& options) {
  constexpr std::size_t B = dwarfs::Lud::kBlock;
  const std::size_t n = lud.dim();
  const std::size_t nb = n / B;
  const std::size_t bytes = n * n * sizeof(float);
  const std::size_t stripe_bytes = B * n * sizeof(float);

  DispatchGuard dispatch_guard(options.dispatch);
  PartitionedResult r;
  // Block row r's work is dominated by its trailing updates: one column
  // panel and (nb - 1 - k) internal GEMM blocks for every step k < r, so
  // weight(r) = 1 + sum_{k<r} (nb - k) = 1 + r*nb - r(r-1)/2.  An
  // equal-count split would hand ~70% of the flops to the bottom stripe;
  // weighting lets the top device hold more rows and finish together.
  std::vector<double> row_work(nb);
  for (std::size_t row = 0; row < nb; ++row) {
    const double rd = static_cast<double>(row);
    row_work[row] =
        1.0 + rd * static_cast<double>(nb) - rd * (rd - 1.0) / 2.0;
  }
  r.shards = plan_shards(devices, nb, dwarfs::Lud::internal_profile(n, 1, 1),
                         xcl::NDRange(B * B, B * B), stripe_bytes, row_work);
  const std::size_t nd = r.shards.size();

  std::vector<std::unique_ptr<DevState>> dev;
  SpanClock clock;
  // Seed each device's chain with its upload so the modeled timeline is
  // causal (see run_partitioned_nw).
  std::vector<std::optional<xcl::Event>> last(nd);
  for (std::size_t si = 0; si < r.shards.size(); ++si) {
    auto d = std::make_unique<DevState>(*r.shards[si].device);
    d->bufs.emplace_back(d->ctx, bytes);
    // lint: no-deps(seed upload: blocking, first command on this queue)
    const xcl::Event up = d->q.enqueue_write<float>(d->bufs[0], lud.input());
    clock.upload(up);
    last[si] = up;
    dev.push_back(std::move(d));
  }

  // Right-looking factorization over block-row stripes.  Per step k the
  // owner finalises stripe k (diagonal + row panel), broadcasts it to every
  // device still holding trailing rows, and each device solves its own
  // column-panel blocks then applies the trailing GEMM update to its rows.
  // The broadcasts only wait on the owner's panel event, so they overlap
  // the consumers' previous-step updates on the transfer lane, and the
  // owner starts step k+1 while consumers still chew on step k.
  auto owner_of = [&](std::size_t k) {
    for (std::size_t si = 0; si < nd; ++si) {
      if (k >= r.shards[si].block_begin && k < r.shards[si].block_end) {
        return si;
      }
    }
    return nd;  // unreachable: shards cover [0, nb)
  };
  for (std::size_t k = 0; k < nb; ++k) {
    const std::size_t so = owner_of(k);
    DevState& od = *dev[so];
    std::vector<xcl::Event> wait;
    if (last[so].has_value()) wait.push_back(*last[so]);
    const xcl::Event diag =
        od.q.enqueue(dwarfs::Lud::make_diagonal_kernel(od.bufs[0], n, k),
                     xcl::NDRange(B, B), dwarfs::Lud::diagonal_profile(n),
                     wait);
    clock.work(diag);
    xcl::Event stripe_ready = diag;
    const std::size_t rem = nb - k - 1;
    if (rem > 0) {
      const xcl::Event row = od.q.enqueue(
          dwarfs::Lud::make_perimeter_row_kernel(od.bufs[0], n, k),
          xcl::NDRange(rem * B, B), dwarfs::Lud::perimeter_profile(n, rem),
          std::vector<xcl::Event>{diag});
      clock.work(row);
      stripe_ready = row;
    }
    last[so] = stripe_ready;
    if (rem == 0) continue;

    // Broadcast the finished stripe before enqueueing the owner's own
    // trailing work, then fan out the per-device updates.
    std::vector<std::optional<xcl::Event>> bcast(nd);
    for (std::size_t si = 0; si < nd; ++si) {
      if (si == so) continue;
      if (std::max(r.shards[si].block_begin, k + 1) >=
          r.shards[si].block_end) {
        continue;  // this device's rows are already fully factorised
      }
      const xcl::Event b = dev[si]->q.enqueue_peer_copy(
          od.bufs[0], k * B * n * sizeof(float), dev[si]->bufs[0],
          k * B * n * sizeof(float), stripe_bytes,
          std::vector<xcl::Event>{stripe_ready});
      count_halo(r, b, stripe_bytes);
      clock.work(b);
      bcast[si] = b;
    }
    for (std::size_t si = 0; si < nd; ++si) {
      const std::size_t m_lo = std::max(r.shards[si].block_begin, k + 1);
      if (m_lo >= r.shards[si].block_end) continue;
      const std::size_t cnt = r.shards[si].block_end - m_lo;
      DevState& d = *dev[si];
      std::vector<xcl::Event> col_wait;
      if (si == so) {
        col_wait.push_back(stripe_ready);
      } else {
        col_wait.push_back(*bcast[si]);
        if (last[si].has_value()) col_wait.push_back(*last[si]);
      }
      const xcl::Event col = d.q.enqueue(
          dwarfs::Lud::make_perimeter_col_kernel(d.bufs[0], n, k, m_lo),
          xcl::NDRange(cnt * B, B), dwarfs::Lud::perimeter_profile(n, cnt),
          col_wait);
      const xcl::Event internal = d.q.enqueue(
          dwarfs::Lud::make_internal_kernel(d.bufs[0], n, k, m_lo),
          xcl::NDRange(cnt * rem * B * B, B * B),
          dwarfs::Lud::internal_profile(n, cnt, rem),
          std::vector<xcl::Event>{col});
      clock.work(col);
      clock.work(internal);
      last[si] = internal;
    }
  }

  for (auto& d : dev) d->q.finish();
  xcl::HostVector<float> result(n * n);
  for (std::size_t si = 0; si < nd; ++si) {
    const Shard& s = r.shards[si];
    const std::size_t off = s.block_begin * B * n;
    dev[si]->q.enqueue_read<float>(
        dev[si]->bufs[0],
        std::span(result.data() + off, s.blocks() * B * n), off, {});
  }
  for (auto& d : dev) d->q.finish();  // explicit-wait reads are deferred
  lud.adopt_result(std::move(result));
  r.signature = lud.result_signature();
  if (options.validate) r.validation = lud.validate();
  clock.fill(r);
  return r;
}

std::vector<RingPoint> ring_sweep(const std::vector<xcl::Device*>& devices,
                                  std::size_t max_bytes) {
  xcl::require(!devices.empty(), xcl::Status::kInvalidValue,
               "ring_sweep needs at least one device");
  std::vector<std::unique_ptr<DevState>> dev;
  for (xcl::Device* d : devices) {
    auto s = std::make_unique<DevState>(*d);
    s->bufs.emplace_back(s->ctx, max_bytes);
    dev.push_back(std::move(s));
  }
  const std::size_t nd = dev.size();
  std::vector<RingPoint> points;
  for (const std::size_t bytes : dwarfs::Beff::sweep_sizes(max_bytes)) {
    double start = 0.0, end = 0.0;
    bool first = true;
    // All hops of one message size are independent (each lands on its own
    // destination queue), so they traverse the ring's links concurrently.
    for (std::size_t i = 0; i < nd; ++i) {
      const std::size_t dst = (i + 1) % nd;
      // lint: no-deps(bandwidth probe: hops are independent, payload unchecked)
      const xcl::Event hop = dev[dst]->q.enqueue_peer_copy(
          dev[i]->bufs[0], 0, dev[dst]->bufs[0], 0, bytes);
      start = first ? hop.modeled_start_s : std::min(start,
                                                     hop.modeled_start_s);
      end = first ? hop.modeled_end_s : std::max(end, hop.modeled_end_s);
      first = false;
    }
    RingPoint p;
    p.bytes = bytes;
    const double span = end - start;
    p.ring_gbs = span > 0.0
                     ? static_cast<double>(nd) * static_cast<double>(bytes) /
                           span / 1e9
                     : 0.0;
    points.push_back(p);
  }
  for (auto& d : dev) d->q.finish();
  return points;
}

}  // namespace eod::harness
