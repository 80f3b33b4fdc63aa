#include "dwarfs/kmeans/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "xcl/kernel.hpp"
#include "xcl/simd.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

namespace {
constexpr std::uint64_t kSeed = 0x6b6d65616e73ull;  // "kmeans"
}  // namespace

KMeans::Params KMeans::params_for(ProblemSize s) {
  // Table 2, kmeans row: Phi = number of points; 26 features (Table 3),
  // 5 clusters (§4.4.1).
  Params p;
  switch (s) {
    case ProblemSize::kTiny:
      p.points = 256;
      break;
    case ProblemSize::kSmall:
      p.points = 2048;
      break;
    case ProblemSize::kMedium:
      p.points = 65600;
      break;
    case ProblemSize::kLarge:
      p.points = 131072;
      break;
  }
  return p;
}

std::string KMeans::scale_parameter(ProblemSize s) const {
  return std::to_string(params_for(s).points);
}

std::size_t KMeans::working_set_bytes(std::size_t points, unsigned features,
                                      unsigned clusters) {
  // Equation (1): size(feature) + size(membership) + size(cluster).
  return points * features * sizeof(float) + points * sizeof(std::int32_t) +
         std::size_t{clusters} * features * sizeof(float);
}

std::size_t KMeans::footprint_bytes(ProblemSize s) const {
  const Params p = params_for(s);
  return working_set_bytes(p.points, p.features, p.clusters);
}

void KMeans::setup(ProblemSize size) { configure(params_for(size)); }

void KMeans::configure(const Params& params) {
  // The starting centroids are the first `clusters` points.
  if (params.features == 0 || params.clusters == 0 ||
      params.points < params.clusters) {
    throw std::invalid_argument(
        "kmeans: needs features >= 1 and points >= clusters (" +
        std::to_string(params.clusters) + "); got features=" +
        std::to_string(params.features) +
        " points=" + std::to_string(params.points));
  }
  params_ = params;
  features_ = HostVector<float>(params_.points * params_.features);
  generate_indexed(features_.size(), kSeed, 1,
                   [&](SplitMix64& rng, std::size_t i) {
                     features_[i] = rng.uniform(0.0f, 10.0f);
                   });
  // Deterministic starting centroids: the first Cn points (the paper uses
  // random starting positions; a fixed choice keeps validation exact).
  centroids_.assign(features_.begin(),
                    features_.begin() + params_.clusters * params_.features);
  membership_.assign(params_.points, -1);
}

void KMeans::bind(xcl::Context& ctx, xcl::Queue& q) {
  ctx_ = &ctx;
  queue_ = &q;
  feature_buf_.emplace(ctx, features_.size() * sizeof(float));
  feature_buf_->named("features");
  cluster_buf_.emplace(ctx, centroids_.size() * sizeof(float));
  cluster_buf_->named("centroids");
  membership_buf_.emplace(ctx, membership_.size() * sizeof(std::int32_t));
  membership_buf_->named("membership");
  // lint: no-deps(bind-time upload: blocking by design, no producers yet)
  q.enqueue_write<float>(*feature_buf_, features_);
  // lint: no-deps(bind-time upload: blocking by design, no producers yet)
  centroid_write_ = q.enqueue_write<float>(*cluster_buf_, centroids_);
}

xcl::Event KMeans::enqueue_assign(std::size_t begin, std::size_t end,
                                  std::span<const xcl::Event> wait) {
  const std::size_t pn = params_.points;
  const unsigned fn = params_.features;
  const unsigned cn = params_.clusters;
  const std::size_t span_n = end - begin;
  auto feats = feature_buf_->access<const float>("features");
  auto clus = cluster_buf_->access<const float>("centroids");
  auto member = membership_buf_->access<std::int32_t>("membership");

  xcl::Kernel assign("kmeans_assign", [=](xcl::WorkItem& it) {
    const std::size_t i = begin + it.global_id(0);
    if (i >= end) return;
    float best = HUGE_VALF;
    std::int32_t best_c = 0;
    for (unsigned c = 0; c < cn; ++c) {
      float dist = 0.0f;
      for (unsigned f = 0; f < fn; ++f) {
        const float d = feats[i * fn + f] - clus[c * fn + f];
        dist += d * d;
      }
      if (dist < best) {
        best = dist;
        best_c = static_cast<std::int32_t>(c);
      }
    }
    member[i] = best_c;
  });

  // Span tier (DESIGN.md §9): W points per step.  The feature rows of the
  // W points are transposed into per-feature lane vectors once, then every
  // centroid is scanned with the same subtract/square/accumulate sequence
  // the scalar body performs -- per lane the operation order is identical,
  // so the distances (and the < comparisons deciding membership) are
  // bit-exact.  The best/best_c running minimum uses mask selects, and the
  // sub-W tail runs the scalar loop verbatim.
  assign.span([=](std::size_t lo, std::size_t hi) {
    namespace sv = xcl::simd;
    constexpr std::size_t W = sv::kLanes;
    constexpr unsigned kMaxFeatures = 32;
    const float* EOD_RESTRICT feat = feats.data();
    const float* EOD_RESTRICT cent = clus.data();
    std::int32_t* EOD_RESTRICT member_out = member.data();
    std::size_t i = begin + lo;
    const std::size_t last = std::min(begin + hi, end);
    if (fn <= kMaxFeatures) {
      sv::vfloat cols[kMaxFeatures];
      for (; i + W <= last; i += W) {
        for (unsigned f = 0; f < fn; ++f) {
          for (std::size_t l = 0; l < W; ++l) {
            cols[f][l] = feat[(i + l) * fn + f];
          }
        }
        sv::vfloat best = sv::vbroadcast(HUGE_VALF);
        sv::vint32 best_c = sv::vbroadcast_i32(0);
        for (unsigned c = 0; c < cn; ++c) {
          sv::vfloat dist = sv::vbroadcast(0.0f);
          for (unsigned f = 0; f < fn; ++f) {
            const sv::vfloat d = cols[f] - sv::vbroadcast(cent[c * fn + f]);
            dist += d * d;
          }
          const sv::vint32 closer = sv::vlt(dist, best);
          best = sv::vselect(closer, dist, best);
          best_c = sv::vselect_i32(
              closer, sv::vbroadcast_i32(static_cast<std::int32_t>(c)),
              best_c);
        }
        for (std::size_t l = 0; l < W; ++l) {
          member_out[i + l] = best_c[l];
        }
      }
    }
    for (; i < last; ++i) {
      float best = HUGE_VALF;
      std::int32_t best_c = 0;
      for (unsigned c = 0; c < cn; ++c) {
        float dist = 0.0f;
        for (unsigned f = 0; f < fn; ++f) {
          const float d = feat[i * fn + f] - cent[c * fn + f];
          dist += d * d;
        }
        if (dist < best) {
          best = dist;
          best_c = static_cast<std::int32_t>(c);
        }
      }
      member_out[i] = best_c;
    }
  });

  xcl::WorkloadProfile prof;
  prof.flops = static_cast<double>(span_n) * cn * (3.0 * fn);
  prof.int_ops = static_cast<double>(span_n) * cn * 2.0;
  prof.bytes_read = static_cast<double>(span_n) * fn * sizeof(float);
  prof.bytes_written = static_cast<double>(span_n) * sizeof(std::int32_t);
  // Residency is governed by the whole pass, not the half: both halves run
  // back-to-back over the same cache, so a half-launch never gains the
  // cache fit the full point set lacks.
  prof.working_set_bytes = static_cast<double>(
      working_set_bytes(pn, fn, cn));
  // Each work-item scans its point's contiguous feature row: ideal for CPU
  // prefetchers, uncoalesced across GPU lanes -- the layout behind the
  // paper's "CPU execution times were comparable to GPU" observation.
  prof.pattern = xcl::AccessPattern::kRowPerItem;
  prof.parallel_fraction = 1.0;
  return queue_->enqueue(assign,
                         xcl::NDRange(((span_n + 63) / 64) * 64, 64), prof,
                         wait);
}

void KMeans::host_update_centroids() {
  const unsigned fn = params_.features;
  const unsigned cn = params_.clusters;
  std::vector<double> sums(std::size_t{cn} * fn, 0.0);
  std::vector<std::size_t> counts(cn, 0);
  for (std::size_t i = 0; i < params_.points; ++i) {
    const auto c = static_cast<unsigned>(membership_[i]);
    ++counts[c];
    for (unsigned f = 0; f < fn; ++f) {
      sums[std::size_t{c} * fn + f] += features_[i * fn + f];
    }
  }
  for (unsigned c = 0; c < cn; ++c) {
    if (counts[c] == 0) continue;  // empty cluster keeps its centroid
    for (unsigned f = 0; f < fn; ++f) {
      centroids_[std::size_t{c} * fn + f] = static_cast<float>(
          sums[std::size_t{c} * fn + f] / static_cast<double>(counts[c]));
    }
  }
}

void KMeans::run() {
  // Double-buffered rounds (DESIGN.md §12): the point range is split in
  // half, each half's membership read-back waits only on its own assign
  // kernel, so on an out-of-order queue the first half's read overlaps the
  // second half's compute.  The centroid upload for the next round waits on
  // both assign kernels (they read the centroid buffer), which is also the
  // only edge the next round's kernels need.
  const std::size_t pn = params_.points;
  const std::size_t half = (pn + 1) / 2;  // ceil; a 1-point set has no tail
  for (unsigned round = 0; round < params_.rounds; ++round) {
    const xcl::Event dep[] = {centroid_write_};
    const xcl::Event a0 = enqueue_assign(0, half, dep);
    const xcl::Event a1 = half < pn ? enqueue_assign(half, pn, dep) : a0;
    const xcl::Event w0[] = {a0};
    const xcl::Event w1[] = {a1};
    const xcl::Event r0 = queue_->enqueue_read<std::int32_t>(
        *membership_buf_, std::span(membership_).subspan(0, half), 0, w0);
    xcl::Event r1 = r0;
    if (half < pn) {
      r1 = queue_->enqueue_read<std::int32_t>(
          *membership_buf_, std::span(membership_).subspan(half), half, w1);
    }
    queue_->wait(r0);
    queue_->wait(r1);
    if (queue_->functional()) host_update_centroids();
    const xcl::Event both[] = {a0, a1};
    centroid_write_ = queue_->enqueue_write<float>(
        *cluster_buf_, std::span<const float>(centroids_), both);
  }
}

void KMeans::finish() {
  // lint: no-deps(blocking read drains the assign/update chain by design)
  queue_->enqueue_read<std::int32_t>(*membership_buf_,
                                     std::span(membership_));
}

Validation KMeans::validate() {
  // Reference: identical fixed-round Lloyd iterations from the same
  // deterministic start.
  const unsigned fn = params_.features;
  const unsigned cn = params_.clusters;
  std::vector<float> ref_centroids(
      features_.begin(), features_.begin() + std::size_t{cn} * fn);
  HostVector<std::int32_t> ref_member(params_.points, -1);

  for (unsigned round = 0; round < params_.rounds; ++round) {
    // Assignment is independent per point; the centroid update below stays
    // a serial sum in point order.
    xcl::ThreadPool::global().parallel_for(params_.points, [&](std::size_t i) {
      float best = HUGE_VALF;
      std::int32_t best_c = 0;
      for (unsigned c = 0; c < cn; ++c) {
        float dist = 0.0f;
        for (unsigned f = 0; f < fn; ++f) {
          const float d =
              features_[i * fn + f] - ref_centroids[std::size_t{c} * fn + f];
          dist += d * d;
        }
        if (dist < best) {
          best = dist;
          best_c = static_cast<std::int32_t>(c);
        }
      }
      ref_member[i] = best_c;
    });
    std::vector<double> sums(std::size_t{cn} * fn, 0.0);
    std::vector<std::size_t> counts(cn, 0);
    for (std::size_t i = 0; i < params_.points; ++i) {
      const auto c = static_cast<unsigned>(ref_member[i]);
      ++counts[c];
      for (unsigned f = 0; f < fn; ++f) {
        sums[std::size_t{c} * fn + f] += features_[i * fn + f];
      }
    }
    for (unsigned c = 0; c < cn; ++c) {
      if (counts[c] == 0) continue;
      for (unsigned f = 0; f < fn; ++f) {
        ref_centroids[std::size_t{c} * fn + f] = static_cast<float>(
            sums[std::size_t{c} * fn + f] / static_cast<double>(counts[c]));
      }
    }
  }

  Validation v;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < params_.points; ++i) {
    if (membership_[i] != ref_member[i]) ++mismatches;
  }
  v.error = static_cast<double>(mismatches);
  v.ok = mismatches == 0;
  std::ostringstream os;
  os << "kmeans membership: " << mismatches << " of " << params_.points
     << " points disagree with the serial reference";
  v.detail = os.str();
  return v;
}

void KMeans::unbind() {
  centroid_write_ = {};  // its queue pointer dies with this binding
  membership_buf_.reset();
  cluster_buf_.reset();
  feature_buf_.reset();
  ctx_ = nullptr;
  queue_ = nullptr;
}

void KMeans::stream_trace(sim::TraceWriter& out) const {
  // One assign pass in program order, as §4.4.1 describes the kernel's
  // traffic: stream features, reread the small centroid block per point,
  // write membership.  Addresses are laid out as on the device.
  const std::uint64_t feat_base = 0x10000;
  const std::uint64_t clus_base =
      feat_base + features_.size() * sizeof(float);
  const std::uint64_t memb_base =
      clus_base + centroids_.size() * sizeof(float);
  const unsigned fn = params_.features;
  const unsigned cn = params_.clusters;
  for (std::size_t i = 0; i < params_.points; ++i) {
    for (unsigned c = 0; c < cn; ++c) {
      for (unsigned f = 0; f < fn; ++f) {
        out.emit(feat_base + (i * fn + f) * sizeof(float), 4, false);
        out.emit(clus_base + (std::size_t{c} * fn + f) * sizeof(float), 4,
                 false);
      }
    }
    out.emit(memb_base + i * sizeof(std::int32_t), 4, true);
  }
}

std::size_t KMeans::trace_size_hint() const {
  return params_.points *
         (std::size_t{params_.clusters} * params_.features * 2 + 1);
}

}  // namespace eod::dwarfs
