#include "dwarfs/hmm/hmm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "xcl/kernel.hpp"

namespace eod::dwarfs {

namespace {

// One work-item per element in groups of min(64, count), the global size
// padded up to a group multiple; the kernels' tail guards skip the pad.
xcl::NDRange padded_range(std::size_t count) {
  const std::size_t wg = std::min<std::size_t>(64, count);
  return xcl::NDRange((count + wg - 1) / wg * wg, wg);
}

}  // namespace

HmmModel generate_hmm(unsigned states, unsigned symbols,
                      std::uint64_t seed) {
  HmmModel m;
  m.n_states = states;
  m.n_symbols = symbols;
  SplitMix64 rng(seed);
  auto fill_stochastic = [&rng](std::vector<float>& v, unsigned rows,
                                unsigned cols) {
    v.resize(std::size_t{rows} * cols);
    for (unsigned r = 0; r < rows; ++r) {
      float sum = 0.0f;
      for (unsigned c = 0; c < cols; ++c) {
        const float x = rng.uniform(0.1f, 1.0f);
        v[std::size_t{r} * cols + c] = x;
        sum += x;
      }
      for (unsigned c = 0; c < cols; ++c) v[std::size_t{r} * cols + c] /= sum;
    }
  };
  fill_stochastic(m.a, states, states);
  fill_stochastic(m.b, states, symbols);
  fill_stochastic(m.pi, 1, states);
  return m;
}

HmmModel baum_welch_reference(const HmmModel& model,
                              const std::vector<std::int32_t>& obs,
                              double* log_likelihood) {
  const unsigned n = model.n_states;
  const unsigned s = model.n_symbols;
  const std::size_t t_len = obs.size();
  auto a = [&](unsigned i, unsigned j) {
    return static_cast<double>(model.a[std::size_t{i} * n + j]);
  };
  auto b = [&](unsigned j, std::int32_t o) {
    return static_cast<double>(
        model.b[std::size_t{j} * s + static_cast<unsigned>(o)]);
  };

  std::vector<double> alpha(t_len * n), beta(t_len * n), gamma(t_len * n);
  double ll = 0.0;
  // Scaled forward.
  {
    double sum = 0.0;
    for (unsigned i = 0; i < n; ++i) {
      alpha[i] = model.pi[i] * b(i, obs[0]);
      sum += alpha[i];
    }
    ll += std::log(sum);
    for (unsigned i = 0; i < n; ++i) alpha[i] /= sum;
  }
  for (std::size_t t = 1; t < t_len; ++t) {
    double sum = 0.0;
    for (unsigned j = 0; j < n; ++j) {
      double acc = 0.0;
      for (unsigned i = 0; i < n; ++i) acc += alpha[(t - 1) * n + i] * a(i, j);
      alpha[t * n + j] = acc * b(j, obs[t]);
      sum += alpha[t * n + j];
    }
    ll += std::log(sum);
    for (unsigned j = 0; j < n; ++j) alpha[t * n + j] /= sum;
  }
  // Scaled backward.
  for (unsigned i = 0; i < n; ++i) beta[(t_len - 1) * n + i] = 1.0;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    double sum = 0.0;
    for (unsigned i = 0; i < n; ++i) {
      double acc = 0.0;
      for (unsigned j = 0; j < n; ++j) {
        acc += a(i, j) * b(j, obs[t + 1]) * beta[(t + 1) * n + j];
      }
      beta[t * n + i] = acc;
      sum += acc;
    }
    for (unsigned i = 0; i < n; ++i) beta[t * n + i] /= sum;
  }
  // Gamma with per-step normalisation (scale factors cancel).
  for (std::size_t t = 0; t < t_len; ++t) {
    double denom = 0.0;
    for (unsigned i = 0; i < n; ++i) {
      denom += alpha[t * n + i] * beta[t * n + i];
    }
    for (unsigned i = 0; i < n; ++i) {
      gamma[t * n + i] = alpha[t * n + i] * beta[t * n + i] / denom;
    }
  }

  HmmModel out = model;
  // A re-estimation.
  for (unsigned i = 0; i < n; ++i) {
    double gsum = 0.0;
    for (std::size_t t = 0; t + 1 < t_len; ++t) gsum += gamma[t * n + i];
    for (unsigned j = 0; j < n; ++j) {
      double xsum = 0.0;
      for (std::size_t t = 0; t + 1 < t_len; ++t) {
        double xd = 0.0;
        for (unsigned ii = 0; ii < n; ++ii) {
          for (unsigned jj = 0; jj < n; ++jj) {
            xd += alpha[t * n + ii] * a(ii, jj) * b(jj, obs[t + 1]) *
                  beta[(t + 1) * n + jj];
          }
        }
        xsum += alpha[t * n + i] * a(i, j) * b(j, obs[t + 1]) *
                beta[(t + 1) * n + j] / xd;
      }
      out.a[std::size_t{i} * n + j] = static_cast<float>(xsum / gsum);
    }
  }
  // B re-estimation.
  for (unsigned j = 0; j < n; ++j) {
    double gsum = 0.0;
    for (std::size_t t = 0; t < t_len; ++t) gsum += gamma[t * n + j];
    for (unsigned sym = 0; sym < s; ++sym) {
      double num = 0.0;
      for (std::size_t t = 0; t < t_len; ++t) {
        if (static_cast<unsigned>(obs[t]) == sym) num += gamma[t * n + j];
      }
      out.b[std::size_t{j} * s + sym] = static_cast<float>(num / gsum);
    }
  }
  if (log_likelihood != nullptr) *log_likelihood = ll;
  return out;
}

Hmm::Params Hmm::params_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return {8, 1};
    case ProblemSize::kSmall:
      return {900, 1};
    case ProblemSize::kMedium:
      return {1012, 1024};
    case ProblemSize::kLarge:
      return {2048, 2048};
  }
  return {};
}

std::size_t Hmm::footprint_bytes(ProblemSize s) const {
  const Params p = params_for(s);
  const std::size_t n = p.states;
  const std::size_t sym = p.symbols;
  return (2 * n * n + 2 * n * sym + n) * sizeof(float) +  // A, B, new copies, pi
         3 * kSeqLen * n * sizeof(float) +                // alpha, beta, gamma
         2 * kSeqLen * sizeof(float) +                    // denominators
         kSeqLen * sizeof(std::int32_t);                  // observations
}

void Hmm::setup(ProblemSize size) {
  configure(params_for(size), kSeqLen);
}

void Hmm::configure(const Params& params, std::size_t seq_len) {
  require(params.states >= 2, xcl::Status::kInvalidValue,
          "hmm needs at least 2 states");
  require(params.symbols >= 1, xcl::Status::kInvalidValue,
          "hmm needs at least 1 symbol");
  require(seq_len >= 2, xcl::Status::kInvalidValue,
          "hmm needs a sequence of at least 2 observations");
  params_ = params;
  seq_len_ = seq_len;
  model_ = generate_hmm(params_.states, params_.symbols, 0x686d6dull);
  SplitMix64 rng(0x686d6d02ull);
  obs_.resize(seq_len_);
  for (auto& o : obs_) {
    o = static_cast<std::int32_t>(rng.below(params_.symbols));
  }
  new_a_.assign(model_.a.size(), 0.0f);
  new_b_.assign(model_.b.size(), 0.0f);
}

void Hmm::bind(xcl::Context& ctx, xcl::Queue& q) {
  const std::size_t n = params_.states;
  const std::size_t s = params_.symbols;
  // The forward/backward sweeps normalise each step inside one work-group
  // of `states` items; reject a model the device cannot hold before any
  // command is enqueued.
  const xcl::DeviceInfo& info = ctx.device().info();
  if (n > info.max_work_group_size) {
    throw std::invalid_argument(
        "hmm: " + std::to_string(n) + " states exceed the " +
        std::to_string(info.max_work_group_size) +
        "-item work-group limit of " + info.name);
  }
  queue_ = &q;
  a_buf_.emplace(ctx, n * n * sizeof(float));
  b_buf_.emplace(ctx, n * s * sizeof(float));
  pi_buf_.emplace(ctx, n * sizeof(float));
  obs_buf_.emplace(ctx, seq_len_ * sizeof(std::int32_t));
  alpha_buf_.emplace(ctx, seq_len_ * n * sizeof(float));
  beta_buf_.emplace(ctx, seq_len_ * n * sizeof(float));
  gamma_buf_.emplace(ctx, seq_len_ * n * sizeof(float));
  denom_buf_.emplace(ctx, seq_len_ * sizeof(float));
  xi_denom_buf_.emplace(ctx, seq_len_ * sizeof(float));
  new_a_buf_.emplace(ctx, n * n * sizeof(float));
  new_b_buf_.emplace(ctx, n * s * sizeof(float));

  q.enqueue_write<float>(*a_buf_, model_.a);
  q.enqueue_write<float>(*b_buf_, model_.b);
  q.enqueue_write<float>(*pi_buf_, model_.pi);
  q.enqueue_write<std::int32_t>(*obs_buf_, obs_);
}

void Hmm::run() {
  const unsigned n = params_.states;
  const unsigned s = params_.symbols;
  const std::size_t t_len = seq_len_;
  auto a = a_buf_->access<const float>("a");
  auto b = b_buf_->access<const float>("b");
  auto pi = pi_buf_->access<const float>("pi");
  auto obs = obs_buf_->access<const std::int32_t>("obs");
  auto alpha = alpha_buf_->access<float>("alpha");
  auto beta = beta_buf_->access<float>("beta");
  auto gamma = gamma_buf_->access<float>("gamma");
  auto denom = denom_buf_->access<float>("denom");
  auto xi_denom = xi_denom_buf_->access<float>("xi_denom");
  auto new_a = new_a_buf_->access<float>("new_a");
  auto new_b = new_b_buf_->access<float>("new_b");

  // Per-step workload: an N x N recurrence plus the normalisation round.
  xcl::WorkloadProfile step_prof;
  step_prof.flops = static_cast<double>(n) * n * 2 + 3.0 * n;
  step_prof.int_ops = static_cast<double>(n) * n;
  step_prof.bytes_read =
      static_cast<double>(n) * n * sizeof(float) + 2.0 * n * sizeof(float);
  step_prof.bytes_written = static_cast<double>(n) * sizeof(float);
  step_prof.working_set_bytes =
      static_cast<double>(footprint_bytes(ProblemSize::kTiny));
  step_prof.pattern = xcl::AccessPattern::kStreaming;

  // Forward sweep: one normalising work-group kernel per time step.
  for (std::size_t t = 0; t < t_len; ++t) {
    xcl::Kernel fwd("hmm_forward", [=](xcl::WorkItem& it) {
      const std::size_t j = it.local_id(0);
      auto sum = it.local<float>(0, 1);
      float v;
      if (t == 0) {
        v = pi[j] * b[j * s + static_cast<unsigned>(obs[0])];
      } else {
        float acc = 0.0f;
        for (unsigned i = 0; i < n; ++i) {
          acc += alpha[(t - 1) * n + i] * a[i * n + j];
        }
        v = acc * b[j * s + static_cast<unsigned>(obs[t])];
      }
      alpha[t * n + j] = v;
      it.barrier();
      if (j == 0) {
        float total = 0.0f;
        for (unsigned i = 0; i < n; ++i) total += alpha[t * n + i];
        sum[0] = total;
      }
      it.barrier();
      alpha[t * n + j] /= sum[0];
    });
    fwd.uses_barriers();
    queue_->enqueue(fwd, xcl::NDRange(n, n), step_prof);
  }

  // Backward sweep.
  for (std::size_t t = t_len; t-- > 0;) {
    xcl::Kernel bwd("hmm_backward", [=](xcl::WorkItem& it) {
      const std::size_t i = it.local_id(0);
      auto sum = it.local<float>(0, 1);
      float v;
      if (t == t_len - 1) {
        v = 1.0f;
      } else {
        float acc = 0.0f;
        for (unsigned j = 0; j < n; ++j) {
          acc += a[i * n + j] * b[j * s + static_cast<unsigned>(obs[t + 1])] *
                 beta[(t + 1) * n + j];
        }
        v = acc;
      }
      beta[t * n + i] = v;
      it.barrier();
      if (i == 0) {
        float total = 0.0f;
        for (unsigned j = 0; j < n; ++j) total += beta[t * n + j];
        sum[0] = total;
      }
      it.barrier();
      beta[t * n + i] /= sum[0];
    });
    bwd.uses_barriers();
    queue_->enqueue(bwd, xcl::NDRange(n, n), step_prof);
  }

  // Gamma and the per-step denominators.
  xcl::Kernel gam("hmm_gamma", [=](xcl::WorkItem& it) {
    const std::size_t t = it.global_id(0);
    if (t >= t_len) return;
    float d = 0.0f;
    for (unsigned i = 0; i < n; ++i) d += alpha[t * n + i] * beta[t * n + i];
    denom[t] = d;
    for (unsigned i = 0; i < n; ++i) {
      gamma[t * n + i] = alpha[t * n + i] * beta[t * n + i] / d;
    }
    if (t + 1 < t_len) {
      float xd = 0.0f;
      for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
          xd += alpha[t * n + i] * a[i * n + j] *
                b[j * s + static_cast<unsigned>(obs[t + 1])] *
                beta[(t + 1) * n + j];
        }
      }
      xi_denom[t] = xd;
    }
  });
  xcl::WorkloadProfile gam_prof = step_prof;
  gam_prof.flops = static_cast<double>(t_len) * n * n * 4;
  queue_->enqueue(gam, padded_range(t_len), gam_prof);

  // A re-estimation: one work-item per (i, j).
  xcl::Kernel upd_a("hmm_update_a", [=](xcl::WorkItem& it) {
    const std::size_t ij = it.global_id(0);
    if (ij >= std::size_t{n} * n) return;
    const unsigned i = static_cast<unsigned>(ij / n);
    const unsigned j = static_cast<unsigned>(ij % n);
    float xsum = 0.0f;
    float gsum = 0.0f;
    for (std::size_t t = 0; t + 1 < t_len; ++t) {
      xsum += alpha[t * n + i] * a[i * n + j] *
              b[j * s + static_cast<unsigned>(obs[t + 1])] *
              beta[(t + 1) * n + j] / xi_denom[t];
      gsum += gamma[t * n + i];
    }
    new_a[ij] = xsum / gsum;
  });
  xcl::WorkloadProfile ua_prof = step_prof;
  ua_prof.flops = static_cast<double>(n) * n * t_len * 6;
  queue_->enqueue(upd_a, padded_range(std::size_t{n} * n), ua_prof);

  // B re-estimation: one work-item per (j, sym).
  xcl::Kernel upd_b("hmm_update_b", [=](xcl::WorkItem& it) {
    const std::size_t js = it.global_id(0);
    if (js >= std::size_t{n} * s) return;
    const unsigned j = static_cast<unsigned>(js / s);
    const unsigned sym = static_cast<unsigned>(js % s);
    float num = 0.0f;
    float gsum = 0.0f;
    for (std::size_t t = 0; t < t_len; ++t) {
      const float g = gamma[t * n + j];
      gsum += g;
      if (static_cast<unsigned>(obs[t]) == sym) num += g;
    }
    new_b[js] = num / gsum;
  });
  xcl::WorkloadProfile ub_prof = step_prof;
  ub_prof.flops = static_cast<double>(n) * s * t_len * 2;
  queue_->enqueue(upd_b, padded_range(std::size_t{n} * s), ub_prof);
}

void Hmm::finish() {
  queue_->enqueue_read<float>(*new_a_buf_, std::span(new_a_));
  queue_->enqueue_read<float>(*new_b_buf_, std::span(new_b_));
}

Validation Hmm::validate() {
  const HmmModel want = baum_welch_reference(model_, obs_);
  const Validation va = validate_norm(new_a_, want.a, 1e-4, "hmm A update");
  const Validation vb = validate_norm(new_b_, want.b, 1e-4, "hmm B update");
  Validation v;
  v.ok = va.ok && vb.ok;
  v.error = std::max(va.error, vb.error);
  v.detail = va.detail + "; " + vb.detail;
  return v;
}

void Hmm::unbind() {
  new_b_buf_.reset();
  new_a_buf_.reset();
  xi_denom_buf_.reset();
  denom_buf_.reset();
  gamma_buf_.reset();
  beta_buf_.reset();
  alpha_buf_.reset();
  obs_buf_.reset();
  pi_buf_.reset();
  b_buf_.reset();
  a_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
