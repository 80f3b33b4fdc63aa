#include "dwarfs/fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "xcl/kernel.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::dwarfs {

std::size_t Fft::length_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return 2048;
    case ProblemSize::kSmall:
      return 16384;
    case ProblemSize::kMedium:
      return 524288;
    case ProblemSize::kLarge:
      return 2097152;
  }
  return 0;
}

void Fft::setup(ProblemSize size) { configure(length_for(size)); }

void Fft::configure(std::size_t n, FftDirection dir) {
  require(n >= 2 && (n & (n - 1)) == 0, xcl::Status::kInvalidValue,
          "fft length must be a power of two >= 2");
  n_ = n;
  dir_ = dir;
  SplitMix64 rng(0x666674ull);  // "fft"
  input_.resize(2 * n_);
  for (float& v : input_) v = rng.uniform(-1.0f, 1.0f);
  output_.assign(2 * n_, 0.0f);
}

void Fft::set_input(std::span<const float> interleaved) {
  require(interleaved.size() == 2 * n_, xcl::Status::kInvalidValue,
          "fft input must hold 2n interleaved floats");
  input_.assign(interleaved.begin(), interleaved.end());
}

void Fft::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  buf_a_.emplace(ctx, input_.size() * sizeof(float));
  buf_b_.emplace(ctx, input_.size() * sizeof(float));
}

void Fft::run() {
  const std::size_t n = n_;
  queue_->enqueue_write<float>(*buf_a_, input_);

  // Bainville-style radix-2 Stockham: at stage with parameter p the kernel
  // reads element i and i + N/2, applies the twiddle, and scatters to
  // j = ((i - k) << 1) + k and j + p where k = i mod p.  The inverse
  // conjugates the twiddles (positive angle) and scales by 1/N at the end.
  const float sign = dir_ == FftDirection::kForward ? -1.0f : 1.0f;
  bool src_is_a = true;
  for (std::size_t p = 1; p < n; p <<= 1) {
    xcl::Buffer& src = src_is_a ? *buf_a_ : *buf_b_;
    xcl::Buffer& dst = src_is_a ? *buf_b_ : *buf_a_;
    auto in = src.access<const float>("fft_src");
    auto out = dst.access<float>("fft_dst");

    xcl::Kernel stage("fft_radix2", [=](xcl::WorkItem& it) {
      const std::size_t i = it.global_id(0);
      if (i >= n / 2) return;
      const std::size_t k = i & (p - 1);
      const std::size_t j = ((i - k) << 1) + k;
      const float theta = sign * static_cast<float>(M_PI) *
                          static_cast<float>(k) / static_cast<float>(p);
      const float wr = std::cos(theta);
      const float wi = std::sin(theta);
      const float ur = in[2 * i];
      const float ui = in[2 * i + 1];
      const float xr = in[2 * (i + n / 2)];
      const float xi = in[2 * (i + n / 2) + 1];
      const float vr = xr * wr - xi * wi;
      const float vi = xr * wi + xi * wr;
      out[2 * j] = ur + vr;
      out[2 * j + 1] = ui + vi;
      out[2 * (j + p)] = ur - vr;
      out[2 * (j + p) + 1] = ui - vi;
    });

    xcl::WorkloadProfile prof;
    // 10 flops butterfly + ~16 for the native sin/cos pair.
    prof.flops = static_cast<double>(n / 2) * 26.0;
    prof.int_ops = static_cast<double>(n / 2) * 6.0;
    prof.bytes_read = static_cast<double>(n) * 2 * sizeof(float);
    prof.bytes_written = static_cast<double>(n) * 2 * sizeof(float);
    prof.working_set_bytes = static_cast<double>(4 * n) * sizeof(float);
    prof.pattern = xcl::AccessPattern::kButterfly;
    const std::size_t wg = std::min<std::size_t>(64, n / 2);
    queue_->enqueue(stage, xcl::NDRange(n / 2, wg), prof);

    src_is_a = !src_is_a;
  }

  if (dir_ == FftDirection::kInverse) {
    // 1/N normalisation pass on the final buffer.
    xcl::Buffer& result = src_is_a ? *buf_a_ : *buf_b_;
    auto data = result.access<float>("fft_result");
    const float inv_n = 1.0f / static_cast<float>(n);
    xcl::Kernel scale("fft_scale", [=](xcl::WorkItem& it) {
      const std::size_t i = it.global_id(0);
      if (i >= 2 * n) return;
      data[i] *= inv_n;
    });
    xcl::WorkloadProfile prof;
    prof.flops = static_cast<double>(2 * n);
    prof.bytes_read = static_cast<double>(2 * n) * sizeof(float);
    prof.bytes_written = static_cast<double>(2 * n) * sizeof(float);
    prof.working_set_bytes = static_cast<double>(2 * n) * sizeof(float);
    prof.pattern = xcl::AccessPattern::kStreaming;
    const std::size_t wg = std::min<std::size_t>(64, 2 * n);
    queue_->enqueue(scale, xcl::NDRange((2 * n + wg - 1) / wg * wg, wg),
                    prof);
  }
}

void Fft::finish() {
  // After an odd/even number of stages the final output sits in b_/a_:
  // stages = log2(n); the loop flips src_is_a once per stage starting from
  // true, so the last-written buffer is b when stages is odd, a when even.
  std::size_t stages = 0;
  for (std::size_t p = 1; p < n_; p <<= 1) ++stages;
  xcl::Buffer& result = (stages % 2 == 1) ? *buf_b_ : *buf_a_;
  queue_->enqueue_read<float>(result, std::span(output_));
}

void Fft::reference_fft(std::vector<std::complex<double>>& a) {
  const std::size_t n = a.size();
  if (n < 2) return;
  // Iterative Cooley-Tukey with bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  // Each stage's twiddles come from the same w *= wl recurrence every
  // block restarts from 1, so the stage's n/2 butterflies are independent
  // and bit-identical to a block-by-block walk; they run on the pool in
  // contiguous chunks.
  constexpr std::size_t kChunk = 2048;
  const std::size_t butterflies = n / 2;
  std::vector<std::complex<double>> twiddle;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang = -2.0 * M_PI / static_cast<double>(len);
    const std::complex<double> wl(std::cos(ang), std::sin(ang));
    twiddle.resize(half);
    std::complex<double> w(1.0, 0.0);
    for (std::size_t j = 0; j < half; ++j) {
      twiddle[j] = w;
      w *= wl;
    }
    xcl::ThreadPool::global().parallel_for(
        (butterflies + kChunk - 1) / kChunk, [&](std::size_t chunk) {
          const std::size_t end = std::min(butterflies, (chunk + 1) * kChunk);
          for (std::size_t b = chunk * kChunk; b < end; ++b) {
            // Butterfly b is j = b mod half of block b / half (n and len
            // are powers of two).
            const std::size_t j = b & (half - 1);
            const std::size_t top = 2 * b - j;
            const std::complex<double> u = a[top];
            const std::complex<double> v = a[top + half] * twiddle[j];
            a[top] = u + v;
            a[top + half] = u - v;
          }
        });
  }
}

void Fft::reference_ifft(std::vector<std::complex<double>>& a) {
  for (auto& v : a) v = std::conj(v);
  reference_fft(a);
  const double inv_n = 1.0 / static_cast<double>(a.size());
  for (auto& v : a) v = std::conj(v) * inv_n;
}

Validation Fft::validate() {
  std::vector<std::complex<double>> ref(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    ref[i] = {static_cast<double>(input_[2 * i]),
              static_cast<double>(input_[2 * i + 1])};
  }
  if (dir_ == FftDirection::kForward) {
    reference_fft(ref);
  } else {
    reference_ifft(ref);
  }
  std::vector<float> want(2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    want[2 * i] = static_cast<float>(ref[i].real());
    want[2 * i + 1] = static_cast<float>(ref[i].imag());
  }
  return validate_norm(output_, want, 1e-3, "fft vs double-precision CT");
}

void Fft::stream_trace(sim::TraceWriter& out) const {
  // One full transform: log2(n) Stockham stages ping-ponging between two
  // complex buffers, in work-item order per stage.
  const std::uint64_t base_a = 0x10000;
  const std::uint64_t base_b = base_a + 2 * n_ * sizeof(float);
  bool src_is_a = true;
  for (std::size_t p = 1; p < n_; p <<= 1) {
    const std::uint64_t src = src_is_a ? base_a : base_b;
    const std::uint64_t dst = src_is_a ? base_b : base_a;
    for (std::size_t i = 0; i < n_ / 2; ++i) {
      const std::size_t k = i & (p - 1);
      const std::size_t j = ((i - k) << 1) + k;
      out.emit(src + 2 * i * sizeof(float), 8, false);
      out.emit(src + 2 * (i + n_ / 2) * sizeof(float), 8, false);
      out.emit(dst + 2 * j * sizeof(float), 8, true);
      out.emit(dst + 2 * (j + p) * sizeof(float), 8, true);
    }
    src_is_a = !src_is_a;
  }
}

std::size_t Fft::trace_size_hint() const {
  std::size_t stages = 0;
  for (std::size_t p = 1; p < n_; p <<= 1) ++stages;
  return stages * 2 * n_;
}

void Fft::unbind() {
  buf_b_.reset();
  buf_a_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
