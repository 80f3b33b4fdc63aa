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
  twiddles_.reset();
  input_ = HostVector<float>(2 * n_);
  output_ = HostVector<float>(2 * n_);
  input_fill_.reset();
}

void Fft::fill_input() {
  input_fill_.ensure([&] {
    generate_indexed(input_.size(), 0x666674ull /* "fft" */, 1,
                     [&](SplitMix64& rng, std::size_t i) {
                       input_[i] = rng.uniform(-1.0f, 1.0f);
                     });
  });
}

void Fft::set_input(std::span<const float> interleaved) {
  require(interleaved.size() == 2 * n_, xcl::Status::kInvalidValue,
          "fft input must hold 2n interleaved floats");
  input_.assign(interleaved.begin(), interleaved.end());
  input_fill_.mark_filled();
}

void Fft::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  buf_a_.emplace(ctx, input_.size() * sizeof(float));
  buf_b_.emplace(ctx, input_.size() * sizeof(float));
  if (q.functional()) fill_input();  // run() uploads it
}

void Fft::run() {
  const std::size_t n = n_;
  queue_->enqueue_write<float>(*buf_a_, input_);

  // Bainville-style radix-2 Stockham: at stage with parameter p the kernel
  // reads element i and i + N/2, applies the twiddle, and scatters to
  // j = ((i - k) << 1) + k and j + p where k = i mod p.  The inverse
  // conjugates the twiddles (positive angle) and scales by 1/N at the end.
  const float sign = dir_ == FftDirection::kForward ? -1.0f : 1.0f;
  const auto angle = [sign](std::size_t k, std::size_t p) {
    return sign * static_cast<float>(M_PI) * static_cast<float>(k) /
           static_cast<float>(p);
  };

  // The span bodies read the top stage's twiddles, P = n/2 of them, from
  // one table tabulated with the item body's own angle expression.  Stage
  // p's butterfly k reads entry k * (P/p): scaling by a power of two
  // commutes with float rounding, so angle(k * (P/p), P) == angle(k, p)
  // bit for bit, and so do its cos and sin.  Model-only queues never run a
  // body and skip the table.
  if (queue_->functional() && !twiddles_) {
    const std::size_t top = n / 2;
    auto table = std::make_shared<HostVector<float>>(2 * top);
    constexpr std::size_t kChunk = 4096;
    xcl::ThreadPool::global().parallel_for(
        (top + kChunk - 1) / kChunk, [&](std::size_t c) {
          for (std::size_t k = c * kChunk; k < std::min(top, (c + 1) * kChunk);
               ++k) {
            const float theta = angle(k, top);
            (*table)[2 * k] = std::cos(theta);
            (*table)[2 * k + 1] = std::sin(theta);
          }
        });
    twiddles_ = std::move(table);
  }

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
      const float theta = angle(k, p);
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
    // The same butterfly with the tabulated twiddle, in the item body's
    // operation order.
    stage.span([=, tw = twiddles_](std::size_t begin, std::size_t end) {
      const float* EOD_RESTRICT u = in.data();
      const float* EOD_RESTRICT x = u + n;
      const float* EOD_RESTRICT w = tw->data();
      float* EOD_RESTRICT lo = out.data();
      float* EOD_RESTRICT hi = lo + 2 * p;
      const std::size_t step = 2 * (n / 2 / p);
      for (std::size_t i = begin; i < std::min(end, n / 2); ++i) {
        const std::size_t k = i & (p - 1);
        const std::size_t j = ((i - k) << 1) + k;
        const float wr = w[k * step];
        const float wi = w[k * step + 1];
        const float vr = x[2 * i] * wr - x[2 * i + 1] * wi;
        const float vi = x[2 * i] * wi + x[2 * i + 1] * wr;
        lo[2 * j] = u[2 * i] + vr;
        lo[2 * j + 1] = u[2 * i + 1] + vi;
        hi[2 * j] = u[2 * i] - vr;
        hi[2 * j + 1] = u[2 * i + 1] - vi;
      }
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
    scale.span([=](std::size_t begin, std::size_t end) {
      float* EOD_RESTRICT d = data.data();
      for (std::size_t i = begin; i < std::min(end, 2 * n); ++i) d[i] *= inv_n;
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

void Fft::reference_fft(std::span<std::complex<double>> a) {
  const std::size_t n = a.size();
  if (n < 2) return;
  xcl::ThreadPool& pool = xcl::ThreadPool::global();
  // Iterative Cooley-Tukey with bit-reversal permutation.  Each pair
  // (i, rev(i)) is swapped by the chunk holding its smaller index, so the
  // chunks touch disjoint pairs; inside a chunk j follows the serial loop's
  // reversed increment from rev(first index).
  constexpr std::size_t kChunk = 2048;
  const auto chunks = [&](std::size_t count) {
    return (count + kChunk - 1) / kChunk;
  };
  pool.parallel_for(chunks(n), [&](std::size_t chunk) {
    const std::size_t lo = chunk * kChunk;
    std::size_t j = 0;
    for (std::size_t bit = 1, rbit = n >> 1; rbit != 0; bit <<= 1, rbit >>= 1) {
      if (lo & bit) j |= rbit;
    }
    for (std::size_t i = lo; i < std::min(n, lo + kChunk); ++i) {
      if (i < j) std::swap(a[i], a[j]);
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
    }
  });
  // Each stage's twiddles come from the same w *= wl recurrence every
  // block restarts from 1, so a stage's butterflies are independent and
  // bit-identical to a block-by-block walk.  The stages up to `local`
  // points (at most kLocal, and small enough to leave 16 blocks) stay
  // inside aligned blocks, so one pool task per block runs all of them;
  // the wider stages run on the pool in contiguous chunks.
  constexpr std::size_t kLocal = 8192;
  const std::size_t local = std::clamp<std::size_t>(n / 16, 2, kLocal);
  // Twiddles live as separate real and imaginary tables.  Stored as pairs,
  // GCC 12 turns the w *= wl recurrence into one vector complex multiply,
  // which on FMA targets it fuses (vfmaddsub) even under
  // -ffp-contract=off, so the twiddles would round differently there.
  // Stage len's twiddles go to [first, first + len/2).
  struct Twiddles {
    HostVector<double> re, im;
    explicit Twiddles(std::size_t size) : re(size), im(size) {}
    void tabulate(std::size_t len, std::size_t first) {
      const double ang = -2.0 * M_PI / static_cast<double>(len);
      const std::complex<double> wl(std::cos(ang), std::sin(ang));
      std::complex<double> w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        re[first + j] = w.real();
        im[first + j] = w.imag();
        w *= wl;
      }
    }
  };
  const auto butterflies = [&](std::size_t len, std::size_t b,
                               std::size_t end, const Twiddles& tw,
                               std::size_t first) {
    const std::size_t half = len / 2;
    for (; b < end; ++b) {
      // Butterfly b is j = b mod half of block b / half (n and len are
      // powers of two).
      const std::size_t j = b & (half - 1);
      const std::size_t top = 2 * b - j;
      // v = x * w spelled on parts, as GCC expands the complex multiply
      // (the library call only when both parts are NaN).  GCC 12's SLP
      // vectorizer fuses the pair of part expressions into vfmaddsub on
      // FMA targets even under -ffp-contract=off, whether written as one
      // std::complex product or on parts; a product behind an association
      // barrier is not fused.
      const double xr = a[top + half].real();
      const double xi = a[top + half].imag();
      const double wr = tw.re[first + j];
      const double wi = tw.im[first + j];
      double vr = __builtin_assoc_barrier(xr * wr) - xi * wi;
      double vi = __builtin_assoc_barrier(xr * wi) + xi * wr;
      if (std::isnan(vr) && std::isnan(vi)) {
        const std::complex<double> v =
            a[top + half] * std::complex<double>(wr, wi);
        vr = v.real();
        vi = v.imag();
      }
      // u + v and u - v part by part, as complex addition is defined, so
      // u never round-trips through memory.
      const double ur = a[top].real();
      const double ui = a[top].imag();
      a[top] = {ur + vr, ui + vi};
      a[top + half] = {ur - vr, ui - vi};
    }
  };
  // The local stages' tables back to back: stage len starts at len/2 - 1.
  Twiddles local_twiddles(local - 1);
  for (std::size_t len = 2; len <= local; len <<= 1) {
    local_twiddles.tabulate(len, len / 2 - 1);
  }
  pool.parallel_for(n / local, [&](std::size_t block) {
    const std::size_t first = block * local / 2;
    for (std::size_t len = 2; len <= local; len <<= 1) {
      butterflies(len, first, first + local / 2, local_twiddles, len / 2 - 1);
    }
  });
  Twiddles twiddle(n / 2);  // first half used
  for (std::size_t len = 2 * local; len <= n; len <<= 1) {
    twiddle.tabulate(len, 0);
    pool.parallel_for(chunks(n / 2), [&](std::size_t chunk) {
      butterflies(len, chunk * kChunk, std::min(n / 2, (chunk + 1) * kChunk),
                  twiddle, 0);
    });
  }
}

void Fft::reference_ifft(std::span<std::complex<double>> a) {
  for (auto& v : a) v = std::conj(v);
  reference_fft(a);
  const double inv_n = 1.0 / static_cast<double>(a.size());
  for (auto& v : a) v = std::conj(v) * inv_n;
}

Validation Fft::validate() {
  // The staging copies run on the pool in chunks.
  constexpr std::size_t kChunk = 4096;
  xcl::ThreadPool& pool = xcl::ThreadPool::global();
  const std::size_t chunks = (n_ + kChunk - 1) / kChunk;
  fill_input();
  HostVector<std::complex<double>> ref(n_);
  pool.parallel_for(chunks, [&](std::size_t c) {
    for (std::size_t i = c * kChunk; i < std::min(n_, (c + 1) * kChunk); ++i) {
      ref[i] = {static_cast<double>(input_[2 * i]),
                static_cast<double>(input_[2 * i + 1])};
    }
  });
  if (dir_ == FftDirection::kForward) {
    reference_fft(ref);
  } else {
    reference_ifft(ref);
  }
  HostVector<float> want(2 * n_);
  pool.parallel_for(chunks, [&](std::size_t c) {
    for (std::size_t i = c * kChunk; i < std::min(n_, (c + 1) * kChunk); ++i) {
      want[2 * i] = static_cast<float>(ref[i].real());
      want[2 * i + 1] = static_cast<float>(ref[i].imag());
    }
  });
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
