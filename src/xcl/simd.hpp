// Portable explicit-SIMD primitives for span-tier kernel bodies
// (DESIGN.md §9).  Most span bodies hand the autovectorizer a clean counted
// loop; this header is for the loops the autovectorizer still misses --
// gathers, per-lane masks, data-dependent accumulation.  Kernel authors
// write width-agnostic code against `vfloat`/`vint32`/`vuint32` and the
// free functions below; the lane count is fixed at compile time by
// EOD_SIMD_WIDTH so the arithmetic (and therefore the result signature) is
// identical on every run of the same build.
//
// Backend: GCC/Clang vector extensions (`__attribute__((vector_size)))`),
// which lower to plain SSE/AVX/NEON element-wise instructions.  Every
// operation provided here is element-wise IEEE arithmetic or exact
// bit/select logic -- no horizontal reductions, no FMA contraction beyond
// what the scalar body would see under the same flags -- which is what lets
// a vector body promise bit-identical results to the per-item reference
// path (the determinism contract of DESIGN.md §9).
//
// `vdouble` holds kDoubleLanes = kLanes / 2 doubles in the same register
// width, for double-precision serial references (DESIGN.md §7, "Reference
// contract"): independent outputs ride in lanes, each lane keeping the
// scalar loop's operation order.  GCC 12 at -O2 leaves such loops scalar
// (its very-cheap vector cost model refuses any loop that needs an
// epilogue), so the lanes are spelled out rather than left to the compiler.
//
// Width gate: define EOD_SIMD_WIDTH to 1/4/8/16 to pin the lane count
// (floats per vector).  Unset, it defaults to the widest unit the target
// ISA advertises at compile time, or to 1 (the scalar fallback struct) on
// toolchains without the vector extension, so every platform builds.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(EOD_SIMD_WIDTH)
#if !defined(__GNUC__) && !defined(__clang__)
#define EOD_SIMD_WIDTH 1
#elif defined(__AVX512F__)
#define EOD_SIMD_WIDTH 16
#elif defined(__AVX__)
#define EOD_SIMD_WIDTH 8
#elif defined(__SSE2__) || defined(__aarch64__) || defined(__ARM_NEON)
#define EOD_SIMD_WIDTH 4
#else
#define EOD_SIMD_WIDTH 1
#endif
#endif

#if EOD_SIMD_WIDTH > 1 && (defined(__SSE2__) || defined(__AVX__))
#include <immintrin.h>
#endif

namespace eod::xcl::simd {

/// Lanes per vector (floats / 32-bit ints).  1 means the scalar fallback.
inline constexpr std::size_t kLanes = EOD_SIMD_WIDTH;
/// Lanes per vdouble: the same register width as vfloat.
inline constexpr std::size_t kDoubleLanes = kLanes > 1 ? kLanes / 2 : 1;

#if EOD_SIMD_WIDTH > 1 && (defined(__GNUC__) || defined(__clang__))

using vfloat =
    float __attribute__((vector_size(kLanes * sizeof(float))));
using vint32 =
    std::int32_t __attribute__((vector_size(kLanes * sizeof(std::int32_t))));
using vuint32 =
    std::uint32_t __attribute__((vector_size(kLanes * sizeof(std::uint32_t))));
using vdouble =
    double __attribute__((vector_size(kDoubleLanes * sizeof(double))));

[[nodiscard]] inline vfloat vbroadcast(float x) noexcept {
  return x - vfloat{};  // splat: {0,...} - (-x) idiom avoided; x - 0 per lane
}
[[nodiscard]] inline vint32 vbroadcast_i32(std::int32_t x) noexcept {
  return x - vint32{};
}
[[nodiscard]] inline vuint32 vbroadcast_u32(std::uint32_t x) noexcept {
  return x - vuint32{};
}
[[nodiscard]] inline vdouble vbroadcast_f64(double x) noexcept {
  return x - vdouble{};
}

/// Unaligned load/store: memcpy so tails and host containers with arbitrary
/// alignment are fine (xcl::Buffer storage is 64-byte aligned regardless).
[[nodiscard]] inline vfloat vload(const float* p) noexcept {
  vfloat v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void vstore(float* p, vfloat v) noexcept { std::memcpy(p, &v, sizeof(v)); }
[[nodiscard]] inline vuint32 vload_u32(const std::uint32_t* p) noexcept {
  vuint32 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void vstore_u32(std::uint32_t* p, vuint32 v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}
[[nodiscard]] inline vdouble vload_f64(const double* p) noexcept {
  vdouble v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void vstore_f64(double* p, vdouble v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}
/// Loads kDoubleLanes floats and widens each to double (exact).
[[nodiscard]] inline vdouble vload_widen(const float* p) noexcept {
#if EOD_SIMD_WIDTH == 16 && defined(__AVX512F__)
  return std::bit_cast<vdouble>(_mm512_cvtps_pd(_mm256_loadu_ps(p)));
#elif EOD_SIMD_WIDTH == 8 && defined(__AVX__)
  return std::bit_cast<vdouble>(_mm256_cvtps_pd(_mm_loadu_ps(p)));
#elif EOD_SIMD_WIDTH == 4 && defined(__SSE2__)
  return std::bit_cast<vdouble>(_mm_cvtps_pd(_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)))));
#else
  using vhalf =
      float __attribute__((vector_size(kDoubleLanes * sizeof(float))));
  vhalf h;
  std::memcpy(&h, p, sizeof(h));
  return __builtin_convertvector(h, vdouble);
#endif
}

/// Per-lane comparison: all-ones (-1) in lanes where a < b, 0 elsewhere.
/// Vector extensions give exactly this semantics for operator<.
[[nodiscard]] inline vint32 vlt(vfloat a, vfloat b) noexcept { return a < b; }
[[nodiscard]] inline vint32 vle(vfloat a, vfloat b) noexcept { return a <= b; }

/// Lane-wise select: mask lanes of -1 take `a`, lanes of 0 take `b`.
/// Pure bitwise blend -- never synthesizes arithmetic, so selecting an
/// accumulator through a mask preserves -0.0 and NaN payloads bit-exactly
/// (the reason masked accumulation must use select, not `+ 0.0f`).
[[nodiscard]] inline vfloat vselect(vint32 mask, vfloat a, vfloat b) noexcept {
  const vint32 ai = std::bit_cast<vint32>(a);
  const vint32 bi = std::bit_cast<vint32>(b);
  return std::bit_cast<vfloat>((mask & ai) | (~mask & bi));
}
[[nodiscard]] inline vint32 vselect_i32(vint32 mask, vint32 a,
                                        vint32 b) noexcept {
  return (mask & a) | (~mask & b);
}

/// Per-lane square root, correctly rounded (IEEE sqrt), matching
/// std::sqrt(float) lane for lane.  Hardware sqrtps where available;
/// otherwise per-lane __builtin_sqrtf (also correctly rounded).
[[nodiscard]] inline vfloat vsqrt(vfloat v) noexcept {
#if EOD_SIMD_WIDTH == 16 && defined(__AVX512F__)
  return std::bit_cast<vfloat>(_mm512_sqrt_ps(std::bit_cast<__m512>(v)));
#elif EOD_SIMD_WIDTH == 8 && defined(__AVX__)
  return std::bit_cast<vfloat>(_mm256_sqrt_ps(std::bit_cast<__m256>(v)));
#elif EOD_SIMD_WIDTH == 4 && defined(__SSE2__)
  return std::bit_cast<vfloat>(_mm_sqrt_ps(std::bit_cast<__m128>(v)));
#else
  vfloat out;
  for (std::size_t l = 0; l < kLanes; ++l) out[l] = __builtin_sqrtf(v[l]);
  return out;
#endif
}
/// Per-lane correctly rounded square root, matching std::sqrt(double).
[[nodiscard]] inline vdouble vsqrt(vdouble v) noexcept {
#if EOD_SIMD_WIDTH == 16 && defined(__AVX512F__)
  return std::bit_cast<vdouble>(_mm512_sqrt_pd(std::bit_cast<__m512d>(v)));
#elif EOD_SIMD_WIDTH == 8 && defined(__AVX__)
  return std::bit_cast<vdouble>(_mm256_sqrt_pd(std::bit_cast<__m256d>(v)));
#elif EOD_SIMD_WIDTH == 4 && defined(__SSE2__)
  return std::bit_cast<vdouble>(_mm_sqrt_pd(std::bit_cast<__m128d>(v)));
#else
  vdouble out;
  for (std::size_t l = 0; l < kDoubleLanes; ++l) {
    out[l] = __builtin_sqrt(v[l]);
  }
  return out;
#endif
}

#else  // scalar fallback: same surface, one lane, so simd bodies compile
       // (and run the reference arithmetic) on any toolchain.

struct vfloat {
  float lane[1];
  float& operator[](std::size_t) noexcept { return lane[0]; }
  float operator[](std::size_t) const noexcept { return lane[0]; }
  friend vfloat operator+(vfloat a, vfloat b) noexcept {
    return {{a.lane[0] + b.lane[0]}};
  }
  friend vfloat operator-(vfloat a, vfloat b) noexcept {
    return {{a.lane[0] - b.lane[0]}};
  }
  friend vfloat operator*(vfloat a, vfloat b) noexcept {
    return {{a.lane[0] * b.lane[0]}};
  }
  friend vfloat operator/(vfloat a, vfloat b) noexcept {
    return {{a.lane[0] / b.lane[0]}};
  }
  vfloat& operator+=(vfloat b) noexcept {
    lane[0] += b.lane[0];
    return *this;
  }
};

struct vdouble {
  double lane[1];
  double& operator[](std::size_t) noexcept { return lane[0]; }
  double operator[](std::size_t) const noexcept { return lane[0]; }
  friend vdouble operator+(vdouble a, vdouble b) noexcept {
    return {{a.lane[0] + b.lane[0]}};
  }
  friend vdouble operator-(vdouble a, vdouble b) noexcept {
    return {{a.lane[0] - b.lane[0]}};
  }
  friend vdouble operator*(vdouble a, vdouble b) noexcept {
    return {{a.lane[0] * b.lane[0]}};
  }
  friend vdouble operator/(vdouble a, vdouble b) noexcept {
    return {{a.lane[0] / b.lane[0]}};
  }
  vdouble& operator+=(vdouble b) noexcept {
    lane[0] += b.lane[0];
    return *this;
  }
};

struct vint32 {
  std::int32_t lane[1];
  std::int32_t& operator[](std::size_t) noexcept { return lane[0]; }
  std::int32_t operator[](std::size_t) const noexcept { return lane[0]; }
};

struct vuint32 {
  std::uint32_t lane[1];
  std::uint32_t& operator[](std::size_t) noexcept { return lane[0]; }
  std::uint32_t operator[](std::size_t) const noexcept { return lane[0]; }
  friend vuint32 operator^(vuint32 a, vuint32 b) noexcept {
    return {{a.lane[0] ^ b.lane[0]}};
  }
  friend vuint32 operator>>(vuint32 a, int s) noexcept {
    return {{a.lane[0] >> s}};
  }
};

[[nodiscard]] inline vfloat vbroadcast(float x) noexcept { return {{x}}; }
[[nodiscard]] inline vint32 vbroadcast_i32(std::int32_t x) noexcept {
  return {{x}};
}
[[nodiscard]] inline vuint32 vbroadcast_u32(std::uint32_t x) noexcept {
  return {{x}};
}
[[nodiscard]] inline vdouble vbroadcast_f64(double x) noexcept {
  return {{x}};
}
[[nodiscard]] inline vfloat vload(const float* p) noexcept { return {{*p}}; }
inline void vstore(float* p, vfloat v) noexcept { *p = v.lane[0]; }
[[nodiscard]] inline vdouble vload_f64(const double* p) noexcept {
  return {{*p}};
}
inline void vstore_f64(double* p, vdouble v) noexcept { *p = v.lane[0]; }
[[nodiscard]] inline vdouble vload_widen(const float* p) noexcept {
  return {{static_cast<double>(*p)}};
}
[[nodiscard]] inline vuint32 vload_u32(const std::uint32_t* p) noexcept {
  return {{*p}};
}
inline void vstore_u32(std::uint32_t* p, vuint32 v) noexcept {
  *p = v.lane[0];
}
[[nodiscard]] inline vint32 vlt(vfloat a, vfloat b) noexcept {
  return {{a.lane[0] < b.lane[0] ? std::int32_t{-1} : std::int32_t{0}}};
}
[[nodiscard]] inline vint32 vle(vfloat a, vfloat b) noexcept {
  return {{a.lane[0] <= b.lane[0] ? std::int32_t{-1} : std::int32_t{0}}};
}
[[nodiscard]] inline vfloat vselect(vint32 mask, vfloat a, vfloat b) noexcept {
  return mask.lane[0] != 0 ? a : b;
}
[[nodiscard]] inline vint32 vselect_i32(vint32 mask, vint32 a,
                                        vint32 b) noexcept {
  return mask.lane[0] != 0 ? a : b;
}
[[nodiscard]] inline vfloat vsqrt(vfloat v) noexcept {
  return {{__builtin_sqrtf(v.lane[0])}};
}
[[nodiscard]] inline vdouble vsqrt(vdouble v) noexcept {
  return {{__builtin_sqrt(v.lane[0])}};
}

#endif  // EOD_SIMD_WIDTH

}  // namespace eod::xcl::simd
