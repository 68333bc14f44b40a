#pragma once
// AVX-512 F+DQ backend: batch<T, N, arch::avx512> as an array of N/8
// 512-bit registers.  Only usable from translation units compiled with
// -mavx512f -mavx512dq (the per-arch kernel TUs); the preprocessor gate
// below keeps every other TU from ever seeing these specializations,
// which is what keeps the multi-backend build ODR-clean.
//
// This is the closest x86 model of A64FX SVE in the tree: a 512-bit
// vector is exactly one batch<double, 8>, and a hardware __mmask8 is
// exactly one sve-style predicate — whilelt/ld1/st1/sel all map to
// single masked instructions instead of the blend/maskload emulation
// the narrower backends need.
//
// Exactness notes (vs the op contract in batch.hpp):
//  * fma maps to vfmadd — a true single-rounding FMA, bit-identical to
//    std::fma.
//  * frintn maps to vrndscalepd(nearest) == std::nearbyint in the
//    default rounding mode.
//  * Masked loads/gathers/scatters use the native zero-masked forms, so
//    inactive lanes never touch memory — neither their data nor their
//    gather/scatter index (same no-fault contract as sve::ld1) — and
//    inactive gather lanes read as +0.0.
//  * cvt_s64/cvt_f64 keep the 0x1.8p52 magic-number trick rather than
//    vcvtpd2qq, so out-of-contract inputs (|x| >= 2^51) produce the
//    same unspecified-but-deterministic bits as every other backend.
//  * DQ is required for the 512-bit _pd logical forms (vandpd/vorpd/
//    vxorpd) used by neg/abs/copysign.

#include <array>
#include <cstdint>
#include <cstring>

#include "ookami/simd/arch.hpp"
#include "ookami/simd/batch.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace ookami::simd {

template <int N>
struct mask<N, arch::avx512> {
  static_assert(N % 8 == 0, "avx512 batches hold 8 doubles per register");
  static constexpr int kChunks = N / 8;
  __mmask8 r[kChunks];

  static mask ptrue() {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = static_cast<__mmask8>(0xff);
    return m;
  }
  static mask pfalse() {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = 0;
    return m;
  }
  static mask whilelt(std::size_t i, std::size_t n) {
    // Active lane count for this batch, clamped to [0, N].
    const unsigned cnt =
        i < n ? static_cast<unsigned>(n - i < static_cast<std::size_t>(N)
                                          ? n - i
                                          : static_cast<std::size_t>(N))
              : 0u;
    mask m;
    for (int k = 0; k < kChunks; ++k) {
      const unsigned lo = 8u * static_cast<unsigned>(k);
      const unsigned active = cnt > lo ? (cnt - lo < 8u ? cnt - lo : 8u) : 0u;
      m.r[k] = static_cast<__mmask8>((1u << active) - 1u);
    }
    return m;
  }

  [[nodiscard]] int bits() const {
    int b = 0;
    for (int k = 0; k < kChunks; ++k) b |= static_cast<int>(r[k]) << (8 * k);
    return b;
  }
  [[nodiscard]] bool any() const { return bits() != 0; }
  [[nodiscard]] bool all() const { return bits() == (1 << N) - 1; }
  [[nodiscard]] bool lane(int i) const { return (bits() >> i) & 1; }

  friend mask operator&(const mask& x, const mask& y) {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = static_cast<__mmask8>(x.r[k] & y.r[k]);
    return m;
  }
  friend mask operator|(const mask& x, const mask& y) {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = static_cast<__mmask8>(x.r[k] | y.r[k]);
    return m;
  }
  friend mask operator!(const mask& x) {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = static_cast<__mmask8>(~x.r[k] & 0xff);
    return m;
  }
};

template <int N>
struct batch<double, N, arch::avx512> {
  static_assert(N % 8 == 0);
  static constexpr int kChunks = N / 8;
  using pred = mask<N, arch::avx512>;
  __m512d r[kChunks];

  static batch dup(double x) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm512_set1_pd(x);
    return b;
  }
  static batch load(const double* p) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm512_loadu_pd(p + 8 * k);
    return b;
  }
  static batch ld1(const pred& pg, const double* p) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm512_maskz_loadu_pd(pg.r[k], p + 8 * k);
    return b;
  }
  static batch from_array(const std::array<double, N>& a) { return load(a.data()); }
  static batch gather(const pred& pg, const double* base, const std::uint32_t* idx) {
    batch b;
    for (int k = 0; k < kChunks; ++k) {
      // extracti32x8, not castsi512_si256: GCC 12's cast trips -Wuninitialized.
      const __m256i ix =
          _mm512_extracti32x8_epi32(_mm512_maskz_loadu_epi32(pg.r[k], idx + 8 * k), 0);
      b.r[k] = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), pg.r[k], ix, base, 8);
    }
    return b;
  }
  static batch gather(const pred& pg, const double* base, const std::int64_t* idx) {
    batch b;
    for (int k = 0; k < kChunks; ++k) {
      const __m512i ix = _mm512_maskz_loadu_epi64(pg.r[k], idx + 8 * k);
      b.r[k] = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), pg.r[k], ix, base, 8);
    }
    return b;
  }

  void store(double* p) const {
    for (int k = 0; k < kChunks; ++k) _mm512_storeu_pd(p + 8 * k, r[k]);
  }
  void st1(const pred& pg, double* p) const {
    for (int k = 0; k < kChunks; ++k) _mm512_mask_storeu_pd(p + 8 * k, pg.r[k], r[k]);
  }
  void scatter(const pred& pg, double* base, const std::uint32_t* idx) const {
    for (int k = 0; k < kChunks; ++k) {
      const __m256i ix =
          _mm512_extracti32x8_epi32(_mm512_maskz_loadu_epi32(pg.r[k], idx + 8 * k), 0);
      _mm512_mask_i32scatter_pd(base, pg.r[k], ix, r[k], 8);
    }
  }
  void scatter(const pred& pg, double* base, const std::int64_t* idx) const {
    for (int k = 0; k < kChunks; ++k) {
      const __m512i ix = _mm512_maskz_loadu_epi64(pg.r[k], idx + 8 * k);
      _mm512_mask_i64scatter_pd(base, pg.r[k], ix, r[k], 8);
    }
  }
  [[nodiscard]] std::array<double, N> to_array() const {
    std::array<double, N> a;
    store(a.data());
    return a;
  }
  [[nodiscard]] double lane(int i) const { return to_array()[static_cast<std::size_t>(i)]; }

  friend batch operator+(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_add_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator-(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_sub_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator*(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_mul_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator/(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_div_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator-(const batch& a) {
    batch c;
    const __m512d sign = _mm512_castsi512_pd(_mm512_set1_epi64(0x8000000000000000ll));
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_xor_pd(a.r[k], sign);
    return c;
  }
};

template <int N>
struct batch<std::int64_t, N, arch::avx512> {
  static_assert(N % 8 == 0);
  static constexpr int kChunks = N / 8;
  using pred = mask<N, arch::avx512>;
  __m512i r[kChunks];

  static batch dup(std::int64_t x) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm512_set1_epi64(x);
    return b;
  }
  static batch from_array(const std::array<std::int64_t, N>& a) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm512_loadu_si512(a.data() + 8 * k);
    return b;
  }
  static batch gather_table(const std::uint64_t* table, const batch& idx) {
    batch b;
    for (int k = 0; k < kChunks; ++k)
      b.r[k] = _mm512_i64gather_epi64(idx.r[k], reinterpret_cast<const long long*>(table), 8);
    return b;
  }
  [[nodiscard]] std::array<std::int64_t, N> to_array() const {
    std::array<std::int64_t, N> a;
    for (int k = 0; k < kChunks; ++k) _mm512_storeu_si512(a.data() + 8 * k, r[k]);
    return a;
  }
  [[nodiscard]] std::int64_t lane(int i) const { return to_array()[static_cast<std::size_t>(i)]; }

  friend batch operator+(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_add_epi64(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator&(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_and_si512(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator|(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm512_or_si512(a.r[k], b.r[k]);
    return c;
  }
};

template <int N>
inline batch<double, N, arch::avx512> fma(const batch<double, N, arch::avx512>& a,
                                          const batch<double, N, arch::avx512>& b,
                                          const batch<double, N, arch::avx512>& c) {
  batch<double, N, arch::avx512> o;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    o.r[k] = _mm512_fmadd_pd(a.r[k], b.r[k], c.r[k]);
  return o;
}

template <int N>
inline batch<double, N, arch::avx512> sel(const mask<N, arch::avx512>& pg,
                                          const batch<double, N, arch::avx512>& a,
                                          const batch<double, N, arch::avx512>& b) {
  batch<double, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_mask_blend_pd(pg.r[k], b.r[k], a.r[k]);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx512> sel(const mask<N, arch::avx512>& pg,
                                                const batch<std::int64_t, N, arch::avx512>& a,
                                                const batch<std::int64_t, N, arch::avx512>& b) {
  batch<std::int64_t, N, arch::avx512> c;
  for (int k = 0; k < batch<std::int64_t, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_mask_blend_epi64(pg.r[k], b.r[k], a.r[k]);
  return c;
}

#define OOKAMI_SIMD_AVX512_CMP(fn, pred_imm)                                        \
  template <int N>                                                                  \
  inline mask<N, arch::avx512> fn(const mask<N, arch::avx512>& pg,                  \
                                  const batch<double, N, arch::avx512>& a,          \
                                  const batch<double, N, arch::avx512>& b) {        \
    mask<N, arch::avx512> m;                                                        \
    for (int k = 0; k < mask<N, arch::avx512>::kChunks; ++k)                        \
      m.r[k] = _mm512_mask_cmp_pd_mask(pg.r[k], a.r[k], b.r[k], pred_imm);          \
    return m;                                                                       \
  }
OOKAMI_SIMD_AVX512_CMP(cmpgt, _CMP_GT_OQ)
OOKAMI_SIMD_AVX512_CMP(cmpge, _CMP_GE_OQ)
OOKAMI_SIMD_AVX512_CMP(cmplt, _CMP_LT_OQ)
OOKAMI_SIMD_AVX512_CMP(cmple, _CMP_LE_OQ)
#undef OOKAMI_SIMD_AVX512_CMP

template <int N>
inline mask<N, arch::avx512> cmpuo(const mask<N, arch::avx512>& pg,
                                   const batch<double, N, arch::avx512>& a) {
  mask<N, arch::avx512> m;
  for (int k = 0; k < mask<N, arch::avx512>::kChunks; ++k)
    m.r[k] = _mm512_mask_cmp_pd_mask(pg.r[k], a.r[k], a.r[k], _CMP_UNORD_Q);
  return m;
}

template <int N>
inline mask<N, arch::avx512> cmpge(const batch<std::int64_t, N, arch::avx512>& a,
                                   const batch<std::int64_t, N, arch::avx512>& b) {
  mask<N, arch::avx512> m;
  for (int k = 0; k < mask<N, arch::avx512>::kChunks; ++k)
    m.r[k] = _mm512_cmpge_epi64_mask(a.r[k], b.r[k]);
  return m;
}

template <int N>
inline batch<double, N, arch::avx512> abs(const batch<double, N, arch::avx512>& a) {
  batch<double, N, arch::avx512> c;
  const __m512d magmask = _mm512_castsi512_pd(_mm512_set1_epi64(0x7fffffffffffffffll));
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_and_pd(a.r[k], magmask);
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> min(const batch<double, N, arch::avx512>& a,
                                          const batch<double, N, arch::avx512>& b) {
  batch<double, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    // VMINPD keeps src1 when src1<src2, else src2 (NaN/±0 ties -> src2),
    // which is exactly the contract's a<b?a:b.
    c.r[k] = _mm512_min_pd(a.r[k], b.r[k]);
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> max(const batch<double, N, arch::avx512>& a,
                                          const batch<double, N, arch::avx512>& b) {
  batch<double, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_max_pd(a.r[k], b.r[k]);  // a>b?a:b (unordered/tie -> b)
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> sqrt(const batch<double, N, arch::avx512>& a) {
  batch<double, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_sqrt_pd(a.r[k]);
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> copysign(const batch<double, N, arch::avx512>& mag,
                                               const batch<double, N, arch::avx512>& sgn) {
  batch<double, N, arch::avx512> c;
  const __m512d sign = _mm512_castsi512_pd(_mm512_set1_epi64(0x8000000000000000ll));
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_or_pd(_mm512_andnot_pd(sign, mag.r[k]), _mm512_and_pd(sign, sgn.r[k]));
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> frintn(const batch<double, N, arch::avx512>& a) {
  batch<double, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_roundscale_pd(a.r[k], _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx512> cvt_s64(const batch<double, N, arch::avx512>& a) {
  batch<std::int64_t, N, arch::avx512> c;
  const __m512d magic = _mm512_set1_pd(0x1.8p52);
  const __m512i magic_bits = _mm512_set1_epi64(0x4338000000000000ll);
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_sub_epi64(_mm512_castpd_si512(_mm512_add_pd(a.r[k], magic)), magic_bits);
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> cvt_f64(const batch<std::int64_t, N, arch::avx512>& a) {
  batch<double, N, arch::avx512> c;
  const __m512i magic_bits = _mm512_set1_epi64(0x4338000000000000ll);
  const __m512d magic = _mm512_set1_pd(0x1.8p52);
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_sub_pd(_mm512_castsi512_pd(_mm512_add_epi64(a.r[k], magic_bits)), magic);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx512> bitcast_s64(const batch<double, N, arch::avx512>& a) {
  batch<std::int64_t, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_castpd_si512(a.r[k]);
  return c;
}

template <int N>
inline batch<double, N, arch::avx512> bitcast_f64(const batch<std::int64_t, N, arch::avx512>& a) {
  batch<double, N, arch::avx512> c;
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_castsi512_pd(a.r[k]);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx512> shr(const batch<std::int64_t, N, arch::avx512>& a,
                                                int s) {
  batch<std::int64_t, N, arch::avx512> c;
  for (int k = 0; k < batch<std::int64_t, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_srli_epi64(a.r[k], static_cast<unsigned>(s));
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx512> shl(const batch<std::int64_t, N, arch::avx512>& a,
                                                int s) {
  batch<std::int64_t, N, arch::avx512> c;
  for (int k = 0; k < batch<std::int64_t, N, arch::avx512>::kChunks; ++k)
    c.r[k] = _mm512_slli_epi64(a.r[k], static_cast<unsigned>(s));
  return c;
}

template <int N>
inline double reduce_add(const batch<double, N, arch::avx512>& a) {
  // The contract's pairwise tree: chunk tree first, then 256-bit
  // halves, then the avx2-identical 128-bit tail, so an 8-lane avx512
  // sum is bit-identical to the 8-lane avx2 sum.
  __m512d acc[batch<double, N, arch::avx512>::kChunks];
  for (int k = 0; k < batch<double, N, arch::avx512>::kChunks; ++k) acc[k] = a.r[k];
  int n = batch<double, N, arch::avx512>::kChunks;
  while (n > 1) {
    for (int k = 0; k < n / 2; ++k) acc[k] = _mm512_add_pd(acc[k], acc[k + n / 2]);
    n /= 2;
  }
  const __m256d half =
      _mm256_add_pd(_mm512_castpd512_pd256(acc[0]), _mm512_extractf64x4_pd(acc[0], 1));
  const __m128d lo = _mm256_castpd256_pd128(half);
  const __m128d hi = _mm256_extractf128_pd(half, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

template <int N>
inline double reduce_add_ordered(const mask<N, arch::avx512>& pg,
                                 const batch<double, N, arch::avx512>& a) {
  const int bits = pg.bits();
  const std::array<double, N> t = a.to_array();
  double s = 0.0;
  for (int i = 0; i < N; ++i)
    if ((bits >> i) & 1) s += t[static_cast<std::size_t>(i)];
  return s;
}

}  // namespace ookami::simd

#endif  // __AVX512F__ && __AVX512DQ__
