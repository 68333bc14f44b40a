#pragma once
// AVX2+FMA backend: batch<T, N, arch::avx2> as an array of N/4 256-bit
// registers.  Only usable from translation units compiled with
// -mavx2 -mfma (the per-arch kernel TUs); the preprocessor gate below
// keeps every other TU from ever seeing these specializations, which is
// what keeps the multi-backend build ODR-clean.
//
// Exactness notes (vs the op contract in batch.hpp):
//  * fma maps to vfmadd — a true single-rounding FMA, bit-identical to
//    std::fma.
//  * frintn maps to vroundpd(nearest) == std::nearbyint in the default
//    rounding mode.
//  * Masked loads/gathers use maskload / masked-gather forms so inactive
//    lanes never touch memory — neither their data nor their gather
//    index (same no-fault contract as sve::ld1 and sve::ld1_gather).
//  * u32 gather indices ride _mm256_i32gather_pd, which sign-extends;
//    fine for any index < 2^31, which covers every array in this repo.

#include <array>
#include <cstdint>
#include <cstring>

#include "ookami/simd/arch.hpp"
#include "ookami/simd/batch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace ookami::simd {

template <int N>
struct mask<N, arch::avx2> {
  static_assert(N % 4 == 0, "avx2 batches hold 4 doubles per register");
  static constexpr int kChunks = N / 4;
  __m256d r[kChunks];

  static mask ptrue() {
    mask m;
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (int k = 0; k < kChunks; ++k) m.r[k] = ones;
    return m;
  }
  static mask pfalse() {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = _mm256_setzero_pd();
    return m;
  }
  static mask whilelt(std::size_t i, std::size_t n) {
    // Active lane count for this batch, clamped to [0, N].
    const long long cnt =
        i < n ? static_cast<long long>(n - i < static_cast<std::size_t>(N) ? n - i
                                                                           : static_cast<std::size_t>(N))
              : 0;
    mask m;
    for (int k = 0; k < kChunks; ++k) {
      const __m256i lanes = _mm256_add_epi64(_mm256_set_epi64x(3, 2, 1, 0),
                                             _mm256_set1_epi64x(4 * k));
      m.r[k] = _mm256_castsi256_pd(_mm256_cmpgt_epi64(_mm256_set1_epi64x(cnt), lanes));
    }
    return m;
  }

  [[nodiscard]] int bits() const {
    int b = 0;
    for (int k = 0; k < kChunks; ++k) b |= _mm256_movemask_pd(r[k]) << (4 * k);
    return b;
  }
  [[nodiscard]] bool any() const { return bits() != 0; }
  [[nodiscard]] bool all() const { return bits() == (1 << N) - 1; }
  [[nodiscard]] bool lane(int i) const { return (bits() >> i) & 1; }

  friend mask operator&(const mask& x, const mask& y) {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = _mm256_and_pd(x.r[k], y.r[k]);
    return m;
  }
  friend mask operator|(const mask& x, const mask& y) {
    mask m;
    for (int k = 0; k < kChunks; ++k) m.r[k] = _mm256_or_pd(x.r[k], y.r[k]);
    return m;
  }
  friend mask operator!(const mask& x) {
    mask m;
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (int k = 0; k < kChunks; ++k) m.r[k] = _mm256_andnot_pd(x.r[k], ones);
    return m;
  }
};

template <int N>
struct batch<double, N, arch::avx2> {
  static_assert(N % 4 == 0);
  static constexpr int kChunks = N / 4;
  using pred = mask<N, arch::avx2>;
  __m256d r[kChunks];

  static batch dup(double x) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm256_set1_pd(x);
    return b;
  }
  static batch load(const double* p) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm256_loadu_pd(p + 4 * k);
    return b;
  }
  static batch ld1(const pred& pg, const double* p) {
    batch b;
    for (int k = 0; k < kChunks; ++k)
      b.r[k] = _mm256_maskload_pd(p + 4 * k, _mm256_castpd_si256(pg.r[k]));
    return b;
  }
  static batch from_array(const std::array<double, N>& a) { return load(a.data()); }
  static batch gather(const pred& pg, const double* base, const std::uint32_t* idx) {
    batch b;
    for (int k = 0; k < kChunks; ++k) {
      // Narrow the 64-bit lane mask to the 32-bit index lanes.
      const __m128i m32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
          _mm256_castpd_si256(pg.r[k]), _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
      const __m128i ix = _mm_maskload_epi32(reinterpret_cast<const int*>(idx + 4 * k), m32);
      b.r[k] = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, ix, pg.r[k], 8);
    }
    return b;
  }
  static batch gather(const pred& pg, const double* base, const std::int64_t* idx) {
    batch b;
    for (int k = 0; k < kChunks; ++k) {
      const __m256i ix = _mm256_maskload_epi64(reinterpret_cast<const long long*>(idx + 4 * k),
                                               _mm256_castpd_si256(pg.r[k]));
      b.r[k] = _mm256_mask_i64gather_pd(_mm256_setzero_pd(), base, ix, pg.r[k], 8);
    }
    return b;
  }

  void store(double* p) const {
    for (int k = 0; k < kChunks; ++k) _mm256_storeu_pd(p + 4 * k, r[k]);
  }
  void st1(const pred& pg, double* p) const {
    for (int k = 0; k < kChunks; ++k)
      _mm256_maskstore_pd(p + 4 * k, _mm256_castpd_si256(pg.r[k]), r[k]);
  }
  void scatter(const pred& pg, double* base, const std::uint32_t* idx) const {
    // AVX2 has no scatter instruction.
    const int bits = pg.bits();
    std::array<double, N> t;
    store(t.data());
    for (int i = 0; i < N; ++i)
      if ((bits >> i) & 1) base[idx[i]] = t[static_cast<std::size_t>(i)];
  }
  void scatter(const pred& pg, double* base, const std::int64_t* idx) const {
    const int bits = pg.bits();
    std::array<double, N> t;
    store(t.data());
    for (int i = 0; i < N; ++i)
      if ((bits >> i) & 1) base[idx[i]] = t[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::array<double, N> to_array() const {
    std::array<double, N> a;
    store(a.data());
    return a;
  }
  [[nodiscard]] double lane(int i) const { return to_array()[static_cast<std::size_t>(i)]; }

  friend batch operator+(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_add_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator-(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_sub_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator*(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_mul_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator/(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_div_pd(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator-(const batch& a) {
    batch c;
    const __m256d sign = _mm256_castsi256_pd(_mm256_set1_epi64x(0x8000000000000000ll));
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_xor_pd(a.r[k], sign);
    return c;
  }
};

template <int N>
struct batch<std::int64_t, N, arch::avx2> {
  static_assert(N % 4 == 0);
  static constexpr int kChunks = N / 4;
  using pred = mask<N, arch::avx2>;
  __m256i r[kChunks];

  static batch dup(std::int64_t x) {
    batch b;
    for (int k = 0; k < kChunks; ++k) b.r[k] = _mm256_set1_epi64x(x);
    return b;
  }
  static batch from_array(const std::array<std::int64_t, N>& a) {
    batch b;
    for (int k = 0; k < kChunks; ++k)
      b.r[k] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + 4 * k));
    return b;
  }
  static batch gather_table(const std::uint64_t* table, const batch& idx) {
    batch b;
    for (int k = 0; k < kChunks; ++k)
      b.r[k] = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(table),
                                      idx.r[k], 8);
    return b;
  }
  [[nodiscard]] std::array<std::int64_t, N> to_array() const {
    std::array<std::int64_t, N> a;
    for (int k = 0; k < kChunks; ++k)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.data() + 4 * k), r[k]);
    return a;
  }
  [[nodiscard]] std::int64_t lane(int i) const { return to_array()[static_cast<std::size_t>(i)]; }

  friend batch operator+(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_add_epi64(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator&(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_and_si256(a.r[k], b.r[k]);
    return c;
  }
  friend batch operator|(const batch& a, const batch& b) {
    batch c;
    for (int k = 0; k < kChunks; ++k) c.r[k] = _mm256_or_si256(a.r[k], b.r[k]);
    return c;
  }
};

template <int N>
inline batch<double, N, arch::avx2> fma(const batch<double, N, arch::avx2>& a,
                                        const batch<double, N, arch::avx2>& b,
                                        const batch<double, N, arch::avx2>& c) {
  batch<double, N, arch::avx2> o;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    o.r[k] = _mm256_fmadd_pd(a.r[k], b.r[k], c.r[k]);
  return o;
}

template <int N>
inline batch<double, N, arch::avx2> sel(const mask<N, arch::avx2>& pg,
                                        const batch<double, N, arch::avx2>& a,
                                        const batch<double, N, arch::avx2>& b) {
  batch<double, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_blendv_pd(b.r[k], a.r[k], pg.r[k]);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx2> sel(const mask<N, arch::avx2>& pg,
                                              const batch<std::int64_t, N, arch::avx2>& a,
                                              const batch<std::int64_t, N, arch::avx2>& b) {
  batch<std::int64_t, N, arch::avx2> c;
  for (int k = 0; k < batch<std::int64_t, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(b.r[k]), _mm256_castsi256_pd(a.r[k]), pg.r[k]));
  return c;
}

#define OOKAMI_SIMD_AVX2_CMP(fn, pred_imm)                                          \
  template <int N>                                                                  \
  inline mask<N, arch::avx2> fn(const mask<N, arch::avx2>& pg,                      \
                                const batch<double, N, arch::avx2>& a,              \
                                const batch<double, N, arch::avx2>& b) {            \
    mask<N, arch::avx2> m;                                                          \
    for (int k = 0; k < mask<N, arch::avx2>::kChunks; ++k)                          \
      m.r[k] = _mm256_and_pd(pg.r[k], _mm256_cmp_pd(a.r[k], b.r[k], pred_imm));     \
    return m;                                                                       \
  }
OOKAMI_SIMD_AVX2_CMP(cmpgt, _CMP_GT_OQ)
OOKAMI_SIMD_AVX2_CMP(cmpge, _CMP_GE_OQ)
OOKAMI_SIMD_AVX2_CMP(cmplt, _CMP_LT_OQ)
OOKAMI_SIMD_AVX2_CMP(cmple, _CMP_LE_OQ)
#undef OOKAMI_SIMD_AVX2_CMP

template <int N>
inline mask<N, arch::avx2> cmpuo(const mask<N, arch::avx2>& pg,
                                 const batch<double, N, arch::avx2>& a) {
  mask<N, arch::avx2> m;
  for (int k = 0; k < mask<N, arch::avx2>::kChunks; ++k)
    m.r[k] = _mm256_and_pd(pg.r[k], _mm256_cmp_pd(a.r[k], a.r[k], _CMP_UNORD_Q));
  return m;
}

template <int N>
inline mask<N, arch::avx2> cmpge(const batch<std::int64_t, N, arch::avx2>& a,
                                 const batch<std::int64_t, N, arch::avx2>& b) {
  mask<N, arch::avx2> m;
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (int k = 0; k < mask<N, arch::avx2>::kChunks; ++k)
    // a >= b  <=>  !(b > a)
    m.r[k] = _mm256_castsi256_pd(
        _mm256_xor_si256(_mm256_cmpgt_epi64(b.r[k], a.r[k]), ones));
  return m;
}

template <int N>
inline batch<double, N, arch::avx2> abs(const batch<double, N, arch::avx2>& a) {
  batch<double, N, arch::avx2> c;
  const __m256d magmask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_and_pd(a.r[k], magmask);
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> min(const batch<double, N, arch::avx2>& a,
                                        const batch<double, N, arch::avx2>& b) {
  batch<double, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    // VMINPD keeps src1 when src1<src2, else src2 (NaN/±0 ties -> src2),
    // which is exactly the contract's a<b?a:b.
    c.r[k] = _mm256_min_pd(a.r[k], b.r[k]);
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> max(const batch<double, N, arch::avx2>& a,
                                        const batch<double, N, arch::avx2>& b) {
  batch<double, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_max_pd(a.r[k], b.r[k]);  // a>b?a:b (unordered/tie -> b)
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> sqrt(const batch<double, N, arch::avx2>& a) {
  batch<double, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k) c.r[k] = _mm256_sqrt_pd(a.r[k]);
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> copysign(const batch<double, N, arch::avx2>& mag,
                                             const batch<double, N, arch::avx2>& sgn) {
  batch<double, N, arch::avx2> c;
  const __m256d sign = _mm256_castsi256_pd(_mm256_set1_epi64x(0x8000000000000000ll));
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_or_pd(_mm256_andnot_pd(sign, mag.r[k]), _mm256_and_pd(sign, sgn.r[k]));
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> frintn(const batch<double, N, arch::avx2>& a) {
  batch<double, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_round_pd(a.r[k], _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx2> cvt_s64(const batch<double, N, arch::avx2>& a) {
  batch<std::int64_t, N, arch::avx2> c;
  const __m256d magic = _mm256_set1_pd(0x1.8p52);
  const __m256i magic_bits = _mm256_set1_epi64x(0x4338000000000000ll);
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(a.r[k], magic)), magic_bits);
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> cvt_f64(const batch<std::int64_t, N, arch::avx2>& a) {
  batch<double, N, arch::avx2> c;
  const __m256i magic_bits = _mm256_set1_epi64x(0x4338000000000000ll);
  const __m256d magic = _mm256_set1_pd(0x1.8p52);
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(a.r[k], magic_bits)), magic);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx2> bitcast_s64(const batch<double, N, arch::avx2>& a) {
  batch<std::int64_t, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_castpd_si256(a.r[k]);
  return c;
}

template <int N>
inline batch<double, N, arch::avx2> bitcast_f64(const batch<std::int64_t, N, arch::avx2>& a) {
  batch<double, N, arch::avx2> c;
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_castsi256_pd(a.r[k]);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx2> shr(const batch<std::int64_t, N, arch::avx2>& a, int s) {
  batch<std::int64_t, N, arch::avx2> c;
  for (int k = 0; k < batch<std::int64_t, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_srli_epi64(a.r[k], s);
  return c;
}

template <int N>
inline batch<std::int64_t, N, arch::avx2> shl(const batch<std::int64_t, N, arch::avx2>& a, int s) {
  batch<std::int64_t, N, arch::avx2> c;
  for (int k = 0; k < batch<std::int64_t, N, arch::avx2>::kChunks; ++k)
    c.r[k] = _mm256_slli_epi64(a.r[k], s);
  return c;
}

template <int N>
inline double reduce_add(const batch<double, N, arch::avx2>& a) {
  // The contract's pairwise tree.
  __m256d acc[batch<double, N, arch::avx2>::kChunks];
  for (int k = 0; k < batch<double, N, arch::avx2>::kChunks; ++k) acc[k] = a.r[k];
  int n = batch<double, N, arch::avx2>::kChunks;
  while (n > 1) {
    for (int k = 0; k < n / 2; ++k) acc[k] = _mm256_add_pd(acc[k], acc[k + n / 2]);
    n /= 2;
  }
  const __m128d lo = _mm256_castpd256_pd128(acc[0]);
  const __m128d hi = _mm256_extractf128_pd(acc[0], 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

template <int N>
inline double reduce_add_ordered(const mask<N, arch::avx2>& pg,
                                 const batch<double, N, arch::avx2>& a) {
  const int bits = pg.bits();
  const std::array<double, N> t = a.to_array();
  double s = 0.0;
  for (int i = 0; i < N; ++i)
    if ((bits >> i) & 1) s += t[static_cast<std::size_t>(i)];
  return s;
}

}  // namespace ookami::simd

#endif  // __AVX2__ && __FMA__
