#pragma once
// Portable fixed-width SIMD batches — the scalar reference backend.
//
// batch<T, N, Arch> is a value of N lanes of T processed as one unit.
// This header defines the operation set every backend implements, in its
// plain-loop scalar form; batch_avx2.hpp and batch_avx512.hpp provide
// the intrinsic specializations for x86.  Kernels are written once as
// templates over the Arch tag and instantiated per backend in dedicated
// translation units (compiled with the matching -m flags), then selected
// at runtime through ookami::simd::active_backend().
//
// Semantics contract (every backend must match the scalar reference):
//  * ld1/gather zero inactive lanes; st1/scatter leave inactive memory
//    untouched and never read or write past an inactive lane's address.
//  * fma is a true fused multiply-add (one rounding), matching std::fma.
//  * frintn rounds to nearest, ties to even.
//  * cvt_s64/cvt_f64 are exact for integral values with |x| < 2^51 and
//    unspecified (but non-trapping) outside that range — callers mask
//    out-of-range lanes afterwards, as the SVE kernels do.
//  * reduce_add_ordered accumulates active lanes in lane order (the
//    ookami::sve::reduce_add contract); reduce_add may use any shape.

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "ookami/simd/arch.hpp"

namespace ookami::simd {

template <int N, class A>
struct mask;
template <class T, int N, class A>
struct batch;

// ---------------------------------------------------------------------------
// Scalar mask: one bool per lane.
// ---------------------------------------------------------------------------

template <int N>
struct mask<N, arch::scalar> {
  std::array<bool, N> b{};

  static mask ptrue() {
    mask m;
    m.b.fill(true);
    return m;
  }
  static mask pfalse() { return mask{}; }
  /// Lanes [0, n-i) active — WHILELT loop control.
  static mask whilelt(std::size_t i, std::size_t n) {
    mask m;
    for (int l = 0; l < N; ++l) m.b[static_cast<std::size_t>(l)] = i + static_cast<std::size_t>(l) < n;
    return m;
  }

  [[nodiscard]] bool any() const {
    for (bool x : b)
      if (x) return true;
    return false;
  }
  [[nodiscard]] bool all() const {
    for (bool x : b)
      if (!x) return false;
    return true;
  }
  [[nodiscard]] bool lane(int i) const { return b[static_cast<std::size_t>(i)]; }

  friend mask operator&(const mask& x, const mask& y) {
    mask r;
    for (int i = 0; i < N; ++i) r.b[i] = x.b[i] && y.b[i];
    return r;
  }
  friend mask operator|(const mask& x, const mask& y) {
    mask r;
    for (int i = 0; i < N; ++i) r.b[i] = x.b[i] || y.b[i];
    return r;
  }
  friend mask operator!(const mask& x) {
    mask r;
    for (int i = 0; i < N; ++i) r.b[i] = !x.b[i];
    return r;
  }
};

// ---------------------------------------------------------------------------
// Scalar double batch.
// ---------------------------------------------------------------------------

template <int N>
struct batch<double, N, arch::scalar> {
  using pred = mask<N, arch::scalar>;
  std::array<double, N> v{};

  static batch dup(double x) {
    batch r;
    r.v.fill(x);
    return r;
  }
  static batch load(const double* p) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = p[i];
    return r;
  }
  static batch ld1(const pred& pg, const double* p) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = pg.b[i] ? p[i] : 0.0;
    return r;
  }
  static batch from_array(const std::array<double, N>& a) {
    batch r;
    r.v = a;
    return r;
  }
  static batch gather(const pred& pg, const double* base, const std::uint32_t* idx) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = pg.b[i] ? base[idx[i]] : 0.0;
    return r;
  }
  /// 64-bit signed indices: supports negative offsets from `base`.
  static batch gather(const pred& pg, const double* base, const std::int64_t* idx) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = pg.b[i] ? base[idx[i]] : 0.0;
    return r;
  }

  void store(double* p) const {
    for (int i = 0; i < N; ++i) p[i] = v[i];
  }
  void st1(const pred& pg, double* p) const {
    for (int i = 0; i < N; ++i)
      if (pg.b[i]) p[i] = v[i];
  }
  void scatter(const pred& pg, double* base, const std::uint32_t* idx) const {
    for (int i = 0; i < N; ++i)
      if (pg.b[i]) base[idx[i]] = v[i];
  }
  void scatter(const pred& pg, double* base, const std::int64_t* idx) const {
    for (int i = 0; i < N; ++i)
      if (pg.b[i]) base[idx[i]] = v[i];
  }
  [[nodiscard]] std::array<double, N> to_array() const { return v; }
  [[nodiscard]] double lane(int i) const { return v[static_cast<std::size_t>(i)]; }

  friend batch operator+(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend batch operator-(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend batch operator*(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend batch operator/(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
  friend batch operator-(const batch& a) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = -a.v[i];
    return r;
  }
};

// ---------------------------------------------------------------------------
// Scalar int64 batch (bit patterns and small integers).
// ---------------------------------------------------------------------------

template <int N>
struct batch<std::int64_t, N, arch::scalar> {
  using pred = mask<N, arch::scalar>;
  std::array<std::int64_t, N> v{};

  static batch dup(std::int64_t x) {
    batch r;
    r.v.fill(x);
    return r;
  }
  static batch from_array(const std::array<std::int64_t, N>& a) {
    batch r;
    r.v = a;
    return r;
  }
  /// Table gather for the FEXPA fraction table (indices in [0, 64)).
  static batch gather_table(const std::uint64_t* table, const batch& idx) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<std::int64_t>(table[idx.v[i]]);
    return r;
  }
  [[nodiscard]] std::array<std::int64_t, N> to_array() const { return v; }
  [[nodiscard]] std::int64_t lane(int i) const { return v[static_cast<std::size_t>(i)]; }

  friend batch operator+(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend batch operator&(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] & b.v[i];
    return r;
  }
  friend batch operator|(const batch& a, const batch& b) {
    batch r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] | b.v[i];
    return r;
  }
};

// Free functions: the batch operation set in scalar form. -------------------

template <int N>
inline batch<double, N, arch::scalar> fma(const batch<double, N, arch::scalar>& a,
                                          const batch<double, N, arch::scalar>& b,
                                          const batch<double, N, arch::scalar>& c) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
  return r;
}

template <int N>
inline batch<double, N, arch::scalar> sel(const mask<N, arch::scalar>& pg,
                                          const batch<double, N, arch::scalar>& a,
                                          const batch<double, N, arch::scalar>& b) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = pg.b[i] ? a.v[i] : b.v[i];
  return r;
}

template <int N>
inline batch<std::int64_t, N, arch::scalar> sel(const mask<N, arch::scalar>& pg,
                                                const batch<std::int64_t, N, arch::scalar>& a,
                                                const batch<std::int64_t, N, arch::scalar>& b) {
  batch<std::int64_t, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = pg.b[i] ? a.v[i] : b.v[i];
  return r;
}

#define OOKAMI_SIMD_SCALAR_CMP(fn, op)                                               \
  template <int N>                                                                   \
  inline mask<N, arch::scalar> fn(const mask<N, arch::scalar>& pg,                   \
                                  const batch<double, N, arch::scalar>& a,           \
                                  const batch<double, N, arch::scalar>& b) {         \
    mask<N, arch::scalar> r;                                                         \
    for (int i = 0; i < N; ++i) r.b[i] = pg.b[i] && (a.v[i] op b.v[i]);              \
    return r;                                                                        \
  }
OOKAMI_SIMD_SCALAR_CMP(cmpgt, >)
OOKAMI_SIMD_SCALAR_CMP(cmpge, >=)
OOKAMI_SIMD_SCALAR_CMP(cmplt, <)
OOKAMI_SIMD_SCALAR_CMP(cmple, <=)
#undef OOKAMI_SIMD_SCALAR_CMP

/// True on active lanes where `a` is NaN.
template <int N>
inline mask<N, arch::scalar> cmpuo(const mask<N, arch::scalar>& pg,
                                   const batch<double, N, arch::scalar>& a) {
  mask<N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.b[i] = pg.b[i] && std::isnan(a.v[i]);
  return r;
}

/// Signed 64-bit greater-or-equal per lane.
template <int N>
inline mask<N, arch::scalar> cmpge(const batch<std::int64_t, N, arch::scalar>& a,
                                   const batch<std::int64_t, N, arch::scalar>& b) {
  mask<N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.b[i] = a.v[i] >= b.v[i];
  return r;
}

template <int N>
inline batch<double, N, arch::scalar> abs(const batch<double, N, arch::scalar>& a) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::fabs(a.v[i]);
  return r;
}

template <int N>
inline batch<double, N, arch::scalar> min(const batch<double, N, arch::scalar>& a,
                                          const batch<double, N, arch::scalar>& b) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}

template <int N>
inline batch<double, N, arch::scalar> max(const batch<double, N, arch::scalar>& a,
                                          const batch<double, N, arch::scalar>& b) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}

/// Correctly rounded per-lane square root.
template <int N>
inline batch<double, N, arch::scalar> sqrt(const batch<double, N, arch::scalar>& a) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}

/// Copy the sign bit of `sgn` onto the magnitude of `mag`.
template <int N>
inline batch<double, N, arch::scalar> copysign(const batch<double, N, arch::scalar>& mag,
                                               const batch<double, N, arch::scalar>& sgn) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::copysign(mag.v[i], sgn.v[i]);
  return r;
}

/// FRINTN: round to nearest, ties to even.
template <int N>
inline batch<double, N, arch::scalar> frintn(const batch<double, N, arch::scalar>& a) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::nearbyint(a.v[i]);
  return r;
}

/// Exact for integral |x| < 2^51; unspecified (non-trapping) otherwise.
template <int N>
inline batch<std::int64_t, N, arch::scalar> cvt_s64(const batch<double, N, arch::scalar>& a) {
  // Route through the same magic-number trick the SIMD backends use so
  // out-of-contract lanes produce identical (later masked-out) bits.
  constexpr double kMagic = 0x1.8p52;  // 1.5 * 2^52
  batch<std::int64_t, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) {
    const double shifted = a.v[i] + kMagic;
    std::int64_t bits;
    std::memcpy(&bits, &shifted, sizeof(bits));
    r.v[i] = bits - 0x4338000000000000ll;  // bit pattern of kMagic
  }
  return r;
}

/// Exact for |v| < 2^51; unspecified otherwise.
template <int N>
inline batch<double, N, arch::scalar> cvt_f64(const batch<std::int64_t, N, arch::scalar>& a) {
  batch<double, N, arch::scalar> r;
  for (int i = 0; i < N; ++i) r.v[i] = static_cast<double>(a.v[i]);
  return r;
}

template <int N>
inline batch<std::int64_t, N, arch::scalar> bitcast_s64(const batch<double, N, arch::scalar>& a) {
  batch<std::int64_t, N, arch::scalar> r;
  std::memcpy(r.v.data(), a.v.data(), sizeof(r.v));
  return r;
}

template <int N>
inline batch<double, N, arch::scalar> bitcast_f64(const batch<std::int64_t, N, arch::scalar>& a) {
  batch<double, N, arch::scalar> r;
  std::memcpy(r.v.data(), a.v.data(), sizeof(r.v));
  return r;
}

/// Logical (zero-filling) right shift by an immediate.
template <int N>
inline batch<std::int64_t, N, arch::scalar> shr(const batch<std::int64_t, N, arch::scalar>& a,
                                                int s) {
  batch<std::int64_t, N, arch::scalar> r;
  for (int i = 0; i < N; ++i)
    r.v[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(a.v[i]) >> s);
  return r;
}

template <int N>
inline batch<std::int64_t, N, arch::scalar> shl(const batch<std::int64_t, N, arch::scalar>& a,
                                                int s) {
  batch<std::int64_t, N, arch::scalar> r;
  for (int i = 0; i < N; ++i)
    r.v[i] = static_cast<std::int64_t>(static_cast<std::uint64_t>(a.v[i]) << s);
  return r;
}

/// Tree-shaped sum over all lanes (reassociated; not the sve contract).
template <int N>
inline double reduce_add(const batch<double, N, arch::scalar>& a) {
  // Pairwise to match the SIMD backends' shapes for the common N.
  std::array<double, N> t = a.v;
  int n = N;
  while (n > 1) {
    for (int i = 0; i < n / 2; ++i) t[i] = t[i] + t[i + n / 2];
    n /= 2;
  }
  return t[0];
}

/// Sum of active lanes in strict lane order (ookami::sve::reduce_add).
template <int N>
inline double reduce_add_ordered(const mask<N, arch::scalar>& pg,
                                 const batch<double, N, arch::scalar>& a) {
  double s = 0.0;
  for (int i = 0; i < N; ++i)
    if (pg.b[i]) s += a.v[i];
  return s;
}

}  // namespace ookami::simd
