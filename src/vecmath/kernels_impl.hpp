#pragma once
// Arch-templated ports of the vecmath kernels.
//
// Every function here is the ookami::sve reference implementation from
// exp.cpp / log_pow.cpp / trig.cpp / recip_sqrt.cpp / extra.cpp rewritten
// against SV = ookami::simd::sve_api<Arch>: same constants, same operation
// order, with the reference's per-lane special-case loops replaced by
// predicated selects.  Because every batch operation involved is either
// exact (bit ops, FEXPA table lookup) or correctly rounded (add/sub/mul/
// div/sqrt, true-FMA), and the module is built with -ffp-contract=off so
// the compiler fuses no separate multiply and add, the results are
// bit-identical to the scalar reference; the backend equivalence tests
// in tests/vecmath_backend_test.cpp pin this down per function.
//
// This header is private to the vecmath module: it is included only by
// the per-arch backend TUs (backend_avx2.cpp, backend_avx512.cpp), each
// compiled with the matching instruction-set flags.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "ookami/simd/sve.hpp"
#include "ookami/vecmath/exp.hpp"
#include "ookami/vecmath/log_pow.hpp"
#include "ookami/vecmath/recip_sqrt.hpp"

namespace ookami::vecmath::detail {

inline constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// exp (Section IV FEXPA kernel)
// ---------------------------------------------------------------------------

inline constexpr double kInvLn2x64 = 0x1.71547652b82fep+6;
inline constexpr double kLn2Hi64 = 0x1.62e42fefa0000p-7;
inline constexpr double kLn2Lo64 = 0x1.cf79abc9e3b3ap-46;
inline constexpr double kC1 = 1.0;
inline constexpr double kC2 = 0.5;
inline constexpr double kC3 = 1.0 / 6.0;
inline constexpr double kC4 = 1.0 / 24.0;
inline constexpr double kC5 = 1.0 / 120.0;
inline constexpr std::int64_t kFexpaBias = 1023ll << 6;
inline constexpr double kOverflowX = 709.782712893383973;
inline constexpr double kUnderflowX = -708.396418532264106;

/// Range reduction: returns r and writes the FEXPA input u.  Unlike the
/// reference's saturating fcvtzs, cvt_s64 produces unspecified bits for
/// |n| >= 2^51 — exactly the lanes the overflow/underflow/NaN selects
/// overwrite afterwards.
template <class SV>
inline typename SV::Vec exp_reduce(const typename SV::Vec& x, typename SV::VecU64& u) {
  using Vec = typename SV::Vec;
  const Vec n = SV::frintn(x * SV::dup(kInvLn2x64));
  Vec r = SV::fma(n, SV::dup(-kLn2Hi64), x);
  r = SV::fma(n, SV::dup(-kLn2Lo64), r);
  u = SV::cvt_s64(n) + SV::VecS64::dup(kFexpaBias);
  return r;
}

template <class SV>
inline typename SV::Vec exp_poly_horner(const typename SV::Vec& r) {
  using Vec = typename SV::Vec;
  Vec p = SV::fma(SV::dup(kC5), r, SV::dup(kC4));
  p = SV::fma(p, r, SV::dup(kC3));
  p = SV::fma(p, r, SV::dup(kC2));
  p = SV::fma(p, r, SV::dup(kC1));
  return p * r;
}

template <class SV>
inline typename SV::Vec exp_poly_estrin(const typename SV::Vec& r) {
  using Vec = typename SV::Vec;
  const Vec r2 = r * r;
  const Vec t12 = SV::fma(SV::dup(kC2), r, SV::dup(kC1));
  const Vec t34 = SV::fma(SV::dup(kC4), r, SV::dup(kC3));
  const Vec t5 = SV::dup(kC5);
  Vec p = SV::fma(t34, r2, t12);
  p = SV::fma(t5, r2 * r2, p);
  return p * r;
}

template <class SV>
inline typename SV::Vec exp_core(const typename SV::Vec& x, PolyScheme scheme,
                                 Rounding rounding) {
  using Vec = typename SV::Vec;
  typename SV::VecU64 u;
  const Vec r = exp_reduce<SV>(x, u);
  const Vec scale = SV::fexpa(u);
  const Vec q = scheme == PolyScheme::kHorner ? exp_poly_horner<SV>(r)
                                              : exp_poly_estrin<SV>(r);
  if (rounding == Rounding::kCorrected) return SV::fma(scale, q, scale);
  return scale * (SV::dup(1.0) + q);
}

template <class SV>
void exp_array_impl(std::span<const double> x, std::span<double> y, LoopShape shape,
                    PolyScheme scheme, Rounding rounding) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const std::size_t n = x.size();
  auto body = [&](const Pred& pg, std::size_t i) {
    const Vec in = SV::ld1(pg, x.data() + i);
    Vec out = exp_core<SV>(in, scheme, rounding);
    // A lane in [kUnderflowX, kOverflowX] (never NaN) is left alone by
    // all three selects below, so they run only when an active lane
    // falls outside it; the output bits are the same either way.
    const Pred in_range = SV::cmpge(pg, in, SV::dup(kUnderflowX)) &
                          SV::cmple(pg, in, SV::dup(kOverflowX));
    if ((pg & !in_range).any()) {
      const Pred over = SV::cmpgt(pg, in, SV::dup(kOverflowX));
      const Pred under = SV::cmplt(pg, in, SV::dup(kUnderflowX));
      const Pred isnan = SV::cmpuo(pg, in);
      out = SV::sel(over, SV::dup(HUGE_VAL), out);
      out = SV::sel(under, SV::dup(0.0), out);
      out = SV::sel(isnan, in, out);
    }
    SV::st1(pg, y.data() + i, out);
  };

  switch (shape) {
    case LoopShape::kVla: {
      for (std::size_t i = 0; i < n; i += SV::kLanes) body(SV::whilelt(i, n), i);
      break;
    }
    case LoopShape::kFixed: {
      const std::size_t full = n - n % SV::kLanes;
      const Pred all = SV::ptrue();
      for (std::size_t i = 0; i < full; i += SV::kLanes) body(all, i);
      if (full < n) body(SV::whilelt(full, n), full);
      break;
    }
    case LoopShape::kUnrolled2: {
      const std::size_t stride = 2 * SV::kLanes;
      const std::size_t full = n - n % stride;
      const Pred all = SV::ptrue();
      for (std::size_t i = 0; i < full; i += stride) {
        body(all, i);
        body(all, i + SV::kLanes);
      }
      for (std::size_t i = full; i < n; i += SV::kLanes) body(SV::whilelt(i, n), i);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// log / pow
// ---------------------------------------------------------------------------

inline constexpr double kLogLn2Hi = 0x1.62e42fefa0000p-1;
inline constexpr double kLogLn2Lo = 0x1.cf79abc9e3b3ap-40;
inline constexpr std::int64_t kFractionMask = (1ll << 52) - 1;
inline constexpr std::int64_t kSqrt2Fraction = 0x6a09e667f3bcdll;
// Exactly the reference's `54.0 * 0x1.62e42fefa39efp-1` subnormal offset.
inline constexpr double kSubnormLn = 54.0 * 0x1.62e42fefa39efp-1;

/// log on pre-scaled (normal, positive) lanes: the reference's main
/// path with split() turned into predicated exponent/mantissa bit work.
template <class SV>
inline typename SV::Vec log_main(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using VecU64 = typename SV::VecU64;

  const VecU64 bits = SV::bitcast_u64(x);
  const VecU64 frac = bits & VecU64::dup(kFractionMask);
  // up: mantissa at or above sqrt(2) — shift down one binade.
  const auto up = SV::cmpge_s64(frac, VecU64::dup(kSqrt2Fraction));
  VecU64 e = (SV::shr(bits, 52) & VecU64::dup(0x7ff)) + VecU64::dup(-1023);
  e = SV::sel_u64(up, e + VecU64::dup(1), e);
  const VecU64 mbits = SV::sel_u64(up, VecU64::dup(1022ll << 52) | frac,
                                   VecU64::dup(1023ll << 52) | frac);
  const Vec m = SV::bitcast_f64(mbits);
  const Vec k = SV::cvt_f64(e);

  const Vec s = (m - SV::dup(1.0)) / (m + SV::dup(1.0));
  const Vec z = s * s;
  Vec p = SV::dup(2.0 / 23.0);
  for (int kk = 21; kk >= 3; kk -= 2) p = SV::fma(p, z, SV::dup(2.0 / kk));
  const Vec logm = SV::fma(p * z, s, s + s);

  Vec out = SV::fma(k, SV::dup(kLogLn2Hi), logm);
  return SV::fma(k, SV::dup(kLogLn2Lo), out);
}

template <class SV>
inline typename SV::Vec log_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Pred pg = SV::ptrue();

  // Subnormal lanes: rescale into the normal range, run the shared main
  // path, subtract 54 ln2 — the reference's per-lane recursion, flattened.
  const Pred pos = SV::cmpgt(pg, x, SV::dup(0.0));
  const Pred subn = SV::cmplt(pg, x, SV::dup(std::numeric_limits<double>::min())) & pos;
  const Vec xs = SV::sel(subn, x * SV::dup(0x1.0p54), x);
  Vec out = log_main<SV>(xs);
  out = SV::sel(subn, out - SV::dup(kSubnormLn), out);

  // Edge lanes, in reverse priority order of the reference's if/else chain.
  const Pred inf = SV::cmpgt(pg, x, SV::dup(std::numeric_limits<double>::max()));
  out = SV::sel(inf, SV::dup(HUGE_VAL), out);
  const Pred zero = SV::cmple(pg, x, SV::dup(0.0)) & SV::cmpge(pg, x, SV::dup(0.0));
  out = SV::sel(zero, SV::dup(-HUGE_VAL), out);
  const Pred bad = SV::cmpuo(pg, x) | SV::cmplt(pg, x, SV::dup(0.0));
  return SV::sel(bad, SV::dup(kQNaN), out);
}

template <class SV>
inline typename SV::Vec exp_full(const typename SV::Vec& x);

template <class SV>
inline typename SV::Vec pow_impl(const typename SV::Vec& x, const typename SV::Vec& y) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Pred pg = SV::ptrue();

  // Magnitude path for every lane: exp(y * log|x|) — identical to the
  // reference's main path for x > 0 and to its negative-base recompute.
  const Vec ax = SV::abs(x);
  const Vec e = exp_full<SV>(y * log_impl<SV>(ax));
  Vec out = e;

  // x < 0: sign by y's parity for integral y, NaN otherwise.
  const Pred xneg = SV::cmplt(pg, x, SV::dup(0.0));
  const Vec yr = SV::frintn(y);
  const Pred yint = SV::cmpge(pg, yr, y) & SV::cmple(pg, yr, y) &
                    SV::cmplt(pg, SV::abs(y), SV::dup(0x1.0p53));
  const Vec h = y * SV::dup(0.5);
  const Vec hr = SV::frintn(h);
  const Pred yhalfint = SV::cmpge(pg, hr, h) & SV::cmple(pg, hr, h);
  const Pred yodd = yint & !yhalfint;
  out = SV::sel(xneg & yint & yodd, SV::neg(e), out);
  out = SV::sel(xneg & !yint, SV::dup(kQNaN), out);

  // x == 0 (either sign): 0 for y > 0, inf otherwise.
  const Pred xzero = SV::cmple(pg, x, SV::dup(0.0)) & SV::cmpge(pg, x, SV::dup(0.0));
  const Pred ypos = SV::cmpgt(pg, y, SV::dup(0.0));
  out = SV::sel(xzero & ypos, SV::dup(0.0), out);
  out = SV::sel(xzero & !ypos, SV::dup(HUGE_VAL), out);

  // NaN in either operand.
  out = SV::sel(SV::cmpuo(pg, x) | SV::cmpuo(pg, y), SV::dup(kQNaN), out);

  // y == 0: 1 for any base, including NaN (IEEE), highest priority.
  const Pred yzero = SV::cmple(pg, y, SV::dup(0.0)) & SV::cmpge(pg, y, SV::dup(0.0));
  return SV::sel(yzero, SV::dup(1.0), out);
}

// ---------------------------------------------------------------------------
// Full-range exp (production path used by pow and the vector-level API)
// ---------------------------------------------------------------------------

template <class SV>
inline typename SV::Vec exp_full(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Pred pg = SV::ptrue();
  const Vec result = exp_core<SV>(x, PolyScheme::kEstrin, Rounding::kCorrected);
  const Pred over = SV::cmpgt(pg, x, SV::dup(kOverflowX));
  const Pred under = SV::cmplt(pg, x, SV::dup(kUnderflowX));
  const Pred isnan = SV::cmpuo(pg, x);
  Vec out = SV::sel(over, SV::dup(HUGE_VAL), result);
  out = SV::sel(under, SV::dup(0.0), out);
  return SV::sel(isnan, x, out);
}

// ---------------------------------------------------------------------------
// sin / cos
// ---------------------------------------------------------------------------

inline constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
inline constexpr double kPio2_1 = 0x1.921fb54400000p+0;
inline constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
inline constexpr double kPio2_3 = 0x1.3198a2e037073p-69;
inline constexpr double kSinC[] = {-1.66666666666666324348e-01, 8.33333333332248946124e-03,
                                   -1.98412698298579493134e-04, 2.75573137070700676789e-06,
                                   -2.50507602534068634195e-08, 1.58969099521155010221e-10};
inline constexpr double kCosC[] = {-4.99999999999999888672e-01, 4.16666666666666019037e-02,
                                   -1.38888888888741095749e-03, 2.48015872894767294178e-05,
                                   -2.75573143513906633035e-07, 2.08757232129817482790e-09,
                                   -1.13596475577881948265e-11};

template <class SV>
inline typename SV::Vec sincos_impl(const typename SV::Vec& x, int phase) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  using VecS64 = typename SV::VecS64;

  const Vec n = SV::frintn(x * SV::dup(kTwoOverPi));
  Vec r = SV::fma(n, SV::dup(-kPio2_1), x);
  r = SV::fma(n, SV::dup(-kPio2_2), r);
  r = SV::fma(n, SV::dup(-kPio2_3), r);
  const VecS64 q = SV::cvt_s64(n) + VecS64::dup(phase);

  const Vec z = r * r;
  Vec sp = SV::dup(kSinC[5]);
  for (int k = 4; k >= 0; --k) sp = SV::fma(sp, z, SV::dup(kSinC[k]));
  const Vec s = SV::fma(z * r, sp, r);
  Vec cp = SV::dup(kCosC[6]);
  for (int k = 5; k >= 0; --k) cp = SV::fma(cp, z, SV::dup(kCosC[k]));
  const Vec c = SV::fma(z, cp, SV::dup(1.0));

  // Quadrant selection by the low two bits of q: 0 -> s, 1 -> c,
  // 2 -> -s, 3 -> -c (the reference's per-lane switch, as predicates).
  const Pred bit0 = SV::cmpge_s64(q & VecS64::dup(1), VecS64::dup(1));
  const Pred bit1 = SV::cmpge_s64(q & VecS64::dup(2), VecS64::dup(2));
  Vec out = SV::sel(bit0, c, s);
  out = SV::sel(bit1, SV::neg(out), out);

  const Pred pg = SV::ptrue();
  const Pred bad = SV::cmpuo(pg, x) |
                   SV::cmpgt(pg, SV::abs(x), SV::dup(std::numeric_limits<double>::max()));
  return SV::sel(bad, SV::dup(kQNaN), out);
}

// ---------------------------------------------------------------------------
// exp2 / expm1 / log1p / tanh
// ---------------------------------------------------------------------------

inline constexpr double kLn2 = 0x1.62e42fefa39efp-1;

template <class SV>
inline typename SV::Vec exp_poly_q(const typename SV::Vec& r) {
  using Vec = typename SV::Vec;
  Vec p = SV::fma(SV::dup(1.0 / 120.0), r, SV::dup(1.0 / 24.0));
  p = SV::fma(p, r, SV::dup(1.0 / 6.0));
  p = SV::fma(p, r, SV::dup(0.5));
  p = SV::fma(p, r, SV::dup(1.0));
  return p * r;
}

template <class SV>
inline typename SV::Vec exp2_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Vec n = SV::frintn(x * SV::dup(64.0));
  const Vec r = SV::fma(n, SV::dup(-0.015625), x);
  const typename SV::VecU64 u = SV::cvt_s64(n) + SV::VecS64::dup(kFexpaBias);
  const Vec scale = SV::fexpa(u);
  const Vec q = exp_poly_q<SV>(r * SV::dup(kLn2));
  Vec out = SV::fma(scale, q, scale);

  const Pred pg = SV::ptrue();
  out = SV::sel(SV::cmpgt(pg, x, SV::dup(1024.0)), SV::dup(HUGE_VAL), out);
  out = SV::sel(SV::cmplt(pg, x, SV::dup(-1021.0)), SV::dup(0.0), out);
  return SV::sel(SV::cmpuo(pg, x), x, out);
}

template <class SV>
inline typename SV::Vec expm1_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Pred pg = SV::ptrue();

  const Vec n = SV::frintn(x * SV::dup(kInvLn2x64));
  Vec r = SV::fma(n, SV::dup(-kLn2Hi64), x);
  r = SV::fma(n, SV::dup(-kLn2Lo64), r);
  const typename SV::VecU64 u = SV::cvt_s64(n) + SV::VecS64::dup(kFexpaBias);
  const Vec scale = SV::fexpa(u);
  const Vec big = SV::fma(scale, exp_poly_q<SV>(r), scale - SV::dup(1.0));

  Vec p = SV::dup(1.0 / 479001600.0);
  constexpr double kInvFact[] = {1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0,
                                 1.0 / 40320.0,    1.0 / 5040.0,    1.0 / 720.0,
                                 1.0 / 120.0,      1.0 / 24.0,      1.0 / 6.0,
                                 0.5,              1.0};
  for (double c : kInvFact) p = SV::fma(p, x, SV::dup(c));
  const Vec small = p * x;

  Vec out = SV::sel(SV::cmplt(pg, SV::abs(x), SV::dup(0.35)), small, big);
  out = SV::sel(SV::cmpgt(pg, x, SV::dup(709.8)), SV::dup(HUGE_VAL), out);
  out = SV::sel(SV::cmplt(pg, x, SV::dup(-37.5)), SV::dup(-1.0), out);
  return SV::sel(SV::cmpuo(pg, x), x, out);
}

template <class SV>
inline typename SV::Vec log1p_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Pred pg = SV::ptrue();

  const Vec s = x / (SV::dup(2.0) + x);
  const Vec z = s * s;
  Vec p = SV::dup(2.0 / 23.0);
  for (int k = 21; k >= 3; k -= 2) p = SV::fma(p, z, SV::dup(2.0 / k));
  const Vec small = SV::fma(p * z, s, s + s);

  const Vec u = SV::dup(1.0) + x;
  const Vec corr = (x - (u - SV::dup(1.0))) / u;
  const Vec big = log_impl<SV>(u) + corr;

  Vec out = SV::sel(SV::cmplt(pg, SV::abs(x), SV::dup(0.5)), small, big);

  const Pred inf = SV::cmpgt(pg, x, SV::dup(std::numeric_limits<double>::max()));
  out = SV::sel(inf, SV::dup(HUGE_VAL), out);
  const Pred minus1 = SV::cmple(pg, x, SV::dup(-1.0)) & SV::cmpge(pg, x, SV::dup(-1.0));
  out = SV::sel(minus1, SV::dup(-HUGE_VAL), out);
  const Pred bad = SV::cmpuo(pg, x) | SV::cmplt(pg, x, SV::dup(-1.0));
  return SV::sel(bad, SV::dup(kQNaN), out);
}

template <class SV>
inline typename SV::Vec tanh_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Pred pg = SV::ptrue();
  const Vec ax = SV::abs(x);
  const Vec sign = SV::copysign(SV::dup(1.0), x);
  const Vec t = expm1_impl<SV>(SV::dup(-2.0) * ax);
  Vec out = SV::neg(t) / (t + SV::dup(2.0));
  out = SV::sel(SV::cmpgt(pg, ax, SV::dup(19.1)), SV::dup(1.0), out);
  out = out * sign;
  return SV::sel(SV::cmpuo(pg, x), x, out);
}

// ---------------------------------------------------------------------------
// recip / sqrt (Newton-from-estimate and exact strategies)
// ---------------------------------------------------------------------------

template <class SV>
inline typename SV::Vec recip_newton_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  Vec r = SV::frecpe(x);
  r = r * SV::frecps(x, r);
  r = r * SV::frecps(x, r);
  r = r * SV::frecps(x, r);
  const Vec e = SV::fma(SV::neg(x), r, SV::dup(1.0));
  return SV::fma(r, e, r);
}

template <class SV>
inline typename SV::Vec rsqrt_newton_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  Vec y = SV::frsqrte(x);
  y = y * SV::frsqrts(x * y, y);
  y = y * SV::frsqrts(x * y, y);
  y = y * SV::frsqrts(x * y, y);
  return y;
}

template <class SV>
inline typename SV::Vec sqrt_newton_impl(const typename SV::Vec& x) {
  using Vec = typename SV::Vec;
  using Pred = typename SV::Pred;
  const Vec y = rsqrt_newton_impl<SV>(x);
  Vec s = x * y;
  const Vec e = SV::fma(SV::neg(s), s, x);
  s = SV::fma(e, y * SV::dup(0.5), s);
  const Pred pg = SV::ptrue();
  const Pred zero = SV::cmple(pg, x, SV::dup(0.0)) & SV::cmpge(pg, x, SV::dup(0.0));
  return SV::sel(zero, x, s);
}

// ---------------------------------------------------------------------------
// Array drivers
// ---------------------------------------------------------------------------

template <class SV, class Fn>
inline void drive(std::span<const double> x, std::span<double> y, Fn&& fn) {
  for (std::size_t i = 0; i < x.size(); i += SV::kLanes) {
    const auto pg = SV::whilelt(i, x.size());
    SV::st1(pg, y.data() + i, fn(SV::ld1(pg, x.data() + i)));
  }
}

template <class SV>
void log_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return log_impl<SV>(v); });
}

template <class SV>
void pow_array_impl(std::span<const double> x, std::span<const double> y,
                    std::span<double> z) {
  for (std::size_t i = 0; i < x.size(); i += SV::kLanes) {
    const auto pg = SV::whilelt(i, x.size());
    SV::st1(pg, z.data() + i,
            pow_impl<SV>(SV::ld1(pg, x.data() + i), SV::ld1(pg, y.data() + i)));
  }
}

template <class SV>
void sin_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return sincos_impl<SV>(v, 0); });
}

template <class SV>
void cos_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return sincos_impl<SV>(v, 1); });
}

template <class SV>
void exp2_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return exp2_impl<SV>(v); });
}

template <class SV>
void expm1_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return expm1_impl<SV>(v); });
}

template <class SV>
void log1p_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return log1p_impl<SV>(v); });
}

template <class SV>
void tanh_array_impl(std::span<const double> x, std::span<double> y) {
  drive<SV>(x, y, [](const auto& v) { return tanh_impl<SV>(v); });
}

template <class SV>
void recip_array_impl(std::span<const double> x, std::span<double> y,
                      DivSqrtStrategy strategy) {
  if (strategy == DivSqrtStrategy::kNewton) {
    drive<SV>(x, y, [](const auto& v) { return recip_newton_impl<SV>(v); });
  } else {
    drive<SV>(x, y, [](const auto& v) { return SV::dup(1.0) / v; });
  }
}

template <class SV>
void sqrt_array_impl(std::span<const double> x, std::span<double> y,
                     DivSqrtStrategy strategy) {
  if (strategy == DivSqrtStrategy::kNewton) {
    drive<SV>(x, y, [](const auto& v) { return sqrt_newton_impl<SV>(v); });
  } else {
    drive<SV>(x, y, [](const auto& v) { return SV::sqrt(v); });
  }
}

}  // namespace ookami::vecmath::detail
