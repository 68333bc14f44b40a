#include "ookami/vecmath/exp.hpp"

#include <cmath>

#include "backend_check.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/sve/fexpa.hpp"

// Pull the per-arch variant-registration TUs out of the static library.
#if defined(OOKAMI_SIMD_HAVE_AVX2)
OOKAMI_DISPATCH_USE_VARIANTS(vecmath_avx2)
#endif
#if defined(OOKAMI_SIMD_HAVE_AVX512)
OOKAMI_DISPATCH_USE_VARIANTS(vecmath_avx512)
#endif

namespace ookami::vecmath {

namespace {

using sve::Vec;
using sve::VecS64;
using sve::VecU64;

// Native variant of the exp array driver; scalar resolution falls
// through to the original sve-emulation loop below.
using ExpArrayFn = void(std::span<const double>, std::span<double>, LoopShape, PolyScheme,
                        Rounding);
const dispatch::kernel_table<ExpArrayFn> kExpTable("vecmath.exp");

double check_exp(simd::Backend b) {
  return detail::backend_ulp_check(b, -750.0, 750.0, [](auto in, auto out) {
    exp_array(in, out, LoopShape::kVla, PolyScheme::kEstrin, Rounding::kCorrected);
  });
}

const dispatch::check_registrar kExpCheck("vecmath.exp", &check_exp, 2.0);

// 64/log(2) and the two-part split of log(2)/64 (Cody-Waite).  The high
// part has its low 21 bits zeroed so n * kLn2Hi64 is exact for |n| < 2^21.
constexpr double kInvLn2x64 = 0x1.71547652b82fep+6;   // 64 / ln 2
constexpr double kLn2Hi64 = 0x1.62e42fefa0000p-7;     // ln2/64, high bits
constexpr double kLn2Lo64 = 0x1.cf79abc9e3b3ap-46;    // ln2/64 - kLn2Hi64

// Degree-5 Taylor coefficients for exp(r), |r| < ln2/128 ("5 terms"
// beyond the leading 1 in the paper's description).
constexpr double kC1 = 1.0;
constexpr double kC2 = 0.5;
constexpr double kC3 = 1.0 / 6.0;
constexpr double kC4 = 1.0 / 24.0;
constexpr double kC5 = 1.0 / 120.0;

// FEXPA exponent bias: m + 1023 goes in bits [16:6], so adding 1023<<6
// to n = 64 m + i produces the instruction's 17-bit input directly.
constexpr std::int64_t kFexpaBias = 1023ll << 6;

// Overflow / underflow thresholds for double exp.
constexpr double kOverflowX = 709.782712893383973;   // exp(x) > DBL_MAX above this
constexpr double kUnderflowX = -708.396418532264106; // exp(x) subnormal below this (FTZ -> 0)

/// Range reduction: returns r and writes the FEXPA input u.
inline Vec reduce(const Vec& x, VecU64& u) {
  const Vec n = sve::frintn(x * Vec(kInvLn2x64));
  Vec r = sve::fma(n, Vec(-kLn2Hi64), x);
  r = sve::fma(n, Vec(-kLn2Lo64), r);
  const VecS64 ni = sve::fcvtzs(n);  // n is integral; truncation is exact
  VecU64 ubits;
  // fcvtzs saturates NaN/inf/huge lanes to INT64_MIN/MAX; adding in
  // uint64_t gives the same bits without signed overflow.
  for (int i = 0; i < sve::kLanes; ++i) {
    ubits[i] = static_cast<std::uint64_t>(ni[i]) + static_cast<std::uint64_t>(kFexpaBias);
  }
  u = ubits;
  return r;
}

/// exp(r) - 1 approximation by Horner's rule (5 FMAs in a serial chain).
inline Vec poly_horner(const Vec& r) {
  Vec p = sve::fma(Vec(kC5), r, Vec(kC4));
  p = sve::fma(p, r, Vec(kC3));
  p = sve::fma(p, r, Vec(kC2));
  p = sve::fma(p, r, Vec(kC1));
  return p * r;  // p(r)*r = r + r^2/2 + ... + r^5/120
}

/// Same polynomial by Estrin's scheme: shorter dependency chain, one
/// extra multiplication (the paper found this slightly faster).
inline Vec poly_estrin(const Vec& r) {
  const Vec r2 = r * r;
  const Vec t12 = sve::fma(Vec(kC2), r, Vec(kC1));  // c1 + c2 r
  const Vec t34 = sve::fma(Vec(kC4), r, Vec(kC3));  // c3 + c4 r
  const Vec t5 = Vec(kC5);
  Vec p = sve::fma(t34, r2, t12);       // c1 + c2 r + c3 r^2 + c4 r^3
  p = sve::fma(t5, r2 * r2, p);         // ... + c5 r^4
  return p * r;
}

inline Vec exp_core(const Vec& x, PolyScheme scheme, Rounding rounding) {
  VecU64 u;
  const Vec r = reduce(x, u);
  const Vec scale = sve::fexpa(u);
  const Vec q = scheme == PolyScheme::kHorner ? poly_horner(r) : poly_estrin(r);
  if (rounding == Rounding::kCorrected) {
    // scale*(1+q) with the final operation fused: one rounding instead
    // of two — the paper's proposed ~0.25-cycle accuracy fix.
    return sve::fma(scale, q, scale);
  }
  return scale * (Vec(1.0) + q);
}

}  // namespace

Vec exp_fexpa(const Vec& x, PolyScheme scheme, Rounding rounding) {
  return exp_core(x, scheme, rounding);
}

Vec exp_table13(const Vec& x) {
  // Classic reduction: x = n ln2 + r, |r| <= ln2/2, exp(x) = 2^n exp(r)
  // with a 13-term Taylor polynomial — the algorithm "ported from other
  // platforms" that ignores FEXPA.
  constexpr double kInvLn2 = 0x1.71547652b82fep+0;
  constexpr double kLn2Hi = 0x1.62e42fefa0000p-1;
  constexpr double kLn2Lo = 0x1.cf79abc9e3b3ap-40;
  const Vec n = sve::frintn(x * Vec(kInvLn2));
  Vec r = sve::fma(n, Vec(-kLn2Hi), x);
  r = sve::fma(n, Vec(-kLn2Lo), r);
  // Horner over 13 terms: sum_{k=0..12} r^k / k!
  Vec p(1.0 / 479001600.0);  // 1/12!
  constexpr double kInvFact[] = {1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0,
                                 1.0 / 40320.0,    1.0 / 5040.0,    1.0 / 720.0,
                                 1.0 / 120.0,      1.0 / 24.0,      1.0 / 6.0,
                                 0.5,              1.0,             1.0};
  for (double c : kInvFact) p = sve::fma(p, r, Vec(c));
  // Scale by 2^n through the exponent field.
  const VecS64 ni = sve::fcvtzs(n);
  VecU64 sbits;
  for (int i = 0; i < sve::kLanes; ++i) {
    sbits[i] = static_cast<std::uint64_t>(ni[i] + 1023) << 52;
  }
  return p * sve::bitcast_f64(sbits);
}

Vec exp(const Vec& x) {
  const sve::Pred pg = sve::ptrue();
  const Vec result = exp_core(x, PolyScheme::kEstrin, Rounding::kCorrected);
  // Special-case lanes, applied by predicated selects exactly as the
  // extra "mask manipulation" the paper says a production kernel needs.
  const sve::Pred over = sve::cmpgt(pg, x, Vec(kOverflowX));
  const sve::Pred under = sve::cmplt(pg, x, Vec(kUnderflowX));
  const sve::Pred isnan = sve::cmpuo(pg, x);
  Vec out = sve::sel(over, Vec(HUGE_VAL), result);
  out = sve::sel(under, Vec(0.0), out);
  return sve::sel(isnan, x, out);
}

double exp_scalar(double x) {
  Vec v(x);
  return exp(v)[0];
}

void exp_array(std::span<const double> x, std::span<double> y, LoopShape shape,
               PolyScheme scheme, Rounding rounding) {
  if (ExpArrayFn* fn = kExpTable.resolve()) {
    fn(x, y, shape, scheme, rounding);
    return;
  }
  const std::size_t n = x.size();
  auto body = [&](const sve::Pred& pg, std::size_t i) {
    const Vec in = sve::ld1(pg, x.data() + i);
    Vec out = exp_core(in, scheme, rounding);
    const sve::Pred over = sve::cmpgt(pg, in, Vec(kOverflowX));
    const sve::Pred under = sve::cmplt(pg, in, Vec(kUnderflowX));
    const sve::Pred isnan = sve::cmpuo(pg, in);
    out = sve::sel(over, Vec(HUGE_VAL), out);
    out = sve::sel(under, Vec(0.0), out);
    out = sve::sel(isnan, in, out);
    sve::st1(pg, y.data() + i, out);
  };

  switch (shape) {
    case LoopShape::kVla: {
      // WHILELT loop: every iteration recomputes the predicate — the
      // vector-length-agnostic structure (2.2 cyc/elem in the paper).
      for (std::size_t i = 0; i < n; i += sve::kLanes) body(sve::whilelt(i, n), i);
      break;
    }
    case LoopShape::kFixed: {
      // Full vectors with PTRUE, one predicated tail (2.0 cyc/elem).
      const std::size_t full = n - n % sve::kLanes;
      const sve::Pred all = sve::ptrue();
      for (std::size_t i = 0; i < full; i += sve::kLanes) body(all, i);
      if (full < n) body(sve::whilelt(full, n), full);
      break;
    }
    case LoopShape::kUnrolled2: {
      // Unrolled once: two independent vectors in flight (1.9 cyc/elem).
      const std::size_t stride = 2 * sve::kLanes;
      const std::size_t full = n - n % stride;
      const sve::Pred all = sve::ptrue();
      for (std::size_t i = 0; i < full; i += stride) {
        body(all, i);
        body(all, i + sve::kLanes);
      }
      for (std::size_t i = full; i < n; i += sve::kLanes) body(sve::whilelt(i, n), i);
      break;
    }
  }
}

void exp_array_serial(std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::exp(x[i]);
}

int exp_fexpa_flops_per_vector(PolyScheme scheme, Rounding rounding) {
  // mul, frintn, 2 fma (reduction), fexpa, polynomial, final combine.
  const int reduction = 4;
  const int fexpa = 1;
  const int poly = scheme == PolyScheme::kHorner ? 5   // 4 fma + 1 mul
                                                 : 7;  // 4 fma + 3 mul (r2, r2*r2, *r)
  const int combine = rounding == Rounding::kCorrected ? 1 : 2;  // fma vs add+mul
  return reduction + fexpa + poly + combine;
}

}  // namespace ookami::vecmath
