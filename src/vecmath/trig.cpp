#include "ookami/vecmath/trig.hpp"

#include <cmath>
#include <limits>

#include "backend_check.hpp"
#include "ookami/dispatch/registry.hpp"

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

// Native variants of the sin/cos array drivers; scalar resolution falls
// through to the original sve-emulation loops below.
using UnaryArrayFn = void(std::span<const double>, std::span<double>);
const dispatch::kernel_table<UnaryArrayFn> kSinTable("vecmath.sin");
const dispatch::kernel_table<UnaryArrayFn> kCosTable("vecmath.cos");

double check_sin(simd::Backend b) {
  return detail::backend_ulp_check(b, -100.0, 100.0,
                                   [](auto in, auto out) { sin_array(in, out); });
}

double check_cos(simd::Backend b) {
  return detail::backend_ulp_check(b, -100.0, 100.0,
                                   [](auto in, auto out) { cos_array(in, out); });
}

const dispatch::check_registrar kSinCheck("vecmath.sin", &check_sin, 2.0);
const dispatch::check_registrar kCosCheck("vecmath.cos", &check_cos, 2.0);

double tune_sin(simd::Backend b, std::size_t n) {
  return detail::backend_tune_run(b, n, -100.0, 100.0,
                                  [](auto in, auto out) { sin_array(in, out); });
}
double tune_cos(simd::Backend b, std::size_t n) {
  return detail::backend_tune_run(b, n, -100.0, 100.0,
                                  [](auto in, auto out) { cos_array(in, out); });
}

const dispatch::tune_registrar kSinTune("vecmath.sin", &tune_sin);
const dispatch::tune_registrar kCosTune("vecmath.cos", &tune_cos);

// Three-part Cody-Waite pi/2 reduction + degree-6/7 polynomial.
dispatch::TuneCost cost_sin(std::size_t n) { return detail::stream_cost(n, 20.0); }
dispatch::TuneCost cost_cos(std::size_t n) { return detail::stream_cost(n, 20.0); }
const dispatch::cost_registrar kSinCost("vecmath.sin", &cost_sin);
const dispatch::cost_registrar kCosCost("vecmath.cos", &cost_cos);

// Cody-Waite split of pi/2 into three parts; n * kPio2_1 is exact for
// |n| < 2^24 because the low 27 bits of each part are zero.
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb54400000p+0;
constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
constexpr double kPio2_3 = 0x1.3198a2e037073p-69;

// Minimax-quality Taylor coefficients on |r| <= pi/4.
// sin(r) = r + s1 r^3 + s2 r^5 + ... ; cos(r) = 1 + c1 r^2 + c2 r^4 + ...
constexpr double kS[] = {-1.66666666666666324348e-01, 8.33333333332248946124e-03,
                         -1.98412698298579493134e-04, 2.75573137070700676789e-06,
                         -2.50507602534068634195e-08, 1.58969099521155010221e-10};
constexpr double kC[] = {-4.99999999999999888672e-01, 4.16666666666666019037e-02,
                         -1.38888888888741095749e-03, 2.48015872894767294178e-05,
                         -2.75573143513906633035e-07, 2.08757232129817482790e-09,
                         -1.13596475577881948265e-11};

/// sin on the reduced interval (odd polynomial in r).
Vec sin_poly(const Vec& r) {
  const Vec z = r * r;
  Vec p(kS[5]);
  for (int k = 4; k >= 0; --k) p = sve::fma(p, z, Vec(kS[k]));
  // r + r^3 * p(z)
  return sve::fma(z * r, p, r);
}

/// cos on the reduced interval (even polynomial in r).
Vec cos_poly(const Vec& r) {
  const Vec z = r * r;
  Vec p(kC[6]);
  for (int k = 5; k >= 0; --k) p = sve::fma(p, z, Vec(kC[k]));
  return sve::fma(z, p, Vec(1.0));
}

/// Shared reduction + quadrant dispatch.  `phase` = 0 for sin, 1 for cos
/// (cos(x) = sin(x + pi/2) shifts the quadrant by one).
Vec sincos_impl(const Vec& x, int phase) {
  const Vec n = sve::frintn(x * Vec(kTwoOverPi));
  Vec r = sve::fma(n, Vec(-kPio2_1), x);
  r = sve::fma(n, Vec(-kPio2_2), r);
  r = sve::fma(n, Vec(-kPio2_3), r);
  const VecS64 q = sve::fcvtzs(n);

  const Vec s = sin_poly(r);
  const Vec c = cos_poly(r);

  Vec out;
  for (int i = 0; i < sve::kLanes; ++i) {
    // Quadrant arithmetic per lane; the SVE original does this with
    // predicate masks built from the low bits of q.
    // Unsigned add: q saturates for NaN/inf lanes, which must not overflow.
    const auto qi = (static_cast<std::uint64_t>(q[i]) + static_cast<std::uint64_t>(phase)) & 3u;
    switch (qi) {
      case 0: out[i] = s[i]; break;
      case 1: out[i] = c[i]; break;
      case 2: out[i] = -s[i]; break;
      default: out[i] = -c[i]; break;
    }
    if (std::isnan(x[i]) || std::isinf(x[i])) out[i] = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

}  // namespace

Vec sin(const Vec& x) { return sincos_impl(x, 0); }
Vec cos(const Vec& x) { return sincos_impl(x, 1); }

void sin_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kSinTable.resolve(x.size())) {
    fn(x, y);
    return;
  }
  for (std::size_t i = 0; i < x.size(); i += sve::kLanes) {
    const sve::Pred pg = sve::whilelt(i, x.size());
    sve::st1(pg, y.data() + i, sin(sve::ld1(pg, x.data() + i)));
  }
}

void cos_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kCosTable.resolve(x.size())) {
    fn(x, y);
    return;
  }
  for (std::size_t i = 0; i < x.size(); i += sve::kLanes) {
    const sve::Pred pg = sve::whilelt(i, x.size());
    sve::st1(pg, y.data() + i, cos(sve::ld1(pg, x.data() + i)));
  }
}

}  // namespace ookami::vecmath
