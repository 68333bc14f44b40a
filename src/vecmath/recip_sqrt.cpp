#include "ookami/vecmath/recip_sqrt.hpp"

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

// Native variants of the recip/sqrt array drivers; scalar resolution
// falls through to the original sve-emulation loops below.
using StrategyArrayFn = void(std::span<const double>, std::span<double>, DivSqrtStrategy);
const dispatch::kernel_table<StrategyArrayFn> kRecipTable("vecmath.recip");
const dispatch::kernel_table<StrategyArrayFn> kSqrtTable("vecmath.sqrt");

double check_recip(simd::Backend b) {
  return detail::backend_ulp_check(b, 1e-300, 1e300, [](auto in, auto out) {
    recip_array(in, out, DivSqrtStrategy::kNewton);
  });
}

double check_sqrt(simd::Backend b) {
  return detail::backend_ulp_check(b, 1e-300, 1e300, [](auto in, auto out) {
    sqrt_array(in, out, DivSqrtStrategy::kNewton);
  });
}

const dispatch::check_registrar kRecipCheck("vecmath.recip", &check_recip, 2.0);
const dispatch::check_registrar kSqrtCheck("vecmath.sqrt", &check_sqrt, 2.0);

}  // namespace

using sve::Vec;

Vec recip_newton(const Vec& x) {
  // FRECPE gives ~8 bits; each FRECPS Newton step doubles the accurate
  // bits: 8 -> 16 -> 32 -> 64.  A final fused residual step recovers
  // the last bit lost to rounding accumulation.
  Vec r = sve::frecpe(x);
  r = r * sve::frecps(x, r);
  r = r * sve::frecps(x, r);
  r = r * sve::frecps(x, r);
  const Vec e = sve::fma(-x, r, Vec(1.0));  // residual 1 - x*r
  return sve::fma(r, e, r);
}

Vec rsqrt_newton(const Vec& x) {
  Vec y = sve::frsqrte(x);
  y = y * sve::frsqrts(x * y, y);
  y = y * sve::frsqrts(x * y, y);
  y = y * sve::frsqrts(x * y, y);
  return y;
}

Vec sqrt_newton(const Vec& x) {
  const Vec y = rsqrt_newton(x);
  Vec s = x * y;
  // Heron refinement without division: s += (x - s^2) * y/2.
  const Vec e = sve::fma(-s, s, x);
  s = sve::fma(e, y * Vec(0.5), s);
  // Preserve exact zeros (rsqrt(0) = inf would otherwise give 0*inf);
  // negative inputs keep the NaN that propagated through rsqrt.
  const sve::Pred pg = sve::ptrue();
  const sve::Pred zero = sve::cmple(pg, x, Vec(0.0)) & sve::cmpge(pg, x, Vec(0.0));
  return sve::sel(zero, x, s);
}

Vec recip_exact(const Vec& x) { return Vec(1.0) / x; }

Vec sqrt_exact(const Vec& x) {
  Vec r;
  for (int i = 0; i < sve::kLanes; ++i) r[i] = std::sqrt(x[i]);
  return r;
}

namespace {

template <class Fn>
void drive(std::span<const double> x, std::span<double> y, Fn&& fn) {
  for (std::size_t i = 0; i < x.size(); i += sve::kLanes) {
    const sve::Pred pg = sve::whilelt(i, x.size());
    sve::st1(pg, y.data() + i, fn(sve::ld1(pg, x.data() + i)));
  }
}

}  // namespace

void recip_array(std::span<const double> x, std::span<double> y, DivSqrtStrategy strategy) {
  if (StrategyArrayFn* fn = kRecipTable.resolve()) {
    fn(x, y, strategy);
    return;
  }
  if (strategy == DivSqrtStrategy::kNewton) {
    drive(x, y, [](const Vec& v) { return recip_newton(v); });
  } else {
    drive(x, y, [](const Vec& v) { return recip_exact(v); });
  }
}

void sqrt_array(std::span<const double> x, std::span<double> y, DivSqrtStrategy strategy) {
  if (StrategyArrayFn* fn = kSqrtTable.resolve()) {
    fn(x, y, strategy);
    return;
  }
  if (strategy == DivSqrtStrategy::kNewton) {
    drive(x, y, [](const Vec& v) { return sqrt_newton(v); });
  } else {
    drive(x, y, [](const Vec& v) { return sqrt_exact(v); });
  }
}

}  // namespace ookami::vecmath
