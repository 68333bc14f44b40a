#include "ookami/vecmath/extra.hpp"

#include <cmath>
#include <limits>

#include "backend_check.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/sve/fexpa.hpp"
#include "ookami/vecmath/log_pow.hpp"

// Pull the per-arch variant-registration TUs out of the static library.
#if defined(OOKAMI_SIMD_HAVE_AVX2)
OOKAMI_DISPATCH_USE_VARIANTS(vecmath_avx2)
#endif
#if defined(OOKAMI_SIMD_HAVE_AVX512)
OOKAMI_DISPATCH_USE_VARIANTS(vecmath_avx512)
#endif

namespace ookami::vecmath {

namespace {

// Native variants of the exp2/expm1/log1p/tanh array drivers; scalar
// resolution falls through to the original sve-emulation loops below.
using UnaryArrayFn = void(std::span<const double>, std::span<double>);
const dispatch::kernel_table<UnaryArrayFn> kExp2Table("vecmath.exp2");
const dispatch::kernel_table<UnaryArrayFn> kExpm1Table("vecmath.expm1");
const dispatch::kernel_table<UnaryArrayFn> kLog1pTable("vecmath.log1p");
const dispatch::kernel_table<UnaryArrayFn> kTanhTable("vecmath.tanh");

double check_exp2(simd::Backend b) {
  return detail::backend_ulp_check(b, -1080.0, 1080.0,
                                   [](auto in, auto out) { exp2_array(in, out); });
}
double check_expm1(simd::Backend b) {
  return detail::backend_ulp_check(b, -40.0, 720.0,
                                   [](auto in, auto out) { expm1_array(in, out); });
}
double check_log1p(simd::Backend b) {
  return detail::backend_ulp_check(b, -0.9999, 1e6,
                                   [](auto in, auto out) { log1p_array(in, out); });
}
double check_tanh(simd::Backend b) {
  return detail::backend_ulp_check(b, -25.0, 25.0,
                                   [](auto in, auto out) { tanh_array(in, out); });
}

const dispatch::check_registrar kExp2Check("vecmath.exp2", &check_exp2, 2.0);
const dispatch::check_registrar kExpm1Check("vecmath.expm1", &check_expm1, 2.0);
const dispatch::check_registrar kLog1pCheck("vecmath.log1p", &check_log1p, 2.0);
const dispatch::check_registrar kTanhCheck("vecmath.tanh", &check_tanh, 4.0);

using sve::Vec;
using sve::VecS64;
using sve::VecU64;

constexpr double kLn2 = 0x1.62e42fefa39efp-1;
constexpr std::int64_t kFexpaBias = 1023ll << 6;

// Degree-5 exp(r) - 1 polynomial, |r| < ln2/128 (shared with the §IV core).
Vec exp_poly_q(const Vec& r) {
  Vec p = sve::fma(Vec(1.0 / 120.0), r, Vec(1.0 / 24.0));
  p = sve::fma(p, r, Vec(1.0 / 6.0));
  p = sve::fma(p, r, Vec(0.5));
  p = sve::fma(p, r, Vec(1.0));
  return p * r;
}

}  // namespace

Vec exp2(const Vec& x) {
  // FEXPA is natively base-2: n = round(64 x) needs no log(2) constants
  // and r = x - n/64 is exact (n/64 is a dyadic rational).
  const Vec n = sve::frintn(x * Vec(64.0));
  const Vec r = sve::fma(n, Vec(-0.015625), x);  // exact
  const VecS64 ni = sve::fcvtzs(n);
  VecU64 u;
  // Unsigned add: saturated fcvtzs lanes must not overflow (see exp.cpp).
  for (int i = 0; i < sve::kLanes; ++i) {
    u[i] = static_cast<std::uint64_t>(ni[i]) + static_cast<std::uint64_t>(kFexpaBias);
  }
  const Vec scale = sve::fexpa(u);
  // 2^r = exp(r ln2).
  const Vec q = exp_poly_q(r * Vec(kLn2));
  Vec out = sve::fma(scale, q, scale);

  const sve::Pred pg = sve::ptrue();
  out = sve::sel(sve::cmpgt(pg, x, Vec(1024.0)), Vec(HUGE_VAL), out);
  out = sve::sel(sve::cmplt(pg, x, Vec(-1021.0)), Vec(0.0), out);  // FTZ
  return sve::sel(sve::cmpuo(pg, x), x, out);
}

Vec expm1(const Vec& x) {
  const sve::Pred pg = sve::ptrue();

  // Large/moderate path: scale*(1+q) - 1 with the subtraction fused
  // into the constant term (scale - 1 is exact for the binades where
  // this path is selected).
  constexpr double kInvLn2x64 = 0x1.71547652b82fep+6;
  constexpr double kLn2Hi64 = 0x1.62e42fefa0000p-7;
  constexpr double kLn2Lo64 = 0x1.cf79abc9e3b3ap-46;
  const Vec n = sve::frintn(x * Vec(kInvLn2x64));
  Vec r = sve::fma(n, Vec(-kLn2Hi64), x);
  r = sve::fma(n, Vec(-kLn2Lo64), r);
  const VecS64 ni = sve::fcvtzs(n);
  VecU64 u;
  for (int i = 0; i < sve::kLanes; ++i) {
    u[i] = static_cast<std::uint64_t>(ni[i]) + static_cast<std::uint64_t>(kFexpaBias);
  }
  const Vec scale = sve::fexpa(u);
  const Vec big = sve::fma(scale, exp_poly_q(r), scale - Vec(1.0));

  // Small path |x| < ln2/2: direct Taylor, no cancellation.
  Vec p(1.0 / 479001600.0);
  constexpr double kInvFact[] = {1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0,
                                 1.0 / 40320.0,    1.0 / 5040.0,    1.0 / 720.0,
                                 1.0 / 120.0,      1.0 / 24.0,      1.0 / 6.0,
                                 0.5,              1.0};
  for (double c : kInvFact) p = sve::fma(p, x, Vec(c));
  const Vec small = p * x;

  Vec ax;
  for (int i = 0; i < sve::kLanes; ++i) ax[i] = std::fabs(x[i]);
  Vec out = sve::sel(sve::cmplt(pg, ax, Vec(0.35)), small, big);

  out = sve::sel(sve::cmpgt(pg, x, Vec(709.8)), Vec(HUGE_VAL), out);
  out = sve::sel(sve::cmplt(pg, x, Vec(-37.5)), Vec(-1.0), out);
  return sve::sel(sve::cmpuo(pg, x), x, out);
}

Vec log1p(const Vec& x) {
  const sve::Pred pg = sve::ptrue();

  // Small path |x| < 0.5: log1p = 2 atanh(x / (2 + x)), no cancellation.
  const Vec s = x / (Vec(2.0) + x);
  const Vec z = s * s;
  Vec p(2.0 / 23.0);
  for (int k = 21; k >= 3; k -= 2) p = sve::fma(p, z, Vec(2.0 / k));
  const Vec small = sve::fma(p * z, s, s + s);

  // General path: log(u) + (x - (u-1))/u corrects the rounding of u = 1+x.
  const Vec u = Vec(1.0) + x;
  const Vec corr = (x - (u - Vec(1.0))) / u;
  const Vec big = log(u) + corr;

  Vec ax;
  for (int i = 0; i < sve::kLanes; ++i) ax[i] = std::fabs(x[i]);
  Vec out = sve::sel(sve::cmplt(pg, ax, Vec(0.5)), small, big);

  for (int i = 0; i < sve::kLanes; ++i) {
    if (std::isnan(x[i]) || x[i] < -1.0) {
      out[i] = std::numeric_limits<double>::quiet_NaN();
    } else if (x[i] == -1.0) {
      out[i] = -HUGE_VAL;
    } else if (std::isinf(x[i])) {
      out[i] = HUGE_VAL;
    }
  }
  return out;
}

Vec tanh(const Vec& x) {
  const sve::Pred pg = sve::ptrue();
  Vec ax, sign;
  for (int i = 0; i < sve::kLanes; ++i) {
    ax[i] = std::fabs(x[i]);
    sign[i] = std::copysign(1.0, x[i]);
  }
  // tanh|x| = -t / (t + 2), t = expm1(-2|x|) in (-1, 0].
  const Vec t = expm1(Vec(-2.0) * ax);
  Vec out = (-t) / (t + Vec(2.0));
  out = sve::sel(sve::cmpgt(pg, ax, Vec(19.1)), Vec(1.0), out);  // saturate
  out = out * sign;
  return sve::sel(sve::cmpuo(pg, x), x, out);
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

void exp2_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kExp2Table.resolve()) {
    fn(x, y);
    return;
  }
  drive(x, y, [](const Vec& v) { return exp2(v); });
}
void expm1_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kExpm1Table.resolve()) {
    fn(x, y);
    return;
  }
  drive(x, y, [](const Vec& v) { return expm1(v); });
}
void log1p_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kLog1pTable.resolve()) {
    fn(x, y);
    return;
  }
  drive(x, y, [](const Vec& v) { return log1p(v); });
}
void tanh_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kTanhTable.resolve()) {
    fn(x, y);
    return;
  }
  drive(x, y, [](const Vec& v) { return tanh(v); });
}

}  // namespace ookami::vecmath
