#include "ookami/vecmath/log_pow.hpp"

#include <cmath>
#include <limits>

#include "backend_check.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/vecmath/exp.hpp"

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
using sve::VecU64;

// Native variants of the log/pow array drivers; scalar resolution falls
// through to the original sve-emulation loops below.
using UnaryArrayFn = void(std::span<const double>, std::span<double>);
using PowArrayFn = void(std::span<const double>, std::span<const double>, std::span<double>);
const dispatch::kernel_table<UnaryArrayFn> kLogTable("vecmath.log");
const dispatch::kernel_table<PowArrayFn> kPowTable("vecmath.pow");

double check_log(simd::Backend b) {
  return detail::backend_ulp_check(b, 1e-320, 1e300,
                                   [](auto in, auto out) { log_array(in, out); });
}

double check_pow(simd::Backend b) {
  // Fixed exponent stream alongside the random base sweep: covers the
  // odd/even integer-exponent lanes as well as fractional powers.
  return detail::backend_ulp_check(b, 0.001, 100.0, [](auto in, auto out) {
    std::vector<double> e(in.size());
    for (std::size_t i = 0; i < e.size(); ++i) {
      e[i] = -3.0 + 0.37 * static_cast<double>(i % 17);
    }
    pow_array(in, {e.data(), e.size()}, out);
  });
}

const dispatch::check_registrar kLogCheck("vecmath.log", &check_log, 2.0);
const dispatch::check_registrar kPowCheck("vecmath.pow", &check_pow, 2.0);

constexpr double kLn2Hi = 0x1.62e42fefa0000p-1;
constexpr double kLn2Lo = 0x1.cf79abc9e3b3ap-40;
constexpr std::uint64_t kFractionMask = (1ull << 52) - 1;
constexpr std::uint64_t kSqrt2Fraction = 0x6a09e667f3bcdull;  // fraction of sqrt(2)

/// Split x = 2^k * m with m in [sqrt(2)/2, sqrt(2)); per-lane bit work.
void split(const Vec& x, Vec& m, Vec& k) {
  const VecU64 bits = sve::bitcast_u64(x);
  VecU64 mbits;
  for (int i = 0; i < sve::kLanes; ++i) {
    const std::uint64_t b = bits[i];
    auto e = static_cast<std::int64_t>((b >> 52) & 0x7ff) - 1023;
    std::uint64_t frac = b & kFractionMask;
    // Shift mantissas above sqrt(2) down one binade so m is centred on 1.
    if (frac >= kSqrt2Fraction) e += 1;
    const std::uint64_t biased =
        frac >= kSqrt2Fraction ? (1022ull << 52) | frac : (1023ull << 52) | frac;
    mbits[i] = biased;
    k[i] = static_cast<double>(e);
  }
  m = sve::bitcast_f64(mbits);
}

}  // namespace

Vec log(const Vec& x) {
  Vec m, k;
  split(x, m, k);

  // log m = 2 atanh(s), s = (m-1)/(m+1), |s| <= (sqrt2-1)/(sqrt2+1) ~ 0.1716.
  const Vec s = (m - Vec(1.0)) / (m + Vec(1.0));
  const Vec z = s * s;
  // Odd series: 2(s + s^3/3 + s^5/5 + ... + s^23/23).
  Vec p(2.0 / 23.0);
  for (int kk = 21; kk >= 3; kk -= 2) p = sve::fma(p, z, Vec(2.0 / kk));
  const Vec logm = sve::fma(p * z, s, s + s);  // 2s + s^3 * p(z)

  Vec out = sve::fma(k, Vec(kLn2Hi), logm);
  out = sve::fma(k, Vec(kLn2Lo), out);

  // Edge lanes.
  for (int i = 0; i < sve::kLanes; ++i) {
    const double xi = x[i];
    if (std::isnan(xi) || xi < 0.0) {
      out[i] = std::numeric_limits<double>::quiet_NaN();
    } else if (xi == 0.0) {
      out[i] = -HUGE_VAL;
    } else if (std::isinf(xi)) {
      out[i] = HUGE_VAL;
    } else if (xi < std::numeric_limits<double>::min()) {
      // Subnormal: rescale into the normal range and subtract 54 ln2.
      const Vec t(xi * 0x1.0p54);
      out[i] = log(t)[0] - 54.0 * 0x1.62e42fefa39efp-1;
    }
  }
  return out;
}

Vec pow(const Vec& x, const Vec& y) {
  // Main path: exp(y * log|x|); specials fixed per lane afterwards.
  const Vec lx = log(x);
  Vec out = exp(y * lx);
  for (int i = 0; i < sve::kLanes; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    if (yi == 0.0) {
      out[i] = 1.0;  // pow(anything, 0) = 1, including NaN base per IEEE
    } else if (std::isnan(xi) || std::isnan(yi)) {
      out[i] = std::numeric_limits<double>::quiet_NaN();
    } else if (xi == 0.0) {
      out[i] = yi > 0.0 ? 0.0 : HUGE_VAL;
    } else if (xi < 0.0) {
      const bool y_is_int = yi == std::nearbyint(yi) && std::abs(yi) < 0x1.0p53;
      if (!y_is_int) {
        out[i] = std::numeric_limits<double>::quiet_NaN();
      } else {
        const bool y_is_odd = std::fmod(std::abs(yi), 2.0) == 1.0;
        Vec tmp(std::abs(xi));
        const double mag = exp(y * log(tmp))[i];
        out[i] = y_is_odd ? -mag : mag;
      }
    }
  }
  return out;
}

void log_array(std::span<const double> x, std::span<double> y) {
  if (UnaryArrayFn* fn = kLogTable.resolve()) {
    fn(x, y);
    return;
  }
  for (std::size_t i = 0; i < x.size(); i += sve::kLanes) {
    const sve::Pred pg = sve::whilelt(i, x.size());
    sve::st1(pg, y.data() + i, log(sve::ld1(pg, x.data() + i)));
  }
}

void pow_array(std::span<const double> x, std::span<const double> y, std::span<double> z) {
  if (PowArrayFn* fn = kPowTable.resolve()) {
    fn(x, y, z);
    return;
  }
  for (std::size_t i = 0; i < x.size(); i += sve::kLanes) {
    const sve::Pred pg = sve::whilelt(i, x.size());
    sve::st1(pg, z.data() + i, pow(sve::ld1(pg, x.data() + i), sve::ld1(pg, y.data() + i)));
  }
}

}  // namespace ookami::vecmath
