#include "ookami/sve/fexpa.hpp"

#include <cmath>
#include <cstring>
#include <limits>

namespace ookami::sve {

namespace {

constexpr std::uint64_t kFractionMask = (1ull << 52) - 1;

/// Truncate a positive finite double's fraction field to `bits` bits —
/// models the low-precision table lookup of FRECPE/FRSQRTE.
double truncate_fraction(double x, int bits) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  const std::uint64_t mask = ~((1ull << (52 - bits)) - 1);
  u &= (mask | ~kFractionMask);
  double r;
  std::memcpy(&r, &u, sizeof(r));
  return r;
}

}  // namespace

std::uint64_t fexpa_scalar(std::uint64_t in) {
  const std::uint64_t idx = in & 0x3f;            // bits [5:0]
  const std::uint64_t exponent = (in >> 6) & 0x7ff;  // bits [16:6]
  return (exponent << 52) | kFexpaTable[idx];
}

Vec fexpa(const VecU64& u) {
  VecU64 out;
  for (int i = 0; i < kLanes; ++i) out[i] = fexpa_scalar(u[i]);
  return bitcast_f64(out);
}

Vec frecpe(const Vec& a) {
  Vec r;
  for (int i = 0; i < kLanes; ++i) {
    const double x = a[i];
    if (std::isnan(x)) {
      r[i] = x;
    } else if (x == 0.0) {
      r[i] = std::copysign(HUGE_VAL, x);
    } else if (std::isinf(x)) {
      r[i] = std::copysign(0.0, x);
    } else {
      r[i] = std::copysign(truncate_fraction(std::abs(1.0 / x), 8), x);
    }
  }
  return r;
}

Vec frecps(const Vec& a, const Vec& b) {
  Vec r;
  for (int i = 0; i < kLanes; ++i) r[i] = std::fma(-a[i], b[i], 2.0);
  return r;
}

Vec frsqrte(const Vec& a) {
  Vec r;
  for (int i = 0; i < kLanes; ++i) {
    const double x = a[i];
    if (std::isnan(x) || x < 0.0) {
      r[i] = std::numeric_limits<double>::quiet_NaN();
    } else if (x == 0.0) {
      r[i] = HUGE_VAL;
    } else if (std::isinf(x)) {
      r[i] = 0.0;
    } else {
      r[i] = truncate_fraction(1.0 / std::sqrt(x), 8);
    }
  }
  return r;
}

Vec frsqrts(const Vec& a, const Vec& b) {
  Vec r;
  for (int i = 0; i < kLanes; ++i) r[i] = std::fma(-a[i], b[i], 3.0) * 0.5;
  return r;
}

}  // namespace ookami::sve
