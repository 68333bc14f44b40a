#pragma once
// Shared helper for the vecmath registry equivalence checks: runs an
// array entry point under the scalar backend and under a forced native
// backend over a random sweep and reports the worst ULP distance.
// Included only from the vecmath caller TUs (exp.cpp, trig.cpp, ...),
// which register one dispatch::check_registrar per kernel with the
// documented per-function ULP bound.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "ookami/common/rng.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/vecmath/ulp.hpp"

namespace ookami::vecmath::detail {

/// Worst ULP distance between `fn` run under the scalar backend and
/// under `b`, over 1024 uniform samples of [lo, hi).  `fn` is called as
/// fn(std::span<const double> in, std::span<double> out).  Lanes where
/// either side is non-finite or zero must agree bit-for-bit (NaN
/// payloads excepted); a mismatch reports an effectively infinite error
/// so the registered tolerance fails loudly.
template <class Fn>
double backend_ulp_check(simd::Backend b, double lo, double hi, Fn&& fn) {
  std::vector<double> x(1024), ref(x.size()), got(x.size());
  Xoshiro256 rng(31);
  fill_uniform({x.data(), x.size()}, lo, hi, rng);
  const std::span<const double> in{x.data(), x.size()};
  {
    simd::ScopedBackend force(simd::Backend::kScalar);
    fn(in, std::span<double>{ref.data(), ref.size()});
  }
  {
    simd::ScopedBackend force(b);
    fn(in, std::span<double>{got.data(), got.size()});
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isfinite(ref[i]) && std::isfinite(got[i]) && ref[i] != 0.0) {
      worst = std::max(worst, static_cast<double>(ulp_distance(ref[i], got[i])));
    } else if (std::isnan(ref[i]) && std::isnan(got[i])) {
      // NaN results need only agree as NaN (payloads differ between
      // libm and the hardware instructions).
    } else {
      std::uint64_t ua, ub;
      std::memcpy(&ua, &ref[i], sizeof ua);
      std::memcpy(&ub, &got[i], sizeof ub);
      if (ua != ub) worst = std::max(worst, 1e30);
    }
  }
  return worst;
}

}  // namespace ookami::vecmath::detail
