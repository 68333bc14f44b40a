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
#include "ookami/common/timer.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/vecmath/ulp.hpp"

namespace ookami::vecmath::detail {

/// Largest element count a calibration probe runs: a size class above
/// it is probed at this size, so calibration stays cheap at any n.
inline constexpr std::size_t kMaxTuneElems = std::size_t{1} << 16;

/// Cost of one backend_tune_run invocation: the probe streams its
/// min(n, kMaxTuneElems) inputs in and results out (`extra_in_streams`
/// counts further 8-byte input streams, e.g. pow's exponent array) and
/// retires `flops_per_elem` arithmetic operations per element.  The
/// per-element flop counts the callers pass are operation counts of the
/// polynomial core (range reduction + evaluation + scaling), not
/// calibrated fits.
inline dispatch::TuneCost stream_cost(std::size_t n, double flops_per_elem,
                                      double extra_in_streams = 0.0) {
  const auto d = static_cast<double>(std::min(n, kMaxTuneElems));
  return {(16.0 + 8.0 * extra_in_streams) * d, flops_per_elem * d};
}

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

/// Calibration probe body shared by the vecmath tune registrars:
/// seconds per invocation of `fn` over min(n, kMaxTuneElems) uniform
/// samples of [lo, hi) under forced backend `b`.  Sub-timer-resolution
/// sizes are measured in geometrically grown blocks so tiny
/// size-classes still rank variants meaningfully; the ScopedBackend
/// both forces the variant and keeps the inner resolve() from
/// re-entering the autotuner.
template <class Fn>
double backend_tune_run(simd::Backend b, std::size_t n, double lo, double hi, Fn&& fn) {
  n = std::min(n, kMaxTuneElems);
  if (n == 0) return 0.0;
  std::vector<double> x(n), y(n);
  Xoshiro256 rng(47);
  fill_uniform({x.data(), x.size()}, lo, hi, rng);
  const std::span<const double> in{x.data(), x.size()};
  const std::span<double> out{y.data(), y.size()};
  simd::ScopedBackend force(b);
  for (std::size_t reps = 1;; reps *= 4) {
    WallTimer t;
    for (std::size_t r = 0; r < reps; ++r) fn(in, out);
    const double dt = t.elapsed();
    if (dt > 20e-6 || reps > (std::size_t{1} << 20)) {
      return dt / static_cast<double>(reps);
    }
  }
}

}  // namespace ookami::vecmath::detail
