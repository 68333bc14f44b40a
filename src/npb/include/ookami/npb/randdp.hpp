#pragma once
// The NPB double-precision linear congruential generator (randlc):
//     x_{k+1} = a * x_k  mod 2^46
// with the standard seed 314159265 and multiplier 5^13, plus the
// log-time skip-ahead (ipow46) that lets EP partition the stream across
// threads exactly as the reference implementation does.

#include <cstdint>

namespace ookami::npb {

/// Multiplier a = 5^13 used by EP and CG.
inline constexpr double kNpbA = 1220703125.0;
/// Default seed.
inline constexpr double kNpbSeed = 271828183.0;

/// One LCG step: updates x in place, returns x * 2^-46 in (0,1).  `a`
/// and `x` must hold integers in [0, 2^46), as every NPB stream does.
/// Computed in 64-bit integer arithmetic, which gives the same bits as
/// the split-multiply of the Fortran/C originals.
double randlc(double& x, double a);

/// a^exponent mod 2^46 (as a double holding an exact 46-bit integer):
/// the skip-ahead used to jump a stream to position `exponent`.
double ipow46(double a, std::uint64_t exponent);

/// Fill y[0..n) with consecutive randlc draws, advancing x.
void vranlc(int n, double& x, double a, double* y);

}  // namespace ookami::npb
