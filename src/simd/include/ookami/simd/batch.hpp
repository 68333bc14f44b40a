#pragma once
// Portable fixed-width SIMD batches: the primary templates and the op
// contract.
//
// batch<T, N, Arch> is a value of N lanes of T processed as one unit.
// batch_avx2.hpp and batch_avx512.hpp provide the intrinsic
// specializations for x86.  Kernels are written once as templates over
// the Arch tag and instantiated per backend in dedicated translation
// units (compiled with the matching -m flags), then selected at runtime
// through the kernel registry.  The scalar backend is not a batch: it is
// each module's own reference code, and ookami::sve is the instruction
// model the ports are checked against.
//
// Semantics contract (every backend matches ookami::sve where the
// interpreter has the op, and the per-lane libm expression otherwise):
//  * ld1/gather zero inactive lanes; st1/scatter leave inactive memory
//    untouched and never read or write past an inactive lane's address.
//  * fma is a true fused multiply-add (one rounding), matching std::fma.
//  * frintn rounds to nearest, ties to even.
//  * abs, sqrt and copysign are std::fabs, std::sqrt and std::copysign;
//    min(a, b) is a < b ? a : b and max(a, b) is a > b ? a : b per lane.
//  * cvt_s64/cvt_f64 are exact for integral values with |x| < 2^51 and
//    unspecified (but non-trapping) outside that range — callers mask
//    out-of-range lanes afterwards, as the SVE kernels do.
//  * reduce_add_ordered accumulates active lanes in lane order (the
//    ookami::sve::reduce_add contract); reduce_add is the pairwise tree
//    (t[i] += t[i + n/2], halving n until one lane is left).

#include "ookami/simd/arch.hpp"

namespace ookami::simd {

template <int N, class A>
struct mask;
template <class T, int N, class A>
struct batch;

}  // namespace ookami::simd
