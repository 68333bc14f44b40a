#pragma once
// Compile-time architecture tags for the fixed-width SIMD layer.
//
// Each tag names an instruction-set backend a kernel can be instantiated
// against.  The tags are only *usable* inside translation units compiled
// with the matching instruction-set flags (see batch_avx2.hpp /
// batch_avx512.hpp, whose batch specializations are preprocessor-gated).
// Keeping the tags themselves unconditional lets dispatch tables name
// every backend on every platform while the heavy template
// instantiations stay confined to the per-arch translation units — this
// is what keeps the design ODR-clean: a given batch<T, N, Arch>
// specialization is textually identical in every TU that can see it,
// and TUs that lack the instruction set never see it.  The scalar
// backend needs no tag: it is each module's own reference code.

namespace ookami::simd::arch {

/// 256-bit AVX2 + FMA (x86-64-v3).  Four double lanes per register.
struct avx2 {};

/// 512-bit AVX-512 F+DQ.  Eight double lanes per register — the same
/// vector length as A64FX SVE, so one batch<double, 8> is one zmm and
/// one mask is one hardware __mmask8 predicate.
struct avx512 {};

}  // namespace ookami::simd::arch
