#pragma once
// SVE programming-model veneer over the fixed-width batch layer.
//
// ookami::simd::sve_api<Arch> exposes the same vocabulary as the
// ookami::sve scalar interpreter — Vec/VecU64/VecS64/Pred, ld1/st1/
// whilelt/sel/fma/fexpa, gather/scatter — but implemented on
// batch<T, 8, Arch>, so a kernel written against ookami::sve ports to a
// native backend by becoming `template <class SV>` and replacing
// `sve::op(...)` with `SV::op(...)`.  Instantiating the template with
// sve_api<arch::avx2> inside an -mavx2 -mfma translation unit yields the
// genuinely vectorized kernel; the per-lane reference implementations in
// ookami::sve remain the scalar backend and the oracle for tests.
//
// Unsigned 64-bit vectors ride the int64 batch: every operation the
// kernels use on VecU64 (+, &, |, logical shifts, table gather) is
// bit-pattern identical in two's complement.
//
// fexpa() reads the same constexpr 64-entry table as sve::fexpa_scalar
// (sve::kFexpaTable) through the same op sequence
// ((u >> 6) & 0x7ff) << 52 | table[u & 0x3f], so every backend's FEXPA
// is bit-identical to the scalar instruction model by construction.

#include <cmath>
#include <cstdint>
#include <limits>

#include "ookami/simd/arch.hpp"
#include "ookami/simd/batch.hpp"
#include "ookami/simd/batch_avx2.hpp"
#include "ookami/simd/batch_avx512.hpp"
#include "ookami/sve/fexpa.hpp"

namespace ookami::simd {

/// Vector length of the emulated machine: 512-bit SVE, 8 doubles.
inline constexpr int kSveLanes = 8;

/// FEXPA over any arch/width, bit-identical to sve::fexpa_scalar.
template <class T, int N, class A>
inline batch<double, N, A> fexpa(const batch<T, N, A>& u) {
  using I = batch<std::int64_t, N, A>;
  const I idx = u & I::dup(0x3f);
  const I expo = shr(u, 6) & I::dup(0x7ff);
  const I frac = I::gather_table(ookami::sve::kFexpaTable, idx);
  return bitcast_f64(shl(expo, 52) | frac);
}

template <class A>
struct sve_api {
  static constexpr int kLanes = kSveLanes;
  using arch = A;
  using Vec = batch<double, kSveLanes, A>;
  using VecS64 = batch<std::int64_t, kSveLanes, A>;
  using VecU64 = batch<std::int64_t, kSveLanes, A>;  // same bit patterns
  using Pred = mask<kSveLanes, A>;

  // Predicates ------------------------------------------------------------
  static Pred ptrue() { return Pred::ptrue(); }
  static Pred pfalse() { return Pred::pfalse(); }
  static Pred whilelt(std::size_t i, std::size_t n) { return Pred::whilelt(i, n); }

  // Broadcast and memory --------------------------------------------------
  static Vec dup(double x) { return Vec::dup(x); }
  static VecU64 dup_u64(std::uint64_t x) {
    return VecU64::dup(static_cast<std::int64_t>(x));
  }
  static Vec ld1(const Pred& pg, const double* p) { return Vec::ld1(pg, p); }
  static void st1(const Pred& pg, double* p, const Vec& x) { x.st1(pg, p); }
  static Vec gather(const Pred& pg, const double* base, const std::uint32_t* idx) {
    return Vec::gather(pg, base, idx);
  }
  static Vec gather(const Pred& pg, const double* base, const std::int64_t* idx) {
    return Vec::gather(pg, base, idx);
  }
  static void scatter(const Pred& pg, double* base, const std::uint32_t* idx,
                      const Vec& x) {
    x.scatter(pg, base, idx);
  }
  static void scatter(const Pred& pg, double* base, const std::int64_t* idx,
                      const Vec& x) {
    x.scatter(pg, base, idx);
  }

  // Arithmetic ------------------------------------------------------------
  static Vec fma(const Vec& a, const Vec& b, const Vec& c) {
    return ookami::simd::fma(a, b, c);
  }
  static Vec sel(const Pred& pg, const Vec& a, const Vec& b) {
    return ookami::simd::sel(pg, a, b);
  }
  static Vec abs(const Vec& a) { return ookami::simd::abs(a); }
  static Vec neg(const Vec& a) { return -a; }
  static Vec min(const Vec& a, const Vec& b) { return ookami::simd::min(a, b); }
  static Vec max(const Vec& a, const Vec& b) { return ookami::simd::max(a, b); }
  static Vec copysign(const Vec& mag, const Vec& sgn) {
    return ookami::simd::copysign(mag, sgn);
  }

  // Comparisons -----------------------------------------------------------
  static Pred cmpgt(const Pred& pg, const Vec& a, const Vec& b) {
    return ookami::simd::cmpgt(pg, a, b);
  }
  static Pred cmpge(const Pred& pg, const Vec& a, const Vec& b) {
    return ookami::simd::cmpge(pg, a, b);
  }
  static Pred cmplt(const Pred& pg, const Vec& a, const Vec& b) {
    return ookami::simd::cmplt(pg, a, b);
  }
  static Pred cmple(const Pred& pg, const Vec& a, const Vec& b) {
    return ookami::simd::cmple(pg, a, b);
  }
  static Pred cmpuo(const Pred& pg, const Vec& a) { return ookami::simd::cmpuo(pg, a); }

  // Rounding, conversion, bit reinterpretation ----------------------------
  static Vec frintn(const Vec& a) { return ookami::simd::frintn(a); }
  /// Exact for integral |x| < 2^51 (every FEXPA/exponent-scaling use);
  /// unlike sve::fcvtzs this does NOT saturate — out-of-range and NaN
  /// lanes produce unspecified bits that callers must mask via sel.
  static VecS64 cvt_s64(const Vec& a) { return ookami::simd::cvt_s64(a); }
  /// Exact for |v| < 2^51.
  static Vec cvt_f64(const VecS64& a) { return ookami::simd::cvt_f64(a); }
  static VecU64 bitcast_u64(const Vec& a) { return ookami::simd::bitcast_s64(a); }
  static Vec bitcast_f64(const VecU64& a) { return ookami::simd::bitcast_f64(a); }

  // Integer ops (VecU64 semantics: logical shifts) ------------------------
  static VecU64 shl(const VecU64& a, int s) { return ookami::simd::shl(a, s); }
  static VecU64 shr(const VecU64& a, int s) { return ookami::simd::shr(a, s); }
  static VecU64 sel_u64(const Pred& pg, const VecU64& a, const VecU64& b) {
    return ookami::simd::sel(pg, a, b);
  }
  static Pred cmpge_s64(const VecS64& a, const VecS64& b) {
    return ookami::simd::cmpge(a, b);
  }

  static Vec sqrt(const Vec& a) { return ookami::simd::sqrt(a); }

  // FEXPA and the estimate instructions ------------------------------------
  static Vec fexpa(const VecU64& u) { return ookami::simd::fexpa(u); }

  /// FRECPE: ~8-bit reciprocal estimate, bit-identical to sve::frecpe.
  /// Fraction truncation to 8 bits is a sign-independent bit mask, so
  /// masking the correctly rounded 1/x directly reproduces the scalar
  /// reference's copysign(truncate(|1/x|), x) for every non-NaN input;
  /// NaN lanes are passed through (payload preserved) like the reference.
  static Vec frecpe(const Vec& a) {
    const Vec r = Vec::dup(1.0) / a;
    const VecU64 keep = dup_u64(0xfffff00000000000ull);  // sign|exp|8 fraction bits
    const Vec trunc = bitcast_f64(bitcast_u64(r) & keep);
    return sel(cmpuo(ptrue(), a), a, trunc);
  }
  /// FRECPS Newton step coefficient: 2 - a*b, fused.
  static Vec frecps(const Vec& a, const Vec& b) { return fma(neg(a), b, dup(2.0)); }
  /// FRSQRTE: ~8-bit reciprocal-sqrt estimate, matching sve::frsqrte
  /// (NaN and negative inputs produce the default quiet NaN).
  static Vec frsqrte(const Vec& a) {
    const Pred pg = ptrue();
    const Vec r = Vec::dup(1.0) / sqrt(a);
    const VecU64 keep = dup_u64(0xfffff00000000000ull);
    Vec out = bitcast_f64(bitcast_u64(r) & keep);
    // The reference maps both zeros to +inf (its x == 0.0 test matches
    // -0.0), where 1/sqrt(-0.0) would give -inf.
    const Pred zero = cmple(pg, a, dup(0.0)) & cmpge(pg, a, dup(0.0));
    out = sel(zero, dup(HUGE_VAL), out);
    const Pred bad = cmpuo(pg, r);  // from NaN or negative input
    return sel(bad, dup(std::numeric_limits<double>::quiet_NaN()), out);
  }
  /// FRSQRTS Newton step coefficient: (3 - a*b) / 2, fused.
  static Vec frsqrts(const Vec& a, const Vec& b) {
    return fma(neg(a), b, dup(3.0)) * dup(0.5);
  }

  // Reductions ------------------------------------------------------------
  /// Strict lane order over active lanes (the sve::reduce_add contract).
  static double reduce_add(const Pred& pg, const Vec& a) {
    return ookami::simd::reduce_add_ordered(pg, a);
  }
  /// Reassociated pairwise sum over all lanes (for kernels whose
  /// verification tolerance allows reordering, e.g. CG spmv rows).
  static double reduce_add_fast(const Vec& a) { return ookami::simd::reduce_add(a); }
};

}  // namespace ookami::simd
