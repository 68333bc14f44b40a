#pragma once
// Arch-templated CSR SpMV, instantiated per native backend from
// cg_backend_*.cpp.  4-wide partial sums with a hardware gather over the
// column indices (the CG rows are short -- ~nonzer entries -- so the
// scalar remainder loop matters and stays simple).

#include <cstddef>
#include <cstdint>

#include "ookami/simd/batch.hpp"
#include "ookami/simd/batch_avx2.hpp"
#include "ookami/simd/batch_avx512.hpp"

namespace ookami::npb::detail {

/// Partial-sum width per arch: the 512-bit arch gathers 8 column
/// indices per step (one zmm accumulator); everything narrower keeps
/// the 4-wide tile.  Rows are ~nonzer entries, so width also shifts
/// work between the vector body and the scalar remainder.
template <class A>
inline constexpr int kSpmvWidth = 4;
template <>
inline constexpr int kSpmvWidth<simd::arch::avx512> = 8;

template <class A>
void spmv_range_impl(const int* rowstr, const int* colidx, const double* a, const double* x,
                     double* y, std::size_t row_begin, std::size_t row_end) {
  constexpr int kW = kSpmvWidth<A>;
  using V = simd::batch<double, kW, A>;
  using M = simd::mask<kW, A>;
  const M all = M::ptrue();
  for (std::size_t row = row_begin; row < row_end; ++row) {
    const int k1 = rowstr[row + 1];
    int k = rowstr[row];
    V acc = V::dup(0.0);
    for (; k + kW <= k1; k += kW) {
      // colidx entries are non-negative ints: reinterpreting as uint32
      // matches the gather's index type exactly.
      const V xv = V::gather(all, x, reinterpret_cast<const std::uint32_t*>(colidx + k));
      acc = simd::fma(V::load(a + k), xv, acc);
    }
    double sum = simd::reduce_add(acc);
    for (; k < k1; ++k) {
      sum += a[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(colidx[k])];
    }
    y[row] = sum;
  }
}

}  // namespace ookami::npb::detail
