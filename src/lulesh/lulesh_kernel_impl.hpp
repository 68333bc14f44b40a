#pragma once
// Arch-templated LULESH kinematics, instantiated per native backend from
// lulesh_backend_*.cpp.
//
// The scalar loop visits each node and gathers (press+qvisc, B) from up
// to 8 adjacent elements, skipping out-of-mesh neighbours.  Vectorised
// form: 4 consecutive nodes along k (the fastest dimension) share i and
// j, so per corner c the element row is contiguous in memory and the
// i/j boundary guards are uniform -- only the k guard is per-lane, which
// becomes a gather mask.  Masked-out lanes contribute an exact +0.0,
// matching the scalar `continue` bit-for-bit (partial sums are never
// -0.0: they start at +0.0 and adding +/-0.0 to +0.0 yields +0.0), and
// every node still runs the identical lane-wise operation sequence,
// preserving the octant symmetry the verification demands.
//
// Gather indices are signed 64-bit: at the k=0 boundary the first lane's
// element offset is -1, masked inactive but still *formed* -- exactly
// the negative-offset edge case the s64 gather contract covers.

#include <array>
#include <cstddef>
#include <cstdint>

#include "ookami/simd/batch.hpp"
#include "ookami/simd/batch_avx2.hpp"
#include "ookami/simd/batch_avx512.hpp"

namespace ookami::lulesh::detail {

/// Node-strip width per arch: the 512-bit arch walks 8 nodes along k
/// per step (one zmm gather per corner); everything narrower keeps the
/// 4-node strip.
template <class A>
inline constexpr int kKinWidth = 4;
template <>
inline constexpr int kKinWidth<simd::arch::avx512> = 8;

template <class A>
void kinematics_rows_impl(int n, int nn, double dt, const double* press, const double* qvisc,
                          const double* bx, const double* by, const double* bz,
                          const double* nmass, double* xd, double* yd, double* zd, double* x,
                          double* y, double* z, std::size_t row_begin, std::size_t row_end) {
  constexpr int kW = kKinWidth<A>;
  using V = simd::batch<double, kW, A>;
  using VI = simd::batch<std::int64_t, kW, A>;
  using M = simd::mask<kW, A>;
  std::array<std::int64_t, kW> lane_ids{};
  for (int l = 0; l < kW; ++l) lane_ids[static_cast<std::size_t>(l)] = l;
  const VI lanes = VI::from_array(lane_ids);
  const V vdt = V::dup(dt);
  const auto nnu = static_cast<std::size_t>(nn);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const int i = static_cast<int>(r) / nn;
    const int j = static_cast<int>(r) % nn;
    for (int k = 0; k < nn; k += kW) {
      const M pg = M::whilelt(static_cast<std::size_t>(k), nnu);
      const VI kl = VI::dup(k) + lanes;
      V fx = V::dup(0.0), fy = V::dup(0.0), fz = V::dup(0.0);
      for (int c = 0; c < 8; ++c) {
        const int ei = i - (c & 1), ej = j - ((c >> 1) & 1);
        const int kc = (c >> 2) & 1;
        if (ei < 0 || ej < 0 || ei >= n || ej >= n) continue;  // uniform over the row
        // Lane guard: ek = k + l - kc must lie in [0, n).
        const M mv = pg & simd::cmpge(kl, VI::dup(kc)) & !simd::cmpge(kl, VI::dup(n + kc));
        const std::int64_t qbase =
            (static_cast<std::int64_t>(ei) * n + ej) * n + (k - kc);
        std::int64_t eidx[kW], bidx[kW];
        for (int l = 0; l < kW; ++l) {
          eidx[l] = qbase + l;
          bidx[l] = (qbase + l) * 8 + c;
        }
        const V sig = V::gather(mv, press, eidx) + V::gather(mv, qvisc, eidx);
        fx = fx + sig * V::gather(mv, bx, bidx);
        fy = fy + sig * V::gather(mv, by, bidx);
        fz = fz + sig * V::gather(mv, bz, bidx);
      }
      const std::size_t g0 = r * nnu + static_cast<std::size_t>(k);
      const V inv_m = V::dup(1.0) / V::ld1(pg, nmass + g0);
      V nxd = V::ld1(pg, xd + g0) + vdt * fx * inv_m;
      V nyd = V::ld1(pg, yd + g0) + vdt * fy * inv_m;
      V nzd = V::ld1(pg, zd + g0) + vdt * fz * inv_m;
      // Symmetry planes: zero normal velocity on i=0 / j=0 / k=0.
      if (i == 0) nxd = V::dup(0.0);
      if (j == 0) nyd = V::dup(0.0);
      nzd = simd::sel(simd::cmpge(kl, VI::dup(1)), nzd, V::dup(0.0));
      nxd.st1(pg, xd + g0);
      nyd.st1(pg, yd + g0);
      nzd.st1(pg, zd + g0);
      (V::ld1(pg, x + g0) + vdt * nxd).st1(pg, x + g0);
      (V::ld1(pg, y + g0) + vdt * nyd).st1(pg, y + g0);
      (V::ld1(pg, z + g0) + vdt * nzd).st1(pg, z + g0);
    }
  }
}

}  // namespace ookami::lulesh::detail
