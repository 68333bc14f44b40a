// NPB LU — Symmetric Successive Over-Relaxation with block lower/upper
// triangular sweeps.
//
// Unlike BT/SP there is no ADI factorization: each iteration applies a
// forward (lower-triangular) sweep in increasing lexicographic order —
// every point's 5x5 system uses already-updated west/south/bottom
// neighbours — followed by a backward (upper-triangular) sweep, i.e.
// the regular-sparse-matrix SSOR pattern of NPB LU.  The sweeps carry a
// wavefront dependency, which we parallelize by hyperplanes
// (i+j+k = const), the standard LU parallelization.

#include <cmath>
#include <cstdlib>
#include <vector>

#include "ookami/common/timer.hpp"
#include "ookami/npb/grid.hpp"
#include "ookami/npb/npb.hpp"
#include "ookami/trace/trace.hpp"

namespace ookami::npb {

namespace {

struct LuSpec {
  int n;
  int iterations;
};

LuSpec lu_spec(Class cls) {
  switch (cls) {
    case Class::kS: return {12, 50};
    case Class::kW: return {33, 300};
    case Class::kA: return {64, 250};
    case Class::kB: return {102, 250};
    case Class::kC: return {162, 250};  // paper: 162^3, 250 iterations
  }
  std::abort();
}

constexpr double kOmega = 1.2;  // NPB LU over-relaxation factor

}  // namespace

Result run_lu(Class cls, unsigned threads) {
  const LuSpec spec = lu_spec(cls);
  const DiffusionProblem p(spec.n);
  Field u(spec.n);
  p.initialize(u);
  const double err0 = p.error(u);

  ThreadPool pool(threads);
  const int ni = spec.n - 2;
  const double sigma = p.dt / (p.h * p.h);
  Field delta(spec.n);

  // Hyperplane decomposition: interior points with i+j+k == plane are
  // independent within a sweep.
  const int plane_min = 3, plane_max = 3 * ni;
  std::vector<std::vector<std::array<int, 3>>> planes(static_cast<std::size_t>(plane_max + 1));
  for (int i = 1; i <= ni; ++i) {
    for (int j = 1; j <= ni; ++j) {
      for (int k = 1; k <= ni; ++k) planes[static_cast<std::size_t>(i + j + k)].push_back({i, j, k});
    }
  }

  const double pts_d = static_cast<double>(ni) * ni * ni;

  WallTimer timer;
  for (int iter = 0; iter < spec.iterations; ++iter) {
    // Residual.
    {
      OOKAMI_TRACE_SCOPE_IO("lu/rhs", pts_d * kNc * 8.0 * 8.0, pts_d * 80.0);
      pool.parallel_for(0, static_cast<std::size_t>(ni) * ni,
                        [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t l = b; l < e; ++l) {
          const int j = 1 + static_cast<int>(l) / ni;
          const int k = 1 + static_cast<int>(l) % ni;
          for (int i = 1; i <= ni; ++i) delta.set(i, j, k, p.rhs(u, i, j, k));
        }
      });
    }

    // Lower sweep: (D + L) delta' = rhs, hyperplane by hyperplane.
    {
      OOKAMI_TRACE_SCOPE_IO("lu/ssor_lower", pts_d * kNc * 8.0 * 5.0, pts_d * 400.0);
      for (int plane = plane_min; plane <= plane_max; ++plane) {
        const auto& pts = planes[static_cast<std::size_t>(plane)];
        pool.parallel_for(0, pts.size(), [&](std::size_t b, std::size_t e, unsigned) {
          for (std::size_t q = b; q < e; ++q) {
            const auto [i, j, k] = pts[q];
            const Mat5 r = p.coupling(i, j, k);
            Vec5 rhs = delta.get(i, j, k);
            // Lower neighbours already hold updated values.
            auto add_lower = [&](int a, int bb, int c) {
              const Vec5 nb = mat5_apply(mat5_scale(r, sigma), delta.get(a, bb, c));
              for (int m = 0; m < kNc; ++m) rhs[static_cast<std::size_t>(m)] += nb[static_cast<std::size_t>(m)];
            };
            if (i > 1) add_lower(i - 1, j, k);
            if (j > 1) add_lower(i, j - 1, k);
            if (k > 1) add_lower(i, j, k - 1);
            const Mat5 diag = mat5_add(mat5_identity(), mat5_scale(r, 6.0 * sigma));
            delta.set(i, j, k, mat5_solve(diag, rhs));
          }
        });
      }
    }

    // Upper sweep: (D + U) delta = D delta', reverse hyperplane order.
    {
      OOKAMI_TRACE_SCOPE_IO("lu/ssor_upper", pts_d * kNc * 8.0 * 5.0, pts_d * 400.0);
      for (int plane = plane_max; plane >= plane_min; --plane) {
        const auto& pts = planes[static_cast<std::size_t>(plane)];
        pool.parallel_for(0, pts.size(), [&](std::size_t b, std::size_t e, unsigned) {
          for (std::size_t q = b; q < e; ++q) {
            const auto [i, j, k] = pts[q];
            const Mat5 r = p.coupling(i, j, k);
            const Mat5 diag = mat5_add(mat5_identity(), mat5_scale(r, 6.0 * sigma));
            Vec5 rhs = mat5_apply(diag, delta.get(i, j, k));
            auto add_upper = [&](int a, int bb, int c) {
              const Vec5 nb = mat5_apply(mat5_scale(r, sigma), delta.get(a, bb, c));
              for (int m = 0; m < kNc; ++m) rhs[static_cast<std::size_t>(m)] += nb[static_cast<std::size_t>(m)];
            };
            if (i < ni) add_upper(i + 1, j, k);
            if (j < ni) add_upper(i, j + 1, k);
            if (k < ni) add_upper(i, j, k + 1);
            delta.set(i, j, k, mat5_solve(diag, rhs));
          }
        });
      }
    }

    // u += omega * delta.
    {
      OOKAMI_TRACE_SCOPE_IO("lu/add", pts_d * kNc * 8.0 * 3.0, pts_d * kNc * 2.0);
      pool.parallel_for(0, static_cast<std::size_t>(ni) * ni,
                        [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t l = b; l < e; ++l) {
          const int j = 1 + static_cast<int>(l) / ni;
          const int k = 1 + static_cast<int>(l) % ni;
          for (int i = 1; i <= ni; ++i) {
            for (int m = 0; m < kNc; ++m) u.at(i, j, k, m) += kOmega * delta.at(i, j, k, m);
          }
        }
      });
    }
  }

  Result res;
  res.benchmark = Benchmark::kLU;
  res.cls = cls;
  res.seconds = timer.elapsed();
  const double err = p.error(u);
  res.check_value = err;
  res.verified = DiffusionProblem::verified(err, err0);
  res.detail = "max-norm error vs manufactured steady state (initial " +
               std::to_string(err0) + ")";
  const double pts = static_cast<double>(ni) * ni * ni;
  res.mops = pts * spec.iterations * (80.0 + 2.0 * 400.0) / res.seconds / 1e6;
  return res;
}

}  // namespace ookami::npb
