// NPB BT — Block-Tridiagonal ADI solver.
//
// Each iteration computes the explicit residual, then performs three
// Alternating-Direction-Implicit sweeps.  Every sweep solves, along
// every grid line of its direction, a block-tridiagonal system with
// 5x5 blocks by the block Thomas algorithm (LU-factor the pivot block,
// eliminate downward, back-substitute upward) — the exact solver
// pattern of NPB BT.  Lines are independent, so threads parallelize
// over them.

#include <cmath>
#include <cstdlib>
#include <vector>

#include "ookami/common/timer.hpp"
#include "ookami/npb/grid.hpp"
#include "ookami/npb/npb.hpp"
#include "ookami/trace/trace.hpp"

namespace ookami::npb {

namespace {

struct BtSpec {
  int n;
  int iterations;
};

BtSpec bt_spec(Class cls) {
  switch (cls) {
    case Class::kS: return {12, 60};
    case Class::kW: return {24, 200};
    case Class::kA: return {64, 200};
    case Class::kB: return {102, 200};
    case Class::kC: return {162, 200};  // paper: 162^3, 200 iterations
  }
  std::abort();
}

/// Solve one block-tridiagonal line of `ni` interior unknowns.
/// diag/off blocks derive from the coupling matrix at each point:
/// B_i = I + 2 sigma R_i, A_i = C_i = -sigma R_i.  `rhs` is overwritten
/// with the solution.
void solve_block_line(const DiffusionProblem& p, std::vector<Mat5>& r_line,
                      std::vector<Vec5>& rhs) {
  const std::size_t ni = rhs.size();
  const double sigma = p.dt / (p.h * p.h);

  // Workspace: modified diagonal blocks (factored) and modified rhs.
  std::vector<Mat5> diag_lu(ni);
  std::vector<std::array<int, 5>> perm(ni);
  std::vector<Mat5> upper(ni);  // B^-1 C of the previous row

  for (std::size_t i = 0; i < ni; ++i) {
    const Mat5& r = r_line[i];
    Mat5 diag = mat5_add(mat5_identity(), mat5_scale(r, 2.0 * sigma));
    const Mat5 sub = mat5_scale(r, -sigma);  // A_i (and C_i by symmetry of the stencil)
    if (i > 0) {
      // diag -= A_i * (B_{i-1}^-1 C_{i-1});  rhs_i -= A_i * (B_{i-1}^-1 d_{i-1})
      diag = mat5_sub(diag, mat5_mul(sub, upper[i - 1]));
      const Vec5 y = mat5_lu_solve(diag_lu[i - 1], perm[i - 1], rhs[i - 1]);
      const Vec5 corr = mat5_apply(sub, y);
      for (int m = 0; m < kNc; ++m) rhs[i][static_cast<std::size_t>(m)] -= corr[static_cast<std::size_t>(m)];
    }
    diag_lu[i] = diag;
    mat5_lu(diag_lu[i], perm[i]);
    if (i + 1 < ni) {
      upper[i] = mat5_lu_solve_mat(diag_lu[i], perm[i], sub);  // B_i^-1 C_i
    }
  }

  // Back substitution.
  rhs[ni - 1] = mat5_lu_solve(diag_lu[ni - 1], perm[ni - 1], rhs[ni - 1]);
  for (std::size_t i = ni - 1; i-- > 0;) {
    Vec5 d = mat5_lu_solve(diag_lu[i], perm[i], rhs[i]);
    const Vec5 corr = mat5_apply(upper[i], rhs[i + 1]);
    for (int m = 0; m < kNc; ++m) {
      d[static_cast<std::size_t>(m)] -= corr[static_cast<std::size_t>(m)];
    }
    rhs[i] = d;
  }
}

}  // namespace

Result run_bt(Class cls, unsigned threads) {
  const BtSpec spec = bt_spec(cls);
  const DiffusionProblem p(spec.n);
  Field u(spec.n);
  p.initialize(u);
  const double err0 = p.error(u);

  ThreadPool pool(threads);
  const int ni = spec.n - 2;
  const auto lines = static_cast<std::size_t>(ni) * static_cast<std::size_t>(ni);

  Field delta(spec.n);

  const double pts_d = static_cast<double>(ni) * ni * ni;
  static constexpr const char* kSweepName[3] = {"bt/x_solve", "bt/y_solve", "bt/z_solve"};

  WallTimer timer;
  for (int iter = 0; iter < spec.iterations; ++iter) {
    // Explicit residual into delta.
    {
      // 7-point stencil over 5 components: ~8 field touches per point.
      OOKAMI_TRACE_SCOPE_IO("bt/rhs", pts_d * kNc * 8.0 * 8.0, pts_d * 80.0);
      pool.parallel_for(0, lines, [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t l = b; l < e; ++l) {
          const int j = 1 + static_cast<int>(l) / ni;
          const int k = 1 + static_cast<int>(l) % ni;
          for (int i = 1; i <= ni; ++i) delta.set(i, j, k, p.rhs(u, i, j, k));
        }
      });
    }

    // Three ADI sweeps: x, y, z.  Each sweep solves block-tridiagonal
    // lines of `delta` in place.
    for (int dir = 0; dir < 3; ++dir) {
      // Block-Thomas works from cache-resident per-line workspace; the
      // streamed traffic is reading and writing delta once per point.
      OOKAMI_TRACE_SCOPE_IO(kSweepName[dir], pts_d * kNc * 8.0 * 2.0, pts_d * 500.0);
      pool.parallel_for(0, lines, [&](std::size_t b, std::size_t e, unsigned) {
        std::vector<Mat5> r_line(static_cast<std::size_t>(ni));
        std::vector<Vec5> rhs(static_cast<std::size_t>(ni));
        for (std::size_t l = b; l < e; ++l) {
          const int a = 1 + static_cast<int>(l) / ni;
          const int c = 1 + static_cast<int>(l) % ni;
          // Line coordinates: dir 0 -> (i, a, c); 1 -> (a, i, c); 2 -> (a, c, i).
          for (int i = 1; i <= ni; ++i) {
            const int x = dir == 0 ? i : a;
            const int y = dir == 1 ? i : (dir == 0 ? a : c);
            const int z = dir == 2 ? i : c;
            r_line[static_cast<std::size_t>(i - 1)] = p.coupling(x, y, z);
            rhs[static_cast<std::size_t>(i - 1)] = delta.get(x, y, z);
          }
          solve_block_line(p, r_line, rhs);
          for (int i = 1; i <= ni; ++i) {
            const int x = dir == 0 ? i : a;
            const int y = dir == 1 ? i : (dir == 0 ? a : c);
            const int z = dir == 2 ? i : c;
            delta.set(x, y, z, rhs[static_cast<std::size_t>(i - 1)]);
          }
        }
      });
    }

    // u += delta on the interior.
    {
      OOKAMI_TRACE_SCOPE_IO("bt/add", pts_d * kNc * 8.0 * 3.0, pts_d * kNc);
      pool.parallel_for(0, lines, [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t l = b; l < e; ++l) {
          const int j = 1 + static_cast<int>(l) / ni;
          const int k = 1 + static_cast<int>(l) % ni;
          for (int i = 1; i <= ni; ++i) {
            for (int m = 0; m < kNc; ++m) u.at(i, j, k, m) += delta.at(i, j, k, m);
          }
        }
      });
    }
  }

  Result res;
  res.benchmark = Benchmark::kBT;
  res.cls = cls;
  res.seconds = timer.elapsed();
  const double err = p.error(u);
  res.check_value = err;
  res.verified = DiffusionProblem::verified(err, err0);
  res.detail = "max-norm error vs manufactured steady state (initial " +
               std::to_string(err0) + ")";
  // ~flops: per point per iteration: rhs stencil (~80) + 3 sweeps of
  // block-Thomas (~5^3 * 4 per point).
  const double pts = static_cast<double>(ni) * ni * ni;
  res.mops = pts * spec.iterations * (80.0 + 3.0 * 500.0) / res.seconds / 1e6;
  return res;
}

}  // namespace ookami::npb
