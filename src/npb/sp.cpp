// NPB SP — Scalar-Pentadiagonal ADI solver.
//
// Same ADI skeleton as BT, but the implicit line systems are *scalar*
// pentadiagonal (one independent 5-band system per component per line)
// arising from a fourth-order-accurate second-difference operator —
// precisely the Beam-Warming structural contrast the NPB suite encodes:
// BT factors 5x5 blocks, SP factors scalar bands.  SP touches the same
// grid more times with less arithmetic per touch, which is why the
// paper finds it memory-bound with poor cache behaviour.
//
// Everything that does not change between iterations (the factored
// line operator, the stencil weights, the coupling diagonal and the
// forcing) is computed once per run, so an iteration is four pool
// regions: a stencil pass and three substitution sweeps, the last of
// which adds its solution into u.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include "ookami/common/timer.hpp"
#include "ookami/npb/grid.hpp"
#include "ookami/npb/npb.hpp"
#include "ookami/npb/sp.hpp"
#include "ookami/taskgraph/taskgraph.hpp"
#include "ookami/trace/trace.hpp"

namespace ookami::npb {

namespace {

struct SpSpec {
  int n;
  int iterations;
};

SpSpec sp_spec(Class cls) {
  switch (cls) {
    case Class::kS: return {12, 100};
    case Class::kW: return {36, 400};
    case Class::kA: return {64, 400};
    case Class::kB: return {102, 400};
    case Class::kC: return {162, 400};  // paper: 162^3, 400 iterations
  }
  std::abort();
}

/// Fourth-order second-difference weights along one direction for an
/// interior-deep point: (-1/12, 4/3, -5/2, 4/3, -1/12) / h^2.  Points
/// adjacent to the boundary fall back to the second-order 3-point form.
struct PentaRow {
  double m2, m1, c, p1, p2;
};

PentaRow row_weights(int i, int ni, double inv_h2) {
  if (i == 1 || i == ni) {
    return {0.0, inv_h2, -2.0 * inv_h2, inv_h2, 0.0};
  }
  return {-inv_h2 / 12.0, 4.0 * inv_h2 / 3.0, -2.5 * inv_h2, 4.0 * inv_h2 / 3.0,
          -inv_h2 / 12.0};
}

/// Factor the line operator (I - dt*W) = LU in place by banded Gaussian
/// elimination without pivoting (rows are diagonally dominant).  Row i
/// keeps in m2/m1 the multipliers that eliminated its sub-diagonals
/// (the unit-lower L) and in c/p1/p2 its upper bands (U).  The bands
/// depend only on the position along the line, so one factorization
/// serves every line, component, direction and iteration.
std::vector<PentaRow> factor_line(int ni, double dt, double inv_h2) {
  const auto n = static_cast<std::size_t>(ni);
  std::vector<PentaRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = row_weights(static_cast<int>(i) + 1, ni, inv_h2);
    rows[i] = {-dt * w.m2, -dt * w.m1, 1.0 - dt * w.c, -dt * w.p1, -dt * w.p2};
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double inv = 1.0 / rows[i].c;
    // Row i+1 eliminates its m1 entry.
    PentaRow& r1 = rows[i + 1];
    r1.m1 *= inv;
    r1.c -= r1.m1 * rows[i].p1;
    r1.p1 -= r1.m1 * rows[i].p2;
    // Row i+2 eliminates its m2 entry.
    if (i + 2 < n) {
      PentaRow& r2 = rows[i + 2];
      r2.m2 *= inv;
      r2.m1 -= r2.m2 * rows[i].p1;
      r2.c -= r2.m2 * rows[i].p2;
    }
  }
  return rows;
}

/// Solve (I - dt*W) x = b for all five components of one line, or of
/// several adjacent lines at once, with the factored operator `lu`:
/// forward substitution fused with the gather of b from `in`, back
/// substitution fused with the scatter of x to `out` (stored, or added
/// to it when kAdd).  Point i of the lines is the `width` doubles at
/// offset i * stride in both; `y` holds them between the two passes.
/// Every value goes through the same operations whatever the width,
/// which a single line passes as a compile-time kNc.  9 flops per point
/// and component, plus the add: forward 2 mul + 2 sub, back 2 mul +
/// 2 sub + 1 div.
template <bool kAdd, class Width>
void solve_lines(const std::vector<PentaRow>& lu, const double* in, double* out,
                 std::size_t stride, Width w, double* y) {
  const std::size_t width = w;
  const std::size_t n = lu.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double* b = in + i * stride;
    double* yi = y + i * width;
    for (std::size_t m = 0; m < width; ++m) {
      double v = b[m];
      if (i >= 2) v -= lu[i].m2 * yi[m - 2 * width];
      if (i >= 1) v -= lu[i].m1 * yi[m - width];
      yi[m] = v;
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double* x = out + i * stride;
    double* yi = y + i * width;
    for (std::size_t m = 0; m < width; ++m) {
      double v = yi[m];
      if (i + 1 < n) v -= lu[i].p1 * yi[m + width];
      if (i + 2 < n) v -= lu[i].p2 * yi[m + 2 * width];
      v /= lu[i].c;
      yi[m] = v;
      if constexpr (kAdd) {
        x[m] += v;
      } else {
        x[m] = v;
      }
    }
  }
}

/// The 13-point stencil of the points along one z line: the record at
/// offset o - 2 in direction d of the line's point k is
/// `at[d][o] + k * step[d][o]`.
struct LineStencil {
  const double* at[3][5];
  std::size_t step[3][5];

  /// Fourth-order discrete Laplacian (sum over directions) of all five
  /// components at point k; boundary-adjacent rows degrade to second
  /// order through their weights.
  [[nodiscard]] Vec5 l4(std::size_t k, const PentaRow& wx, const PentaRow& wy,
                        const PentaRow& wz) const {
    const PentaRow* w[3] = {&wx, &wy, &wz};
    const double* g[3][5];
    for (int d = 0; d < 3; ++d) {
      for (int o = 0; o < 5; ++o) g[d][o] = at[d][o] + k * step[d][o];
    }
    Vec5 r;
    for (int m = 0; m < kNc; ++m) {
      double acc = 0.0;
      for (int d = 0; d < 3; ++d) {
        acc += w[d]->m2 * g[d][0][m] + w[d]->m1 * g[d][1][m] + w[d]->c * g[d][2][m] +
               w[d]->p1 * g[d][3][m] + w[d]->p2 * g[d][4][m];
      }
      r[static_cast<std::size_t>(m)] = acc;
    }
    return r;
  }
};

/// mat5_apply(coupling, v) for a coupling matrix with diagonal `diag`
/// and the off-diagonal entries of `off`, in the same summation order.
/// Inlinable and with no matrix built per point: calling mat5_apply
/// instead costs about a third more `sp/rhs` time.
Vec5 couple(const Mat5& off, double diag, const Vec5& v) {
  Vec5 r;
  for (int a = 0; a < kNc; ++a) {
    double s = 0.0;
    for (int b = 0; b < kNc; ++b) {
      s += (a == b ? diag : off[static_cast<std::size_t>(a * kNc + b)]) *
           v[static_cast<std::size_t>(b)];
    }
    r[static_cast<std::size_t>(a)] = s;
  }
  return r;
}

}  // namespace

Result run_sp(Class cls, unsigned threads) {
  return run_sp(cls, threads, taskgraph::default_exec());
}

Result run_sp(Class cls, unsigned threads, taskgraph::Exec exec) {
  const SpSpec spec = sp_spec(cls);
  const DiffusionProblem p(spec.n);
  const int n = spec.n;
  const int ni = n - 2;
  const auto ni_u = static_cast<std::size_t>(ni);
  const auto lines = ni_u * ni_u;
  const double inv_h2 = 1.0 / (p.h * p.h);

  Field u(n);
  p.initialize(u);
  // Field strides (in doubles) between neighbouring points along x, y, z.
  const std::size_t sx = static_cast<std::size_t>(n) * n * kNc;
  const std::size_t sy = static_cast<std::size_t>(n) * kNc;
  const std::size_t sz = kNc;

  // Loop invariants, computed once per run with the expressions the
  // iteration would otherwise re-evaluate, so no result bit changes.
  // The per-point tables are in z-line order: entry l * ni + k is point
  // k + 1 of z line l = (i - 1) * ni + (j - 1), the line index of the
  // rhs pass and the z sweep.
  std::vector<PentaRow> weights(ni_u);
  for (std::size_t i = 0; i < ni_u; ++i) {
    weights[i] = row_weights(static_cast<int>(i) + 1, ni, inv_h2);
  }
  const std::vector<PentaRow> lu = factor_line(ni, p.dt, inv_h2);
  // Only the coupling's diagonal 1 + phi(x) varies with position; the
  // forcing loop below tabulates it.
  const Mat5 off = p.coupling(1, 1, 1);
  std::vector<double> diag(lines * ni_u);

  // Forcing for the fourth-order operator: f = -R L4 u*, so the
  // manufactured solution is an exact fixed point.  u* is tabulated
  // once per grid point plus a one-point halo, which the stencil of a
  // boundary-adjacent row reaches with weight zero.
  std::vector<double> force(lines * ni_u * kNc);
  {
    const int ne = n + 2;
    std::vector<double> ex(static_cast<std::size_t>(ne) * ne * ne * kNc);
    auto ex_at = [&ex, ne](int i, int j, int k) {
      return ex.data() +
             ((static_cast<std::size_t>(i + 1) * ne + static_cast<std::size_t>(j + 1)) * ne +
              static_cast<std::size_t>(k + 1)) *
                 kNc;
    };
    for (int i = -1; i <= n; ++i) {
      for (int j = -1; j <= n; ++j) {
        for (int k = -1; k <= n; ++k) {
          const Vec5 e = p.exact(i, j, k);
          std::copy(e.begin(), e.end(), ex_at(i, j, k));
        }
      }
    }
    for (std::size_t l = 0; l < lines; ++l) {
      const int i = 1 + static_cast<int>(l) / ni;
      const int j = 1 + static_cast<int>(l) % ni;
      LineStencil s;
      for (int o = 0; o < 5; ++o) {
        s.at[0][o] = ex_at(i + o - 2, j, 1);
        s.at[1][o] = ex_at(i, j + o - 2, 1);
        s.at[2][o] = ex_at(i, j, o - 1);
        for (int d = 0; d < 3; ++d) s.step[d][o] = kNc;
      }
      const PentaRow& wx = weights[static_cast<std::size_t>(i - 1)];
      const PentaRow& wy = weights[static_cast<std::size_t>(j - 1)];
      for (std::size_t k = 0; k < ni_u; ++k) {
        const std::size_t pt = l * ni_u + k;
        diag[pt] = p.coupling(i, j, static_cast<int>(k) + 1)[0];
        const Vec5 f = couple(off, diag[pt], s.l4(k, wx, wy, weights[k]));
        for (std::size_t m = 0; m < kNc; ++m) force[pt * kNc + m] = -f[m];
      }
    }
  }

  const double err0 = p.error(u);
  ThreadPool pool(threads);
  Field delta(n);

  const double pts_d = static_cast<double>(ni) * ni * ni;
  static constexpr const char* kSweepName[3] = {"sp/x_solve", "sp/y_solve", "sp/z_solve"};

  // Range bodies over flat line indices, shared by the bulk-synchronous
  // and task-graph orchestrations.  Line l of a sweep is the pair of
  // its other two coordinates (1 + l / ni, 1 + l % ni): (j, k) for x
  // lines, (i, k) for y lines and (i, j) for z lines, which the rhs
  // pass walks too.  Every body is line-independent within its pass,
  // so results are bitwise independent of the chunking — the two modes
  // are bit-identical at every thread count.

  // Explicit residual rhs = dt (R L4 u + f), along unit-stride z lines:
  // each x or y neighbour of the line is a contiguous row of u.  The
  // stencil reads u as zero beyond the grid, where its weights are zero.
  static constexpr double kZero[kNc] = {};
  auto rhs_range = [&](std::size_t b, std::size_t e) {
    // The z line, with a zero record beyond each end.
    std::vector<double> zl(static_cast<std::size_t>(n + 2) * kNc, 0.0);
    for (std::size_t l = b; l < e; ++l) {
      const int i = 1 + static_cast<int>(l) / ni;
      const int j = 1 + static_cast<int>(l) % ni;
      std::copy_n(&u.at(i, j, 0, 0), static_cast<std::size_t>(n) * kNc, zl.begin() + kNc);
      LineStencil s;
      for (int o = 0; o < 5; ++o) {
        const int io = i + o - 2;
        const int jo = j + o - 2;
        const bool i_in = io >= 0 && io < n;
        const bool j_in = jo >= 0 && jo < n;
        s.at[0][o] = i_in ? &u.at(io, j, 1, 0) : kZero;
        s.step[0][o] = i_in ? kNc : 0;
        s.at[1][o] = j_in ? &u.at(i, jo, 1, 0) : kZero;
        s.step[1][o] = j_in ? kNc : 0;
        s.at[2][o] = zl.data() + static_cast<std::size_t>(o) * kNc;
        s.step[2][o] = kNc;
      }
      const PentaRow& wx = weights[static_cast<std::size_t>(i - 1)];
      const PentaRow& wy = weights[static_cast<std::size_t>(j - 1)];
      double* out = &delta.at(i, j, 1, 0);
      for (std::size_t k = 0; k < ni_u; ++k, out += kNc) {
        const std::size_t pt = l * ni_u + k;
        const Vec5 r = couple(off, diag[pt], s.l4(k, wx, wy, weights[k]));
        const double* f = &force[pt * kNc];
        for (std::size_t m = 0; m < kNc; ++m) out[m] = p.dt * (r[m] + f[m]);
      }
    }
  };

  // One scalar-pentadiagonal sweep direction over lines [b, e): each
  // line's five components solved together.  Scalar bands mean far
  // less arithmetic per touched byte than BT's 5x5 blocks — the
  // structural reason the paper finds SP memory-bound.  The x and y
  // sweeps solve delta in place, up to kBatch adjacent lines at once;
  // the z sweep solves one unit-stride line at a time and adds its
  // solution into u, which ends the iteration.
  static constexpr std::size_t kBatch = 8;
  using OneLine = std::integral_constant<std::size_t, kNc>;
  auto sweep_range = [&](int dir, std::size_t b, std::size_t e) {
    std::vector<double> y(ni_u * kNc * kBatch);
    for (std::size_t l = b; l < e;) {
      const int a = 1 + static_cast<int>(l) / ni;
      const int c = 1 + static_cast<int>(l) % ni;
      if (dir == 2) {
        solve_lines<true>(lu, &delta.at(a, c, 1, 0), &u.at(a, c, 1, 0), sz, OneLine{},
                          y.data());
        ++l;
        continue;
      }
      // x lines (a, c), (a, c + 1), ... of one a (and y lines alike)
      // lie side by side at every point.
      const std::size_t w = std::min({kBatch, e - l, ni_u + 1 - static_cast<std::size_t>(c)});
      double* line = dir == 0 ? &delta.at(1, a, c, 0) : &delta.at(a, 1, c, 0);
      solve_lines<false>(lu, line, line, dir == 0 ? sx : sy, w * kNc, y.data());
      l += w;
    }
  };

  WallTimer timer;
  if (exec == taskgraph::Exec::kGraph && spec.iterations > 0) {
    // Dependency-graph orchestration: one graph spans every ADI
    // iteration, so the whole run pays a single fork/join.  Couplings:
    //   rhs     <- prev z_solve  by the +/-2 stencil halo in (i,j) line
    //              space: z line (i, j) updates the u row that rhs lines
    //              (i +/- 2, j) and (i, j +/- 2) read;
    //   x_solve <- rhs        full fan-in (transpose: x line (j, k) reads
    //              delta that rhs lines (i, j) wrote for every i);
    //   y_solve <- x_solve    full fan-in (transpose again);
    //   z_solve <- y_solve    interval: z line (a, c) reads points the
    //              y lines (a, *) wrote, i.e. the a-major block
    //              [(a-1)*ni, a*ni) of producer lines.
    // The next rhs overwrites delta rows that x, y and z read.  Its halo
    // contains the diagonal, z line (i, j) waits on y lines (i, *), and
    // those wait on every x line, so that anti-dependency is transitive.
    const std::size_t cl = taskgraph::default_chunks(threads);
    const std::size_t halo = 2 * ni_u + 2;  // +/-2 in i is +/-2*ni flat, +/-2 in j
    auto halo_map = [halo, lines](std::size_t b, std::size_t e) {
      return std::make_pair(b > halo ? b - halo : 0, std::min(lines, e + halo));
    };
    auto block_map = [ni_u, lines](std::size_t b, std::size_t e) {
      return std::make_pair((b / ni_u) * ni_u, std::min(lines, ((e - 1) / ni_u + 1) * ni_u));
    };

    taskgraph::TaskGraph g("sp/adi");
    using Phase = taskgraph::TaskGraph::Phase;
    Phase prev_z;
    for (int iter = 0; iter < spec.iterations; ++iter) {
      Phase rhs = g.add_phase("sp/rhs", 0, lines, cl, rhs_range);
      Phase xs = g.add_phase("sp/x_solve", 0, lines, cl,
                             [&](std::size_t b, std::size_t e) { sweep_range(0, b, e); });
      Phase ys = g.add_phase("sp/y_solve", 0, lines, cl,
                             [&](std::size_t b, std::size_t e) { sweep_range(1, b, e); });
      Phase zs = g.add_phase("sp/z_solve", 0, lines, cl,
                             [&](std::size_t b, std::size_t e) { sweep_range(2, b, e); });
      if (iter > 0) g.depend_interval(prev_z, rhs, halo_map);
      g.depend_all(rhs, xs);
      g.depend_all(xs, ys);
      g.depend_interval(ys, zs, block_map);
      prev_z = zs;
    }
    g.run(pool);
  } else {
    for (int iter = 0; iter < spec.iterations; ++iter) {
      {
        // Nine rows of u (the line itself, copied once into the line
        // buffer that serves its z neighbours, and four x and four y
        // neighbour rows), the force read, the delta write and the
        // coupling diagonal.  Flops per point: L4 5 x 3 x (5 mul +
        // 4 add) + 15 accumulating adds, the coupling 5 x (5 mul +
        // 5 add), dt * (r + f) 5 x 2 — 210.
        OOKAMI_TRACE_SCOPE_IO("sp/rhs", pts_d * (kNc * 8.0 * 11.0 + 8.0), pts_d * 210.0);
        pool.parallel_for(0, lines,
                          [&](std::size_t b, std::size_t e, unsigned) { rhs_range(b, e); });
      }

      // Three scalar-pentadiagonal sweeps: substitution only, 9 flops
      // per point and component (see solve_lines) over a read and a
      // write of delta.  The z sweep writes u instead of delta, as a
      // read-modify-write with one add more.
      for (int dir = 0; dir < 3; ++dir) {
        const double words = dir == 2 ? 3.0 : 2.0;
        const double flops = dir == 2 ? 10.0 : 9.0;
        OOKAMI_TRACE_SCOPE_IO(kSweepName[dir], pts_d * kNc * 8.0 * words, pts_d * kNc * flops);
        pool.parallel_for(0, lines, [&](std::size_t b, std::size_t e, unsigned) {
          sweep_range(dir, b, e);
        });
      }
    }
  }

  Result res;
  res.benchmark = Benchmark::kSP;
  res.cls = cls;
  res.seconds = timer.elapsed();
  const double err = p.error(u);
  res.check_value = err;
  res.verified = DiffusionProblem::verified(err, err0);
  res.detail = "max-norm error vs manufactured steady state (initial " +
               std::to_string(err0) + ")";
  const double pts = static_cast<double>(ni) * ni * ni;
  res.mops = pts * spec.iterations * (150.0 + 3.0 * 5.0 * 15.0) / res.seconds / 1e6;
  return res;
}

}  // namespace ookami::npb
