#include "ookami/lulesh/lulesh.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "ookami/common/stats.hpp"
#include "ookami/common/timer.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/sve/sve.hpp"
#include "ookami/trace/trace.hpp"

// Pull the per-arch variant-registration TUs out of the static library.
#if defined(OOKAMI_SIMD_HAVE_AVX2)
OOKAMI_DISPATCH_USE_VARIANTS(lulesh_avx2)
#endif
#if defined(OOKAMI_SIMD_HAVE_AVX512)
OOKAMI_DISPATCH_USE_VARIANTS(lulesh_avx512)
#endif

namespace ookami::lulesh {

namespace {

// Nodal force gather + velocity/position update over node *rows*
// [row_begin, row_end): row r covers nodes g = r*nn + k, k in [0, nn),
// with i = r/nn and j = r%nn fixed per row.  Row decomposition makes
// the element offsets contiguous in the fastest (k) dimension and the
// i/j boundary guards uniform across a whole row.  Scalar resolution
// keeps the original node loop in the else branch below.
using KinematicsRowsFn = void(int, int, double, const double*, const double*, const double*,
                              const double*, const double*, const double*, double*, double*,
                              double*, double*, double*, double*, std::size_t, std::size_t);
const dispatch::kernel_table<KinematicsRowsFn> kKinematicsTable("lulesh.kinematics");

constexpr double kGamma = 1.4;
constexpr double kE0 = 1.0;        // Sedov point energy
constexpr double kCfl = 0.2;
constexpr double kQ1 = 0.3;        // linear artificial-viscosity coefficient
constexpr double kQ2 = 2.0;        // quadratic artificial-viscosity coefficient

/// Kuhn triangulation of the hexahedron along the 0-7 diagonal (local
/// corners are bit-coded: bit0 -> +x, bit1 -> +y, bit2 -> +z), each tet
/// ordered positively.  A consistent decomposition across all elements
/// keeps volumes exact and the volume derivative conservative.
constexpr int kTets[6][4] = {{0, 1, 3, 7}, {0, 5, 1, 7}, {0, 3, 2, 7},
                             {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 6, 4, 7}};

struct V3 {
  double x = 0.0, y = 0.0, z = 0.0;
};

V3 cross(const V3& a, const V3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}
V3 sub(const V3& a, const V3& b) { return {a.x - b.x, a.y - b.y, a.z - b.z}; }
double dot(const V3& a, const V3& b) { return a.x * b.x + a.y * b.y + a.z * b.z; }

/// Mesh state in SoA form (shared by both variants).
struct State {
  int n;              // elements per edge
  int nn;             // nodes per edge = n+1
  // Nodes.
  std::vector<double> x, y, z;     // positions
  std::vector<double> xd, yd, zd;  // velocities
  std::vector<double> nmass;
  // Elements.
  std::vector<double> energy;  // total internal energy per element
  std::vector<double> press, qvisc;
  std::vector<double> vol, vol_prev, dvdt;
  std::vector<double> emass;
  // Per-(element, local node) volume gradient, SoA over elements.
  std::vector<double> bx, by, bz;  // size nelem*8

  [[nodiscard]] std::size_t nidx(int i, int j, int k) const {
    return (static_cast<std::size_t>(i) * nn + j) * nn + static_cast<std::size_t>(k);
  }
  [[nodiscard]] std::size_t eidx(int i, int j, int k) const {
    return (static_cast<std::size_t>(i) * n + j) * n + static_cast<std::size_t>(k);
  }
  [[nodiscard]] std::size_t nelem() const { return static_cast<std::size_t>(n) * n * n; }
  [[nodiscard]] std::size_t nnode() const {
    return static_cast<std::size_t>(nn) * nn * nn;
  }

  /// Global node indices of element (i,j,k) in local order 0..7
  /// (x-major corner numbering: bit0->+i, bit1->+j, bit2->+k).
  std::array<std::size_t, 8> elem_nodes(int i, int j, int k) const {
    std::array<std::size_t, 8> nd;
    for (int c = 0; c < 8; ++c) {
      nd[static_cast<std::size_t>(c)] = nidx(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1));
    }
    return nd;
  }
};

State make_state(int n) {
  State s;
  s.n = n;
  s.nn = n + 1;
  const std::size_t nn3 = s.nnode();
  const std::size_t ne = s.nelem();
  s.x.resize(nn3);
  s.y.resize(nn3);
  s.z.resize(nn3);
  s.xd.assign(nn3, 0.0);
  s.yd.assign(nn3, 0.0);
  s.zd.assign(nn3, 0.0);
  s.nmass.assign(nn3, 0.0);
  s.energy.assign(ne, 1e-12);
  s.press.assign(ne, 0.0);
  s.qvisc.assign(ne, 0.0);
  s.vol.assign(ne, 0.0);
  s.vol_prev.assign(ne, 0.0);
  s.dvdt.assign(ne, 0.0);
  s.emass.assign(ne, 0.0);
  s.bx.assign(ne * 8, 0.0);
  s.by.assign(ne * 8, 0.0);
  s.bz.assign(ne * 8, 0.0);

  const double h = 1.0 / n;
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      for (int k = 0; k <= n; ++k) {
        const std::size_t id = s.nidx(i, j, k);
        s.x[id] = i * h;
        s.y[id] = j * h;
        s.z[id] = k * h;
      }
    }
  }
  // Sedov deposit in the corner element; unit initial density.
  s.energy[s.eidx(0, 0, 0)] = kE0;
  const double v0 = h * h * h;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        s.emass[s.eidx(i, j, k)] = v0;
        for (const std::size_t nd : s.elem_nodes(i, j, k)) s.nmass[nd] += v0 / 8.0;
      }
    }
  }
  return s;
}

/// Geometry pass: volume, volume gradient, and dV/dt of one element.
void elem_geometry(State& s, int i, int j, int k) {
  const auto nd = s.elem_nodes(i, j, k);
  std::array<V3, 8> p, v;
  for (int c = 0; c < 8; ++c) {
    const std::size_t g = nd[static_cast<std::size_t>(c)];
    p[static_cast<std::size_t>(c)] = {s.x[g], s.y[g], s.z[g]};
    v[static_cast<std::size_t>(c)] = {s.xd[g], s.yd[g], s.zd[g]};
  }
  double volume = 0.0;
  std::array<V3, 8> grad{};
  for (const auto& tet : kTets) {
    const V3& a = p[static_cast<std::size_t>(tet[0])];
    const V3& b = p[static_cast<std::size_t>(tet[1])];
    const V3& c = p[static_cast<std::size_t>(tet[2])];
    const V3& d = p[static_cast<std::size_t>(tet[3])];
    const V3 ab = sub(b, a), ac = sub(c, a), ad = sub(d, a);
    volume += dot(cross(ab, ac), ad) / 6.0;
    // dV/db = (ac x ad)/6, dV/dc = (ad x ab)/6, dV/dd = (ab x ac)/6,
    // dV/da = -(sum).
    const V3 gb = cross(ac, ad), gc = cross(ad, ab), gd = cross(ab, ac);
    auto& ga = grad[static_cast<std::size_t>(tet[0])];
    auto add6 = [](V3& dst, const V3& src, double sgn) {
      dst.x += sgn * src.x / 6.0;
      dst.y += sgn * src.y / 6.0;
      dst.z += sgn * src.z / 6.0;
    };
    add6(grad[static_cast<std::size_t>(tet[1])], gb, 1.0);
    add6(grad[static_cast<std::size_t>(tet[2])], gc, 1.0);
    add6(grad[static_cast<std::size_t>(tet[3])], gd, 1.0);
    add6(ga, gb, -1.0);
    add6(ga, gc, -1.0);
    add6(ga, gd, -1.0);
  }
  const std::size_t e = s.eidx(i, j, k);
  s.vol[e] = volume;
  double dvdt = 0.0;
  for (int c = 0; c < 8; ++c) {
    s.bx[e * 8 + static_cast<std::size_t>(c)] = grad[static_cast<std::size_t>(c)].x;
    s.by[e * 8 + static_cast<std::size_t>(c)] = grad[static_cast<std::size_t>(c)].y;
    s.bz[e * 8 + static_cast<std::size_t>(c)] = grad[static_cast<std::size_t>(c)].z;
    dvdt += dot(grad[static_cast<std::size_t>(c)], v[static_cast<std::size_t>(c)]);
  }
  s.dvdt[e] = dvdt;
}

/// EOS + artificial viscosity, scalar ("Base") form.
void eos_base(State& s, std::size_t b, std::size_t e) {
  for (std::size_t q = b; q < e; ++q) {
    const double vol = s.vol[q];
    const double rho = s.emass[q] / vol;
    const double press = (kGamma - 1.0) * s.energy[q] / vol;
    s.press[q] = press;
    const double lq = std::cbrt(vol);
    const double du = s.dvdt[q] / vol * lq;  // velocity scale of compression
    if (du < 0.0) {
      const double cs = std::sqrt(kGamma * press / rho);
      s.qvisc[q] = rho * (kQ2 * du * du + kQ1 * cs * std::fabs(du)) * 1.0;
    } else {
      s.qvisc[q] = 0.0;
    }
  }
}

/// EOS + artificial viscosity through the SVE emulation layer ("Vect").
void eos_vect(State& s, std::size_t b, std::size_t e) {
  namespace sv = ookami::sve;
  for (std::size_t q = b; q < e; q += sv::kLanes) {
    const std::size_t hi = std::min(e, q + sv::kLanes);
    const sv::Pred pg = sv::whilelt(0, hi - q);
    const sv::Vec vol = sv::ld1(pg, s.vol.data() + q);
    const sv::Vec mass = sv::ld1(pg, s.emass.data() + q);
    const sv::Vec energy = sv::ld1(pg, s.energy.data() + q);
    const sv::Vec rho = mass / vol;
    const sv::Vec press = sv::Vec(kGamma - 1.0) * energy / vol;
    sv::st1(pg, s.press.data() + q, press);
    // lq = vol^(1/3) via exp/log is overkill; per-lane cbrt matches Base.
    sv::Vec lq;
    for (int l = 0; l < sv::kLanes; ++l) lq[l] = std::cbrt(vol[l]);
    const sv::Vec du = sv::ld1(pg, s.dvdt.data() + q) / vol * lq;
    sv::Vec cs;
    for (int l = 0; l < sv::kLanes; ++l) {
      cs[l] = std::sqrt(kGamma * std::max(press[l], 0.0) / std::max(rho[l], 1e-300));
    }
    sv::Vec absdu;
    for (int l = 0; l < sv::kLanes; ++l) absdu[l] = std::fabs(du[l]);
    const sv::Vec qv = rho * (sv::Vec(kQ2) * du * du + sv::Vec(kQ1) * cs * absdu);
    const sv::Pred compress = sv::cmplt(pg, du, sv::Vec(0.0));
    sv::st1(pg, s.qvisc.data() + q, sv::sel(compress, qv, sv::Vec(0.0)));
  }
}

}  // namespace

Outcome run_sedov(const Options& opt) {
  State s = make_state(opt.edge_elems);
  ThreadPool pool(opt.threads);
  const int n = s.n;

  const double e_total0 = kE0;  // all energy starts internal, zero kinetic

  const double ne_d = static_cast<double>(s.nelem());
  const auto nrows = static_cast<std::size_t>(s.nn) * static_cast<std::size_t>(s.nn);
  const auto nn_u = static_cast<std::size_t>(s.nn);

  // Resolve the native kinematics kernel once: both orchestrations then
  // run the identical backend, which the bit-identity equivalence test
  // relies on.
  KinematicsRowsFn* const kin_native = kKinematicsTable.resolve();

  std::vector<double> xd0(s.nnode()), yd0(s.nnode()), zd0(s.nnode());

  // Range bodies shared by the bulk-synchronous and task-graph paths.
  // Every loop is element- (or node-) independent and per-iteration
  // deterministic, and the dt reduction is an exact min fold, so the
  // results are bitwise independent of how the ranges are chunked —
  // which makes the two orchestrations bit-identical at every thread
  // count.
  auto geometry_range = [&](std::size_t b, std::size_t e) {
    for (std::size_t q = b; q < e; ++q) {
      const int i = static_cast<int>(q) / (n * n);
      const int j = (static_cast<int>(q) / n) % n;
      const int k = static_cast<int>(q) % n;
      elem_geometry(s, i, j, k);
    }
  };

  auto eos_range = [&](std::size_t b, std::size_t e) {
    if (opt.variant == Variant::kBase) {
      eos_base(s, b, e);
    } else {
      eos_vect(s, b, e);
    }
  };

  // Courant condition on compressed elements; min over the range.
  auto dt_min_range = [&](std::size_t b, std::size_t e) {
    double best = 1e9;
    for (std::size_t q = b; q < e; ++q) {
      const double rho = s.emass[q] / s.vol[q];
      const double cs = std::sqrt(kGamma * std::max(s.press[q], 1e-300) / rho);
      const double lq = std::cbrt(s.vol[q]);
      best = std::min(best, kCfl * lq / (cs + std::fabs(s.dvdt[q] / s.vol[q] * lq) + 1e-30));
    }
    return best;
  };

  auto copy_vel_rows = [&](std::size_t rb, std::size_t re) {
    const std::size_t b = rb * nn_u, e = re * nn_u;
    std::copy(s.xd.begin() + static_cast<std::ptrdiff_t>(b),
              s.xd.begin() + static_cast<std::ptrdiff_t>(e), xd0.begin() + static_cast<std::ptrdiff_t>(b));
    std::copy(s.yd.begin() + static_cast<std::ptrdiff_t>(b),
              s.yd.begin() + static_cast<std::ptrdiff_t>(e), yd0.begin() + static_cast<std::ptrdiff_t>(b));
    std::copy(s.zd.begin() + static_cast<std::ptrdiff_t>(b),
              s.zd.begin() + static_cast<std::ptrdiff_t>(e), zd0.begin() + static_cast<std::ptrdiff_t>(b));
  };

  // Nodal force gather + velocity/position update over node rows
  // [rb, re).  Row decomposition keeps element offsets contiguous along
  // k; disjoint rows make the parallel split race-free.
  auto kinematics_rows = [&](std::size_t rb, std::size_t re, double dt) {
    if (kin_native != nullptr) {
      kin_native(n, s.nn, dt, s.press.data(), s.qvisc.data(), s.bx.data(), s.by.data(),
                 s.bz.data(), s.nmass.data(), s.xd.data(), s.yd.data(), s.zd.data(), s.x.data(),
                 s.y.data(), s.z.data(), rb, re);
      return;
    }
    for (std::size_t g = rb * nn_u; g < re * nn_u; ++g) {
      const int i = static_cast<int>(g) / (s.nn * s.nn);
      const int j = (static_cast<int>(g) / s.nn) % s.nn;
      const int k = static_cast<int>(g) % s.nn;
      double fx = 0.0, fy = 0.0, fz = 0.0;
      for (int c = 0; c < 8; ++c) {
        const int ei = i - (c & 1), ej = j - ((c >> 1) & 1), ek = k - ((c >> 2) & 1);
        if (ei < 0 || ej < 0 || ek < 0 || ei >= n || ej >= n || ek >= n) continue;
        const std::size_t q = s.eidx(ei, ej, ek);
        const double sig = s.press[q] + s.qvisc[q];
        fx += sig * s.bx[q * 8 + static_cast<std::size_t>(c)];
        fy += sig * s.by[q * 8 + static_cast<std::size_t>(c)];
        fz += sig * s.bz[q * 8 + static_cast<std::size_t>(c)];
      }
      const double inv_m = 1.0 / s.nmass[g];
      s.xd[g] += dt * fx * inv_m;
      s.yd[g] += dt * fy * inv_m;
      s.zd[g] += dt * fz * inv_m;
      // Symmetry planes: zero normal velocity on i=0 / j=0 / k=0.
      if (i == 0) s.xd[g] = 0.0;
      if (j == 0) s.yd[g] = 0.0;
      if (k == 0) s.zd[g] = 0.0;
      s.x[g] += dt * s.xd[g];
      s.y[g] += dt * s.yd[g];
      s.z[g] += dt * s.zd[g];
    }
  };

  // Internal-energy update: dE = -(p+q) * grad(V) . v_mid * dt.  The
  // kinetic-energy gain per node is exactly F . v_mid * dt, so summing
  // the two conserves total energy to round-off.
  auto energy_range = [&](std::size_t b, std::size_t e, double dt) {
    for (std::size_t q = b; q < e; ++q) {
      const int i = static_cast<int>(q) / (n * n);
      const int j = (static_cast<int>(q) / n) % n;
      const int k = static_cast<int>(q) % n;
      const auto nd = s.elem_nodes(i, j, k);
      double work_rate = 0.0;
      for (int c = 0; c < 8; ++c) {
        const std::size_t g = nd[static_cast<std::size_t>(c)];
        work_rate += s.bx[q * 8 + static_cast<std::size_t>(c)] * 0.5 * (xd0[g] + s.xd[g]) +
                     s.by[q * 8 + static_cast<std::size_t>(c)] * 0.5 * (yd0[g] + s.yd[g]) +
                     s.bz[q * 8 + static_cast<std::size_t>(c)] * 0.5 * (zd0[g] + s.zd[g]);
      }
      s.energy[q] -= (s.press[q] + s.qvisc[q]) * work_rate * dt;
    }
  };

  WallTimer timer;
  int step = 0;
  if (opt.exec == taskgraph::Exec::kGraph && opt.max_steps > 0) {
    // Dependency-graph orchestration: ONE graph covers every phase of
    // every step, so the whole run pays a single fork/join and a chunk
    // of a phase starts as soon as the chunks it actually reads from
    // have finished.  The per-step CFL reduction is the one genuine
    // global fan-in; it conveniently serializes the step boundary, which
    // makes most cross-step anti-dependencies transitive.
    step = opt.max_steps;
    const auto steps_u = static_cast<std::size_t>(opt.max_steps);
    const std::size_t ce = taskgraph::default_chunks(opt.threads);  // element chunks
    std::vector<double> dts(steps_u, 0.0);             // dt of each step
    std::vector<double> dtpart(steps_u * ce, 1e9);     // per-chunk CFL partials
    const auto elem_ranges = taskgraph::TaskGraph::partition(0, s.nelem(), ce);

    // Consumer element chunk [b, e) -> the node rows its elements read
    // or write (elem plane i touches node planes i and i+1).
    const auto nsq = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    auto elems_to_rows = [nsq, nn_u](std::size_t b, std::size_t e) {
      const std::size_t pi0 = b / nsq;
      const std::size_t pi1 = (e - 1) / nsq;
      return std::make_pair(pi0 * nn_u, std::min(nn_u, pi1 + 2) * nn_u);
    };
    // Consumer node-row chunk [rb, re) -> the elements whose corner
    // nodes live in those rows (node plane i touches elem planes i-1, i).
    const auto n_u = static_cast<std::size_t>(n);
    auto rows_to_elems = [nsq, nn_u, n_u](std::size_t rb, std::size_t re) {
      const std::size_t i0 = rb / nn_u;
      const std::size_t i1 = (re - 1) / nn_u;
      return std::make_pair((i0 > 0 ? i0 - 1 : 0) * nsq, std::min(n_u, i1 + 1) * nsq);
    };

    taskgraph::TaskGraph g("lulesh/sedov");
    using Phase = taskgraph::TaskGraph::Phase;
    Phase prev_kin, prev_energy;
    for (int st = 0; st < opt.max_steps; ++st) {
      const auto su = static_cast<std::size_t>(st);
      Phase copy = g.add_phase("lulesh/copy_vel", 0, nrows, ce, copy_vel_rows);
      Phase geom = g.add_phase("lulesh/geometry", 0, s.nelem(), ce, geometry_range);
      Phase eos = g.add_phase("lulesh/eos", 0, s.nelem(), ce, eos_range);
      Phase dtp;
      dtp.first = 0;
      dtp.last = s.nelem();
      dtp.ranges = elem_ranges;
      for (std::size_t c = 0; c < elem_ranges.size(); ++c) {
        const auto [b, e] = elem_ranges[c];
        double* slot = &dtpart[su * ce + c];
        dtp.tasks.push_back(
            g.add("lulesh/dt_partial", [&dt_min_range, b = b, e = e, slot] { *slot = dt_min_range(b, e); }));
      }
      // Exact min fold in chunk order — bitwise equal to parallel_reduce
      // (min of doubles is always one of its inputs).
      const taskgraph::TaskId dtc =
          g.add("lulesh/dt_combine", [&, su, nparts = elem_ranges.size()] {
            double best = 1e9;
            for (std::size_t c = 0; c < nparts; ++c) best = std::min(best, dtpart[su * ce + c]);
            dts[su] = best;
          });
      Phase kin = g.add_phase("lulesh/kinematics", 0, nrows, ce,
                              [&, su](std::size_t rb, std::size_t re) {
                                kinematics_rows(rb, re, dts[su]);
                              });
      Phase energy = g.add_phase("lulesh/energy", 0, s.nelem(), ce,
                                 [&, su](std::size_t b, std::size_t e) {
                                   energy_range(b, e, dts[su]);
                                 });

      if (st > 0) {
        g.depend_1to1(prev_kin, copy);                     // copy reads xd/yd/zd
        g.depend_interval(prev_energy, copy, rows_to_elems);  // copy overwrites xd0 energy read
        g.depend_interval(prev_kin, geom, elems_to_rows);  // geometry reads x/xd
        g.depend_1to1(prev_energy, geom);                  // geometry overwrites b* energy read
      }
      g.depend_1to1(geom, eos);
      g.depend_1to1(eos, dtp);
      for (const taskgraph::TaskId t : dtp.tasks) g.add_edge(t, dtc);
      for (const taskgraph::TaskId t : kin.tasks) g.add_edge(dtc, t);
      g.depend_1to1(copy, kin);                            // kinematics overwrites xd copy read
      g.depend_interval(kin, energy, elems_to_rows);       // energy reads xd0/xd of its nodes
      prev_kin = kin;
      prev_energy = energy;
    }
    g.run(pool);
  } else {
  for (; step < opt.max_steps; ++step) {
    {
      // 24 position/velocity reads plus 27 geometry writes per element;
      // 6 tets x ~60 flops each.
      OOKAMI_TRACE_SCOPE_IO("lulesh/geometry", ne_d * 8.0 * 51.0, ne_d * 400.0);
      pool.parallel_for(0, s.nelem(),
                        [&](std::size_t b, std::size_t e, unsigned) { geometry_range(b, e); });
    }

    // EOS + artificial viscosity (the Table II Base/Vect distinction).
    {
      OOKAMI_TRACE_SCOPE_IO("lulesh/eos", ne_d * 8.0 * 7.0, ne_d * 40.0);
      pool.parallel_for(0, s.nelem(),
                        [&](std::size_t b, std::size_t e, unsigned) { eos_range(b, e); });
    }

    // Stable time step (Courant condition on compressed elements).
    double dt = 0.0;
    {
      OOKAMI_TRACE_SCOPE("lulesh/dt_reduce");
      dt = pool.parallel_reduce(
          0, s.nelem(), 1e9,
          [&](std::size_t b, std::size_t e, unsigned) { return dt_min_range(b, e); },
          [](double a, double b) { return std::min(a, b); });
    }

    // Nodal force gather + kinematics.  Node-centric accumulation over
    // the (up to 8) adjacent elements keeps the update race-free and
    // bitwise independent of the thread count.  Old velocities are kept
    // so the energy update below can use midpoint velocities, making
    // total-energy conservation exact by construction.
    {
      OOKAMI_TRACE_SCOPE("lulesh/copy_vel");
      pool.parallel_for(0, nrows,
                        [&](std::size_t rb, std::size_t re, unsigned) { copy_vel_rows(rb, re); });
    }
    {
      // Gather of up to 8 elements' (p+q, B) per node: indirection-heavy,
      // plainly memory-bound.
      OOKAMI_TRACE_SCOPE_IO("lulesh/kinematics",
                            static_cast<double>(s.nnode()) * 8.0 * (8.0 * 4.0 + 10.0),
                            static_cast<double>(s.nnode()) * 70.0);
      pool.parallel_for(0, nrows, [&](std::size_t rb, std::size_t re, unsigned) {
        kinematics_rows(rb, re, dt);
      });
    }

    OOKAMI_TRACE_SCOPE_IO("lulesh/energy", ne_d * 8.0 * (24.0 + 6.0 * 8.0), ne_d * 50.0);
    pool.parallel_for(0, s.nelem(),
                      [&](std::size_t b, std::size_t e, unsigned) { energy_range(b, e, dt); });
  }
  }
  const double seconds = timer.elapsed();

  double e_int = 0.0, e_kin = 0.0;
  for (std::size_t q = 0; q < s.nelem(); ++q) e_int += s.energy[q];
  for (std::size_t g = 0; g < s.nnode(); ++g) {
    e_kin += 0.5 * s.nmass[g] *
             (s.xd[g] * s.xd[g] + s.yd[g] * s.yd[g] + s.zd[g] * s.zd[g]);
  }

  // Octant symmetry: the problem is invariant under permuting the axes.
  double sym = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        const double a = s.energy[s.eidx(i, j, k)];
        const double b = s.energy[s.eidx(j, k, i)];
        sym = nan_max(sym, std::fabs(a - b));
      }
    }
  }

  Outcome out;
  out.seconds = seconds;
  out.steps = step;
  out.final_origin_energy = s.energy[s.eidx(0, 0, 0)];
  out.total_energy_drift = std::fabs(e_int + e_kin - e_total0) / e_total0;
  out.symmetry_error = sym / kE0;
  out.verified = out.total_energy_drift < 1e-7 && out.symmetry_error < 1e-12 &&
                 *std::min_element(s.vol.begin(), s.vol.end()) > 0.0;
  return out;
}

namespace {

/// Registry equivalence check: a short Sedov run under a forced backend
/// against the scalar path, compared on the origin-element energy plus
/// the verification flags.  The native kernel accumulates the 8-element
/// force gather in the same order as the reference loop, so the physics
/// should track to round-off; the bound absorbs fma contraction
/// differences across the step loop.
double check_kinematics(simd::Backend bk) {
  Options opt;
  opt.edge_elems = 8;
  opt.max_steps = 12;
  opt.variant = Variant::kVect;
  opt.threads = 1;
  Outcome ref, got;
  {
    simd::ScopedBackend force(simd::Backend::kScalar);
    ref = run_sedov(opt);
  }
  {
    simd::ScopedBackend force(bk);
    got = run_sedov(opt);
  }
  const double scale = std::max(std::fabs(ref.final_origin_energy), 1e-30);
  double worst = std::fabs(ref.final_origin_energy - got.final_origin_energy) / scale;
  worst = nan_max(worst, got.symmetry_error);
  if (!got.verified) worst = nan_max(worst, 1.0);
  return worst;
}

const dispatch::check_registrar kKinematicsCheck("lulesh.kinematics", &check_kinematics, 1e-10);

}  // namespace

perf::AppProfile table2_profile(Variant v) {
  // LULESH 1.0 at the paper's default problem size.  Base has almost no
  // vectorizable coverage (AoS + branchy EOS); the Vect port exposes
  // the element kernels to the vectorizer (done originally for Sandy
  // Bridge, so SIMD-friendly but not SVE-tuned).
  perf::AppProfile p;
  p.name = v == Variant::kBase ? "LULESH-base" : "LULESH-vect";
  // Calibrated to the Table II absolute scale (one LULESH 1.0 timed
  // section at the paper's default problem size).
  p.flops = 3.2e9;
  p.dram_bytes = 4.5e9;
  p.math_calls = 2.0e7;  // sqrt/cbrt in EOS and time-step control
  p.vec_fraction = v == Variant::kBase ? 0.10 : 0.55;
  p.serial_fraction = 0.004;
  p.parallel_regions = 400;
  p.random_access_fraction = 0.25;  // indirection through node lists
  return p;
}

}  // namespace ookami::lulesh
