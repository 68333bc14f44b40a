#include "ookami/npb/cg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "ookami/common/stats.hpp"
#include "ookami/common/timer.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/npb/randdp.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/trace/trace.hpp"

// Pull the per-arch variant-registration TUs out of the static library.
#if defined(OOKAMI_SIMD_HAVE_AVX2)
OOKAMI_DISPATCH_USE_VARIANTS(cg_avx2)
#endif
#if defined(OOKAMI_SIMD_HAVE_AVX512)
OOKAMI_DISPATCH_USE_VARIANTS(cg_avx512)
#endif

namespace ookami::npb {

namespace {

constexpr double kRcond = 0.1;
constexpr int kCgIterations = 25;

// y[row] = sum_k a[k] * x[colidx[k]] for rows in [row_begin, row_end).
// Native variants use 4-lane partial sums whose lane reduction reorders
// the per-row sum; scalar resolution keeps the original row loop below.
using SpmvRangeFn = void(const int*, const int*, const double*, const double*, double*,
                         std::size_t, std::size_t);
const dispatch::kernel_table<SpmvRangeFn> kSpmvTable("npb.cg.spmv");

/// NPB LCG stream used by makea (tran/amult in the reference).
struct MakeaRng {
  double tran = 314159265.0;
  double next() { return randlc(tran, kNpbA); }
};

int icnvrt(double x, int ipwr2) { return static_cast<int>(ipwr2 * x); }

/// Random sparse vector with `nz` distinct nonzero locations in [0, n).
void sprnvc(MakeaRng& rng, int n, int nz, std::vector<double>& v, std::vector<int>& iv,
            std::vector<int>& mark, std::vector<int>& marked_list) {
  int nn1 = 1;
  while (nn1 < n) nn1 <<= 1;

  v.clear();
  iv.clear();
  marked_list.clear();
  while (static_cast<int>(v.size()) < nz) {
    const double vecelt = rng.next();
    const double vecloc = rng.next();
    const int i = icnvrt(vecloc, nn1);
    if (i >= n) continue;
    if (mark[static_cast<std::size_t>(i)] == 0) {
      mark[static_cast<std::size_t>(i)] = 1;
      marked_list.push_back(i);
      v.push_back(vecelt);
      iv.push_back(i);
    }
  }
  for (int i : marked_list) mark[static_cast<std::size_t>(i)] = 0;
}

/// Force element `i` of the sparse vector to `val`.
void vecset(std::vector<double>& v, std::vector<int>& iv, int i, double val) {
  for (std::size_t k = 0; k < iv.size(); ++k) {
    if (iv[k] == i) {
      v[k] = val;
      return;
    }
  }
  v.push_back(val);
  iv.push_back(i);
}

}  // namespace

CgSpec cg_spec(Class cls) {
  switch (cls) {
    case Class::kS: return {1400, 7, 15, 10.0, 8.5971775078648};
    case Class::kW: return {7000, 8, 15, 12.0, 10.362595087124};
    case Class::kA: return {14000, 11, 15, 20.0, 17.130235054029};
    case Class::kB: return {75000, 13, 75, 60.0, 22.712745482631};
    case Class::kC: return {150000, 15, 75, 110.0, 28.973605592845};
  }
  std::abort();
}

CsrMatrix cg_makea(int na, int nonzer, double shift) {
  OOKAMI_TRACE_SCOPE("cg/makea");
  MakeaRng rng;
  (void)rng.next();  // the reference draws one zeta seed before makea

  // The n random sparse vectors, drawn in sequence and flattened: vector
  // o is elements [first[o], first[o+1]) of idx/val, and its outer
  // product is weighted by weight[o], decaying geometrically from 1 to
  // rcond.
  const auto n = static_cast<std::size_t>(na);
  std::vector<int> idx;
  std::vector<double> val;
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<double> weight(n);
  {
    const double ratio = std::pow(kRcond, 1.0 / static_cast<double>(na));
    double size = 1.0;
    std::vector<double> v;
    std::vector<int> iv;
    std::vector<int> mark(n, 0);
    std::vector<int> marked_list;
    for (int iouter = 0; iouter < na; ++iouter) {
      sprnvc(rng, na, nonzer, v, iv, mark, marked_list);
      vecset(v, iv, iouter, 0.5);
      idx.insert(idx.end(), iv.begin(), iv.end());
      val.insert(val.end(), v.begin(), v.end());
      first[static_cast<std::size_t>(iouter) + 1] = idx.size();
      weight[static_cast<std::size_t>(iouter)] = size;
      size *= ratio;
    }
  }

  // The reference generates the entries vector by vector: for each
  // element j of vector o, column idx[j] of its outer product, entries
  // (idx[i], idx[j], val[i] * (weight[o] * val[j])) over o's elements i;
  // then the shifted identity (r, r, rcond - shift).  Its sparse() sums
  // each (row, col) from 0.0 in that generation order.  Two stable
  // counting sorts give every row sorted by column with that order kept.

  // Sort 1: the elements by index.  Column c is, in generation order, the
  // vectors by_col[q].vec scaled by by_col[q].scale for q in
  // [col_start[c], col_start[c+1]), then its diagonal.
  struct ScaledVector {
    std::size_t vec;
    double scale;
  };
  std::vector<std::size_t> col_start(n + 1, 0);
  for (int i : idx) ++col_start[static_cast<std::size_t>(i) + 1];
  for (std::size_t c = 0; c < n; ++c) col_start[c + 1] += col_start[c];
  std::vector<ScaledVector> by_col(idx.size());
  std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t j = first[o]; j < first[o + 1]; ++j) {
      by_col[fill[static_cast<std::size_t>(idx[j])]++] = {o, weight[o] * val[j]};
    }
  }

  // Sort 2: the entries by row, generated column by column in ascending
  // order.  An outer product is symmetric in structure, so row r holds
  // one entry per element of each vector r occurs in, plus its diagonal.
  std::vector<std::size_t> row_start(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t count = 1;
    for (std::size_t q = col_start[r]; q < col_start[r + 1]; ++q) {
      count += first[by_col[q].vec + 1] - first[by_col[q].vec];
    }
    row_start[r + 1] = row_start[r] + count;
  }
  std::vector<int> colidx(row_start[n]);
  std::vector<double> a(row_start[n]);
  fill.assign(row_start.begin(), row_start.end() - 1);
  const auto put = [&](std::size_t row, std::size_t col, double value) {
    const std::size_t slot = fill[row]++;
    colidx[slot] = static_cast<int>(col);
    a[slot] = value;
  };
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t q = col_start[col]; q < col_start[col + 1]; ++q) {
      const auto [o, scale] = by_col[q];
      for (std::size_t i = first[o]; i < first[o + 1]; ++i) {
        put(static_cast<std::size_t>(idx[i]), col, val[i] * scale);
      }
    }
    put(col, col, kRcond - shift);
  }

  // Sum each run of equal columns, compacting in place.
  CsrMatrix m;
  m.n = na;
  m.rowstr.assign(n + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t e = row_start[r]; e < row_start[r + 1];) {
      const int col = colidx[e];
      double sum = 0.0;
      for (; e < row_start[r + 1] && colidx[e] == col; ++e) sum += a[e];
      colidx[nnz] = col;
      a[nnz] = sum;
      ++nnz;
    }
    m.rowstr[r + 1] = static_cast<int>(nnz);
  }
  colidx.resize(nnz);
  a.resize(nnz);
  m.colidx = std::move(colidx);
  m.a = std::move(a);
  return m;
}

void spmv(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& y,
          ThreadPool& pool) {
  // 2 flop per nonzero against 12 B (value + column index) of matrix
  // traffic plus the dense y write: the classic ~1/6 flop/B CSR SpMV.
  OOKAMI_TRACE_SCOPE_IO("cg/spmv",
                        12.0 * static_cast<double>(a.nnz()) + 8.0 * static_cast<double>(a.n),
                        2.0 * static_cast<double>(a.nnz()));
  // Resolve once, outside the pool: the worker threads must all run the
  // same variant, and resolution is cheapest on the calling thread.
  SpmvRangeFn* native = kSpmvTable.resolve();
  pool.parallel_for(0, static_cast<std::size_t>(a.n), [&](std::size_t b, std::size_t e, unsigned) {
    if (native != nullptr) {
      native(a.rowstr.data(), a.colidx.data(), a.a.data(), x.data(), y.data(), b, e);
      return;
    }
    for (std::size_t row = b; row < e; ++row) {
      double sum = 0.0;
      for (int k = a.rowstr[row]; k < a.rowstr[row + 1]; ++k) {
        sum += a.a[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(a.colidx[static_cast<std::size_t>(k)])];
      }
      y[row] = sum;
    }
  });
}

namespace {

/// Registry equivalence check: SpMV on a small makea matrix under a
/// forced backend against the scalar row loop, reported as worst
/// per-row relative error.  The 4-lane partial sums reorder each row's
/// accumulation, so the bound is a small relative tolerance, not zero.
double check_spmv(simd::Backend bk) {
  const CsrMatrix a = cg_makea(600, 8, 12.0);
  std::vector<double> x(static_cast<std::size_t>(a.n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.37 * static_cast<double>(i + 1));
  }
  std::vector<double> ref(x.size(), 0.0), got(x.size(), 0.0);
  ThreadPool pool(1);
  {
    simd::ScopedBackend force(simd::Backend::kScalar);
    spmv(a, x, ref, pool);
  }
  {
    simd::ScopedBackend force(bk);
    spmv(a, x, got, pool);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale = std::max(std::fabs(ref[i]), 1.0);
    worst = nan_max(worst, std::fabs(ref[i] - got[i]) / scale);
  }
  return worst;
}

const dispatch::check_registrar kSpmvCheck("npb.cg.spmv", &check_spmv, 1e-12);

double dot(const std::vector<double>& x, const std::vector<double>& y, ThreadPool& pool) {
  OOKAMI_TRACE_SCOPE_IO("cg/dot", 16.0 * static_cast<double>(x.size()),
                        2.0 * static_cast<double>(x.size()));
  return pool.parallel_reduce(
      0, x.size(), 0.0,
      [&](std::size_t b, std::size_t e, unsigned) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) s += x[i] * y[i];
        return s;
      },
      [](double a, double b) { return a + b; });
}

/// One NPB conj_grad call: approximately solve A z = x, return ||r||.
double conj_grad(const CsrMatrix& a, const std::vector<double>& x, std::vector<double>& z,
                 ThreadPool& pool) {
  OOKAMI_TRACE_SCOPE("cg/conj_grad");
  const std::size_t n = x.size();
  std::vector<double> r = x;
  std::vector<double> p = r;
  std::vector<double> q(n, 0.0);
  std::fill(z.begin(), z.end(), 0.0);

  double rho = dot(r, r, pool);
  for (int it = 0; it < kCgIterations; ++it) {
    spmv(a, p, q, pool);
    const double alpha = rho / dot(p, q, pool);
    const double rho0 = rho;
    pool.parallel_for(0, n, [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t i = b; i < e; ++i) {
        z[i] += alpha * p[i];
        r[i] -= alpha * q[i];
      }
    });
    rho = dot(r, r, pool);
    const double beta = rho / rho0;
    pool.parallel_for(0, n, [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t i = b; i < e; ++i) p[i] = r[i] + beta * p[i];
    });
  }
  // Residual of the returned solution: ||x - A z||.
  spmv(a, z, q, pool);
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - q[i];
    norm += d * d;
  }
  return std::sqrt(norm);
}

}  // namespace

Result run_cg(Class cls, unsigned threads) {
  const CgSpec spec = cg_spec(cls);
  Result res;
  res.benchmark = Benchmark::kCG;
  res.cls = cls;

  const CsrMatrix a = cg_makea(spec.na, spec.nonzer, spec.shift);
  ThreadPool pool(threads);

  const auto n = static_cast<std::size_t>(spec.na);
  std::vector<double> x(n, 1.0);
  std::vector<double> z(n, 0.0);

  // Untimed warm-up iteration, then reset x (as the reference does).
  (void)conj_grad(a, x, z, pool);
  std::fill(x.begin(), x.end(), 1.0);

  WallTimer timer;
  double zeta = 0.0;
  double rnorm = 0.0;
  for (int it = 0; it < spec.niter; ++it) {
    rnorm = conj_grad(a, x, z, pool);
    const double xz = dot(x, z, pool);
    const double zz = dot(z, z, pool);
    zeta = spec.shift + 1.0 / xz;
    const double inv_norm = 1.0 / std::sqrt(zz);
    for (std::size_t i = 0; i < n; ++i) x[i] = inv_norm * z[i];
  }
  res.seconds = timer.elapsed();
  res.check_value = zeta;
  res.verified = std::fabs(zeta - spec.ref_zeta) <= 1e-10 * std::fabs(spec.ref_zeta) + 1e-9;
  res.detail = "zeta vs official NPB verification value (rnorm=" + std::to_string(rnorm) + ")";
  const double flops_per_outer =
      static_cast<double>(kCgIterations) * (2.0 * static_cast<double>(a.nnz()) + 10.0 * static_cast<double>(n));
  res.mops = spec.niter * flops_per_outer / res.seconds / 1e6;
  return res;
}

}  // namespace ookami::npb
