#include <algorithm>
#include <cmath>
#include <cstring>

#include "ookami/common/aligned.hpp"
#include "ookami/common/rng.hpp"
#include "ookami/common/stats.hpp"
#include "ookami/common/timer.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/trace/trace.hpp"

// Pull the per-arch variant-registration TUs out of the static library.
#if defined(OOKAMI_SIMD_HAVE_AVX2)
OOKAMI_DISPATCH_USE_VARIANTS(gemm_avx2)
#endif
#if defined(OOKAMI_SIMD_HAVE_AVX512)
OOKAMI_DISPATCH_USE_VARIANTS(gemm_avx512)
#endif

namespace ookami::hpcc {

namespace {

// Packed cache-blocked C = A*B (row-major, n x n).  `pool` == nullptr
// means serial (kBlocked); non-null threads over row blocks (kTuned).
// Scalar resolution keeps gemm_blocked(), the original reference code.
using GemmPackedFn = void(std::size_t, const double*, const double*, double*, ThreadPool*);
const dispatch::kernel_table<GemmPackedFn> kGemmTable("hpcc.dgemm");

constexpr std::size_t kBlock = 64;  // cache block (64^2 doubles = 32 KB/panel)

void gemm_naive(std::size_t n, const double* a, const double* b, double* c) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += a[i * n + k] * b[k * n + j];
      c[i * n + j] = s;
    }
  }
}

/// One cache block: C[bi,bj] += A[bi,bk] * B[bk,bj], ikj loop order so
/// the inner loop streams B and C rows (vectorizable by the compiler).
void gemm_block(std::size_t n, const double* a, const double* b, double* c, std::size_t bi,
                std::size_t bj, std::size_t bk) {
  const std::size_t ie = std::min(bi + kBlock, n);
  const std::size_t je = std::min(bj + kBlock, n);
  const std::size_t ke = std::min(bk + kBlock, n);
  for (std::size_t i = bi; i < ie; ++i) {
    for (std::size_t k = bk; k < ke; ++k) {
      const double aik = a[i * n + k];
      const double* brow = b + k * n;
      double* crow = c + i * n;
      for (std::size_t j = bj; j < je; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_blocked(std::size_t n, const double* a, const double* b, double* c, ThreadPool* pool) {
  std::memset(c, 0, n * n * sizeof(double));
  const std::size_t nbi = (n + kBlock - 1) / kBlock;
  auto row_band = [&](std::size_t bi_idx) {
    const std::size_t bi = bi_idx * kBlock;
    for (std::size_t bk = 0; bk < n; bk += kBlock) {
      for (std::size_t bj = 0; bj < n; bj += kBlock) gemm_block(n, a, b, c, bi, bj, bk);
    }
  };
  if (pool == nullptr) {
    for (std::size_t bi = 0; bi < nbi; ++bi) row_band(bi);
  } else {
    // Row bands write disjoint parts of C: safe to run concurrently.
    pool->parallel_for(0, nbi, [&](std::size_t b0, std::size_t e0, unsigned) {
      for (std::size_t bi = b0; bi < e0; ++bi) row_band(bi);
    });
  }
}

}  // namespace

void dgemm(GemmImpl impl, std::size_t n, const double* a, const double* b, double* c,
           ThreadPool& pool) {
  // 2n^3 flop against 3n^2 matrix traffic: high arithmetic intensity,
  // the compute-bound corner of the roofline (naive forgoes blocking
  // and re-streams B, but the annotation records algorithmic traffic).
  const double n_d = static_cast<double>(n);
  OOKAMI_TRACE_SCOPE_IO("hpcc/dgemm", 3.0 * n_d * n_d * 8.0, 2.0 * n_d * n_d * n_d);
  // kBlocked/kTuned use the packed microkernel when "hpcc.dgemm"
  // resolves to a native variant; the scalar backend keeps the original
  // blocked reference code so baseline numbers stay comparable.
  GemmPackedFn* native = kGemmTable.resolve(n);
  switch (impl) {
    case GemmImpl::kNaive:
      gemm_naive(n, a, b, c);
      return;
    case GemmImpl::kBlocked:
      if (native != nullptr) {
        native(n, a, b, c, nullptr);
      } else {
        gemm_blocked(n, a, b, c, nullptr);
      }
      return;
    case GemmImpl::kTuned:
      if (native != nullptr) {
        native(n, a, b, c, &pool);
      } else {
        gemm_blocked(n, a, b, c, &pool);
      }
      return;
  }
}

namespace {

/// Registry equivalence check: blocked and pool-threaded tuned GEMM
/// under a forced backend against the scalar reference path.  n = 96
/// crosses the 64-wide cache-block boundary; the packed microkernel
/// reorders the k-accumulation, so the bound is absolute, not zero.
double check_gemm(simd::Backend bk) {
  const std::size_t n = 96;
  ThreadPool pool(2);
  avec<double> a(n * n), b(n * n), ref(n * n), got(n * n);
  Xoshiro256 rng(2027);
  fill_uniform({a.data(), a.size()}, -1.0, 1.0, rng);
  fill_uniform({b.data(), b.size()}, -1.0, 1.0, rng);
  double worst = 0.0;
  for (GemmImpl impl : {GemmImpl::kBlocked, GemmImpl::kTuned}) {
    {
      simd::ScopedBackend force(simd::Backend::kScalar);
      dgemm(impl, n, a.data(), b.data(), ref.data(), pool);
    }
    {
      simd::ScopedBackend force(bk);
      dgemm(impl, n, a.data(), b.data(), got.data(), pool);
    }
    for (std::size_t i = 0; i < n * n; ++i) {
      worst = nan_max(worst, std::fabs(ref[i] - got[i]));
    }
  }
  return worst;
}

const dispatch::check_registrar kGemmCheck("hpcc.dgemm", &check_gemm, 1e-10);

/// Calibration probe: serial packed GEMM at a clamped matrix dimension
/// (the full caller size would make first-touch calibration cost O(n^3)
/// per candidate; the micro-tile ranking is stable above ~2 cache
/// blocks).  The ScopedBackend both forces the probed variant and keeps
/// the inner resolve() from re-entering the autotuner.
double tune_gemm(simd::Backend bk, std::size_t n) {
  const std::size_t m = std::clamp<std::size_t>(n, 32, 192);
  avec<double> a(m * m), b(m * m), c(m * m);
  Xoshiro256 rng(4242);
  fill_uniform({a.data(), a.size()}, -1.0, 1.0, rng);
  fill_uniform({b.data(), b.size()}, -1.0, 1.0, rng);
  simd::ScopedBackend force(bk);
  GemmPackedFn* native = kGemmTable.resolve(m);
  auto run = [&] {
    if (native != nullptr) {
      native(m, a.data(), b.data(), c.data(), nullptr);
    } else {
      gemm_blocked(m, a.data(), b.data(), c.data(), nullptr);
    }
  };
  for (std::size_t reps = 1;; reps *= 4) {
    WallTimer t;
    for (std::size_t r = 0; r < reps; ++r) run();
    const double dt = t.elapsed();
    if (dt > 20e-6 || reps > (std::size_t{1} << 10)) {
      return dt / static_cast<double>(reps);
    }
  }
}

const dispatch::tune_registrar kGemmTune("hpcc.dgemm", &tune_gemm);

/// Cost of one tune_gemm probe: 2m^3 flops over m x m operands.  At the
/// probe sizes (<= 192) the matrices fit in cache, so the traffic floor
/// is one pass over a and b plus a read-modify-write of c.
dispatch::TuneCost cost_gemm(std::size_t n) {
  const auto m = static_cast<double>(std::clamp<std::size_t>(n, 32, 192));
  return {m * m * 32.0, 2.0 * m * m * m};
}

const dispatch::cost_registrar kGemmCost("hpcc.dgemm", &cost_gemm);

}  // namespace

double dgemm_check(GemmImpl impl, std::size_t n, unsigned threads) {
  ThreadPool pool(threads);
  avec<double> a(n * n), b(n * n), c(n * n), ref(n * n);
  Xoshiro256 rng(99);
  fill_uniform({a.data(), a.size()}, -1.0, 1.0, rng);
  fill_uniform({b.data(), b.size()}, -1.0, 1.0, rng);
  gemm_naive(n, a.data(), b.data(), ref.data());
  dgemm(impl, n, a.data(), b.data(), c.data(), pool);
  double worst = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) worst = nan_max(worst, std::fabs(c[i] - ref[i]));
  return worst;
}

}  // namespace ookami::hpcc
