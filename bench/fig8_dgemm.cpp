// Figure 8: embarrassingly-parallel DGEMM GF/s per core across systems
// and libraries, with percent-of-peak annotations.  The executable
// DGEMM tiers are timed on the host first (the library-quality axis in
// miniature); the cross-system figure uses the calibrated efficiency
// table.

#include <cstdio>
#include <tuple>

#include "ookami/common/aligned.hpp"
#include "ookami/common/rng.hpp"
#include "ookami/common/table.hpp"
#include "ookami/harness/harness.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/report/report.hpp"

using namespace ookami;
using hpcc::GemmImpl;

OOKAMI_BENCH(fig8_dgemm) {
  std::printf("Fig. 8 — DGEMM GF/s per core (EP-DGEMM), systems x libraries\n\n");

  // Host demonstration of the library-quality axis, timed under the
  // harness repeat protocol.
  const std::size_t n = 256;
  ThreadPool pool(2);
  avec<double> a(n * n), b(n * n), c(n * n);
  Xoshiro256 rng(1);
  fill_uniform({a.data(), a.size()}, -1.0, 1.0, rng);
  fill_uniform({b.data(), b.size()}, -1.0, 1.0, rng);
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  for (auto [impl, tag, name] :
       {std::tuple{GemmImpl::kNaive, "naive", "naive (unoptimized reference)"},
        std::tuple{GemmImpl::kBlocked, "blocked", "blocked (OpenBLAS-no-SVE tier)"},
        std::tuple{GemmImpl::kTuned, "tuned", "blocked+threads (vendor tier)"}}) {
    const auto& s = run.time("host/dgemm-" + std::string(tag),
                             [&] { hpcc::dgemm(impl, n, a.data(), b.data(), c.data(), pool); });
    const double gfs = flops / s.median() / 1e9;
    std::printf("  host dgemm n=%zu %-32s %7.2f GF/s\n", n, name, gfs);
    run.record("host/dgemm-" + std::string(tag) + "/gflops", gfs, "GF/s",
               harness::Direction::kHigherIsBetter);
  }
  std::printf("\n");

  BarChart chart("DGEMM GF/s per core (parenthesis: % of peak)", 45);
  double fj = 0.0, ob = 0.0, skx = 0.0, zen = 0.0;
  for (const auto& pt : hpcc::fig8_dgemm_points()) {
    const double gf = hpcc::point_gflops_per_core(pt);
    chart.add(pt.system + "/" + pt.library, gf,
              std::string("(").append(TextTable::num(100.0 * pt.fraction_of_peak, 0)).append("%)"));
    run.record(pt.system + "/" + pt.library, gf, "GF/s", harness::Direction::kHigherIsBetter);
    if (pt.system == "Ookami" && pt.library == "fujitsu-blas") fj = gf;
    if (pt.system == "Ookami" && pt.library == "openblas") ob = gf;
    if (pt.system == "Stampede2-SKX") skx = gf;
    if (pt.system == "Bridges2-Zen2") zen = gf;
  }
  std::printf("%s\n", chart.str().c_str());

  const std::vector<report::ClaimCheck> claims = {
      {"fig8/fujitsu-pct", "Fujitsu BLAS at 71% of A64FX peak", 0.71 * 57.6, fj, 1.05},
      {"fig8/openblas-ratio", "Fujitsu ~14x OpenBLAS", 14.0, fj / ob, 1.2},
      {"fig8/skx-parity", "A64FX core ~ SKX core", 1.0, fj / skx, 1.2},
      {"fig8/zen2-ratio", "A64FX core ~1.6x Zen2 core", 1.6, fj / zen, 1.2},
  };
  run.check("Figure 8", claims);
  return 0;
}
