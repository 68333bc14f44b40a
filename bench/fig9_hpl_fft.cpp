// Figure 9: (A) HPL single-node GF/s across libraries, (B) HPL
// multi-node scaling under Fujitsu MPI vs OpenMPI/ARMPL, (C) FFT
// single-node GF/s across libraries, (D) FFT multi-node scaling.
// Executable HPL and FFT are verified on the host first; cross-system
// and multi-node numbers come from the efficiency tables and netsim.

#include <cstdio>

#include "ookami/common/table.hpp"
#include "ookami/harness/harness.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/report/report.hpp"

using namespace ookami;

OOKAMI_BENCH(fig9_hpl_fft) {
  std::printf("Fig. 9 — HPL and FFT performance\n\n");

  // Host verification.
  const auto hpl = hpcc::hpl_solve(200, 32, 2);
  std::printf("  host HPL n=200: %s (scaled residual %.3f, %.2f GF/s host)\n",
              hpl.verified ? "VERIFIED" : "FAILED", hpl.residual_norm, hpl.gflops);
  run.record("host/hpl-n200/gflops", hpl.gflops, "GF/s", harness::Direction::kHigherIsBetter);
  {
    ThreadPool pool(2);
    std::vector<hpcc::cplx> v(1 << 14);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = {std::cos(0.1 * i), std::sin(0.07 * i)};
    auto w = v;
    hpcc::fft(w, false, pool);
    hpcc::fft(w, true, pool);
    double worst = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) worst = std::max(worst, std::abs(w[i] - v[i]));
    std::printf("  host FFT n=%zu: round-trip max error %.2e\n\n", v.size(), worst);
    run.record("host/fft-roundtrip-max-error", worst, "abs");
  }

  // (A) HPL single node.
  BarChart hpl_chart("Fig. 9A — HPL GF/s per node (parenthesis: % of peak)", 45);
  hpcc::LibraryPoint fj_hpl{"Ookami", "fujitsu-blas", 0.0};
  double fj = 0.0, ob = 0.0;
  for (const auto& pt : hpcc::fig9a_hpl_points()) {
    const double gf = hpcc::system_model(pt.system).peak_gflops_node() * pt.fraction_of_peak;
    hpl_chart.add(pt.system + "/" + pt.library, gf,
                  std::string("(")
                      .append(TextTable::num(100.0 * pt.fraction_of_peak, 0))
                      .append("%)"));
    run.record("hpl/" + pt.system + "/" + pt.library, gf, "GF/s",
               harness::Direction::kHigherIsBetter);
    if (pt.system == "Ookami" && pt.library == "fujitsu-blas") {
      fj = gf;
      fj_hpl = pt;
    }
    if (pt.system == "Ookami" && pt.library == "openblas") ob = gf;
  }
  std::printf("%s\n", hpl_chart.str().c_str());

  // (B) HPL multi-node.
  GroupedSeries hpl_scale("Fig. 9B — HPL GF/s, weak scaling N=20000*sqrt(nodes)", "nodes");
  for (int nodes : {1, 2, 4, 8}) {
    hpl_scale.set(std::to_string(nodes), "fujitsu-blas+fujitsu-mpi",
                  hpcc::hpl_multinode_gflops(fj_hpl, netsim::fujitsu_mpi(), nodes));
    hpl_scale.set(std::to_string(nodes), "armpl+openmpi",
                  hpcc::hpl_multinode_gflops({"Ookami", "armpl", 0.45},
                                             netsim::openmpi_armpl(), nodes));
  }
  std::printf("%s\n", hpl_scale.table(0).c_str());
  write_file(report::artifact_path("fig9b_hpl_scaling.csv"), hpl_scale.csv());
  run.record_grouped(hpl_scale, "GF/s", harness::Direction::kHigherIsBetter);

  // (C) FFT single node.
  BarChart fft_chart("Fig. 9C — FFT GF/s per node (parenthesis: % of peak)", 45);
  hpcc::LibraryPoint fj_fft{"Ookami", "fujitsu-fftw", 0.0};
  double fjf = 0.0, fw = 0.0;
  for (const auto& pt : hpcc::fig9c_fft_points()) {
    const double gf = hpcc::system_model(pt.system).peak_gflops_node() * pt.fraction_of_peak;
    fft_chart.add(pt.system + "/" + pt.library, gf,
                  std::string("(")
                      .append(TextTable::num(100.0 * pt.fraction_of_peak, 1))
                      .append("%)"));
    run.record("fft/" + pt.system + "/" + pt.library, gf, "GF/s",
               harness::Direction::kHigherIsBetter);
    if (pt.system == "Ookami" && pt.library == "fujitsu-fftw") {
      fjf = gf;
      fj_fft = pt;
    }
    if (pt.system == "Ookami" && pt.library == "fftw") fw = gf;
  }
  std::printf("%s\n", fft_chart.str().c_str());

  // (D) FFT multi-node.
  GroupedSeries fft_scale("Fig. 9D — FFT GF/s, weak scaling V=20000^2*nodes", "nodes");
  for (int nodes : {1, 2, 4, 8}) {
    fft_scale.set(std::to_string(nodes), "fujitsu-fftw+fujitsu-mpi",
                  hpcc::fft_multinode_gflops(fj_fft, netsim::fujitsu_mpi(), nodes));
    fft_scale.set(std::to_string(nodes), "fftw+openmpi",
                  hpcc::fft_multinode_gflops({"Ookami", "fftw", 0.0052},
                                             netsim::openmpi_armpl(), nodes));
  }
  std::printf("%s\n", fft_scale.table(0).c_str());
  write_file(report::artifact_path("fig9d_fft_scaling.csv"), fft_scale.csv());
  run.record_grouped(fft_scale, "GF/s", harness::Direction::kHigherIsBetter);

  const double fj8 = hpcc::hpl_multinode_gflops(fj_hpl, netsim::fujitsu_mpi(), 8);
  const double arm8 = hpcc::hpl_multinode_gflops({"Ookami", "armpl", 0.45},
                                                 netsim::openmpi_armpl(), 8);
  const double fft1 = hpcc::fft_multinode_gflops(fj_fft, netsim::fujitsu_mpi(), 1);
  const double fft8 = hpcc::fft_multinode_gflops(fj_fft, netsim::fujitsu_mpi(), 8);
  const std::vector<report::ClaimCheck> claims = {
      {"fig9a/openblas-ratio", "Fujitsu HPL ~10x OpenBLAS", 10.0, fj / ob, 1.2},
      {"fig9b/fujitsu-scaling", "Fujitsu MPI efficiency at 8 nodes well below 1", 0.45,
       fj8 / (8.0 * hpcc::hpl_multinode_gflops(fj_hpl, netsim::fujitsu_mpi(), 1)), 1.8},
      {"fig9b/armpl-better", "ARMPL/OpenMPI outscales Fujitsu at 8 nodes", 1.5, arm8 / fj8,
       2.0},
      {"fig9c/fftw-ratio", "Fujitsu FFTW 4.2x plain FFTW", 4.2, fjf / fw, 1.2},
      {"fig9d/flat", "multi-node FFT relatively flat (8-node speedup << 8)", 2.0, fft8 / fft1,
       2.0},
  };
  run.check("Figure 9", claims);
  return 0;
}
