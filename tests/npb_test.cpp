// NPB reimplementation tests: the NPB LCG, EP/CG against the *official*
// verification values, solver convergence for BT/SP/LU, UA conservation,
// and thread-count invariance of every kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "ookami/common/rng.hpp"
#include "ookami/npb/cg.hpp"
#include "ookami/npb/ep.hpp"
#include "ookami/npb/grid.hpp"
#include "ookami/npb/npb.hpp"
#include "ookami/npb/randdp.hpp"
#include "ookami/npb/sp.hpp"
#include "ookami/taskgraph/taskgraph.hpp"

namespace ookami::npb {
namespace {

// --- randlc ------------------------------------------------------------------

TEST(Randlc, ProducesValuesInUnitInterval) {
  double x = kNpbSeed;
  for (int i = 0; i < 10000; ++i) {
    const double u = randlc(x, kNpbA);
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Randlc, StateIsExact46BitInteger) {
  double x = kNpbSeed;
  for (int i = 0; i < 1000; ++i) {
    randlc(x, kNpbA);
    EXPECT_EQ(x, std::floor(x));
    EXPECT_LT(x, 0x1.0p46);
    EXPECT_GE(x, 0.0);
  }
}

TEST(Randlc, Ipow46MatchesRepeatedApplication) {
  // a^k mod 2^46 computed by skip-ahead equals k sequential steps.
  for (std::uint64_t k : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    double x = 1.0;
    for (std::uint64_t i = 0; i < k; ++i) randlc(x, kNpbA);
    EXPECT_EQ(ipow46(kNpbA, k), x) << "k=" << k;
  }
}

TEST(Randlc, SkipAheadPartitionsTheStream) {
  // Advancing the seed by a^n must land where n draws land.
  double x = kNpbSeed;
  for (int i = 0; i < 64; ++i) randlc(x, kNpbA);
  double y = kNpbSeed;
  const double an = ipow46(kNpbA, 64);
  randlc(y, an);
  EXPECT_EQ(x, y);
}

// The split-double multiply of the NPB Fortran/C randlc: a and x split
// into 23-bit halves so that every product is an exact double.  Kept
// here as the reference the integer form must reproduce.
double split_double_randlc(double& x, double a) {
  constexpr double r23 = 0x1.0p-23;
  constexpr double r46 = 0x1.0p-46;
  constexpr double t23 = 0x1.0p+23;
  constexpr double t46 = 0x1.0p+46;
  const double a1 = static_cast<double>(static_cast<long long>(r23 * a));
  const double a2 = a - t23 * a1;
  const double x1 = static_cast<double>(static_cast<long long>(r23 * x));
  const double x2 = x - t23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = static_cast<double>(static_cast<long long>(r23 * t1));
  const double z = t1 - t23 * t2;
  const double t3 = t23 * z + a2 * x2;
  const double t4 = static_cast<double>(static_cast<long long>(r46 * t3));
  x = t3 - t46 * t4;
  return r46 * x;
}

TEST(Randlc, IntegerFormMatchesSplitDoubleReference) {
  // Chained draws from the NPB seeds, as EP and CG draw them.
  for (const double seed : {kNpbSeed, 314159265.0, 1.0}) {
    double x = seed;
    double ref = seed;
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const double u = randlc(x, kNpbA);
      const double r = split_double_randlc(ref, kNpbA);
      if (std::bit_cast<std::uint64_t>(u) != std::bit_cast<std::uint64_t>(r) ||
          std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(ref)) {
        ++mismatches;
        x = ref;  // keep both chains on the reference state
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed=" << seed;
  }
  // Arbitrary (a, x) below 2^46, as ipow46 and EP's skip-ahead square
  // them, plus the extremes.
  SplitMix64 rng(46);
  auto next46 = [&rng] {
    return static_cast<double>(rng.next() & ((std::uint64_t{1} << 46) - 1));
  };
  std::vector<std::pair<double, double>> pairs = {
      {0.0, 0.0}, {1.0, 0x1.0p46 - 1.0}, {0x1.0p46 - 1.0, 0x1.0p46 - 1.0}, {kNpbA, 0.0}};
  for (int i = 0; i < 1'000'000; ++i) pairs.emplace_back(next46(), next46());
  std::size_t mismatches = 0;
  for (const auto& [a, x0] : pairs) {
    double x = x0;
    double ref = x0;
    const double u = randlc(x, a);
    const double r = split_double_randlc(ref, a);
    if (std::bit_cast<std::uint64_t>(u) != std::bit_cast<std::uint64_t>(r) ||
        std::bit_cast<std::uint64_t>(x) != std::bit_cast<std::uint64_t>(ref)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << pairs.size() << " (a, x) pairs";
}

// --- EP ----------------------------------------------------------------------

TEST(Ep, ClassSMatchesOfficialVerification) {
  const Result r = run_ep(Class::kS, 2);
  EXPECT_TRUE(r.verified) << r.detail;
}

TEST(Ep, ThreadCountInvariance) {
  const EpOutput a = ep_kernel(20, 1);
  const EpOutput b = ep_kernel(20, 3);
  EXPECT_EQ(a.sx, b.sx);  // bitwise: the skip-ahead partition is exact
  EXPECT_EQ(a.sy, b.sy);
  for (int l = 0; l < 10; ++l) EXPECT_EQ(a.counts[l], b.counts[l]);
}

TEST(Ep, AcceptanceRateIsPiOver4) {
  const EpOutput out = ep_kernel(20, 2);
  const double pairs = std::pow(2.0, 20);
  EXPECT_NEAR(out.gc / pairs, M_PI / 4.0, 0.01);
}

TEST(Ep, AnnulusCountsDecay) {
  // Gaussian deviates concentrate near the origin: q[l] decreasing.
  const EpOutput out = ep_kernel(20, 2);
  for (int l = 1; l < 5; ++l) EXPECT_LT(out.counts[l], out.counts[l - 1]);
}

// --- CG ----------------------------------------------------------------------

TEST(Cg, ClassSMatchesOfficialZeta) {
  const Result r = run_cg(Class::kS, 2);
  EXPECT_TRUE(r.verified) << "zeta=" << r.check_value << " " << r.detail;
  EXPECT_NEAR(r.check_value, 8.5971775078648, 1e-9);
}

TEST(Cg, ThreadCountDoesNotChangeVerification) {
  const Result a = run_cg(Class::kS, 1);
  const Result b = run_cg(Class::kS, 4);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  // Reduction order differs across thread counts; zeta agrees to ~1e-11.
  EXPECT_NEAR(a.check_value, b.check_value, 1e-9);
}

TEST(Cg, MakeaStructure) {
  const CgSpec spec = cg_spec(Class::kS);
  const CsrMatrix m = cg_makea(spec.na, spec.nonzer, spec.shift);
  EXPECT_EQ(m.n, spec.na);
  EXPECT_EQ(m.rowstr.size(), static_cast<std::size_t>(spec.na) + 1);
  EXPECT_EQ(m.rowstr.front(), 0);
  EXPECT_EQ(static_cast<std::size_t>(m.rowstr.back()), m.nnz());
  // Row offsets monotone; column indices sorted and in range per row.
  for (int r = 0; r < m.n; ++r) {
    EXPECT_LE(m.rowstr[static_cast<std::size_t>(r)], m.rowstr[static_cast<std::size_t>(r) + 1]);
    for (int k = m.rowstr[static_cast<std::size_t>(r)]; k < m.rowstr[static_cast<std::size_t>(r) + 1]; ++k) {
      EXPECT_GE(m.colidx[static_cast<std::size_t>(k)], 0);
      EXPECT_LT(m.colidx[static_cast<std::size_t>(k)], m.n);
      if (k > m.rowstr[static_cast<std::size_t>(r)]) {
        EXPECT_LT(m.colidx[static_cast<std::size_t>(k - 1)], m.colidx[static_cast<std::size_t>(k)]);
      }
    }
  }
  // Every row has a diagonal entry (the shifted identity guarantees it).
  for (int r = 0; r < m.n; ++r) {
    bool diag = false;
    for (int k = m.rowstr[static_cast<std::size_t>(r)]; k < m.rowstr[static_cast<std::size_t>(r) + 1]; ++k) {
      if (m.colidx[static_cast<std::size_t>(k)] == r) diag = true;
    }
    EXPECT_TRUE(diag) << "row " << r;
  }
}

/// The NPB makea matrix built the plain way: the reference's sprnvc and
/// vecset draws, then every outer-product entry added with += into its
/// (row, col) sum in generation order, the shifted diagonal last.
std::map<std::pair<int, int>, double> makea_by_map(int na, int nonzer, double shift) {
  constexpr double kRcond = 0.1;
  double tran = 314159265.0;
  (void)randlc(tran, kNpbA);  // the zeta seed draw
  int nn1 = 1;
  while (nn1 < na) nn1 <<= 1;
  const double ratio = std::pow(kRcond, 1.0 / na);
  double size = 1.0;
  std::map<std::pair<int, int>, double> sums;
  for (int iouter = 0; iouter < na; ++iouter) {
    std::vector<int> iv;
    std::vector<double> v;
    while (static_cast<int>(iv.size()) < nonzer) {  // sprnvc
      const double vecelt = randlc(tran, kNpbA);
      const int i = static_cast<int>(nn1 * randlc(tran, kNpbA));
      if (i < na && std::find(iv.begin(), iv.end(), i) == iv.end()) {
        iv.push_back(i);
        v.push_back(vecelt);
      }
    }
    const auto self = std::find(iv.begin(), iv.end(), iouter);  // vecset
    if (self != iv.end()) {
      v[static_cast<std::size_t>(self - iv.begin())] = 0.5;
    } else {
      iv.push_back(iouter);
      v.push_back(0.5);
    }
    for (std::size_t j = 0; j < iv.size(); ++j) {
      const double scale = size * v[j];
      for (std::size_t i = 0; i < iv.size(); ++i) sums[{iv[i], iv[j]}] += v[i] * scale;
    }
    size *= ratio;
  }
  for (int i = 0; i < na; ++i) sums[{i, i}] += kRcond - shift;
  return sums;
}

TEST(Cg, MakeaSumsDuplicatesInGenerationOrder) {
  // Class S, and the matrix the registry's npb.cg.spmv check uses.
  const CgSpec s = cg_spec(Class::kS);
  for (const auto& [na, nonzer, shift] : {std::tuple{s.na, s.nonzer, s.shift}, std::tuple{600, 8, 12.0}}) {
    const CsrMatrix m = cg_makea(na, nonzer, shift);
    std::vector<int> rowstr(static_cast<std::size_t>(na) + 1, 0), colidx;
    std::vector<double> a;
    for (const auto& [rc, sum] : makea_by_map(na, nonzer, shift)) {
      ++rowstr[static_cast<std::size_t>(rc.first) + 1];
      colidx.push_back(rc.second);
      a.push_back(sum);
    }
    for (std::size_t r = 1; r < rowstr.size(); ++r) rowstr[r] += rowstr[r - 1];
    EXPECT_EQ(m.rowstr, rowstr) << "na=" << na;
    EXPECT_EQ(m.colidx, colidx) << "na=" << na;
    ASSERT_EQ(m.a.size(), a.size()) << "na=" << na;
    std::size_t differing = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (std::bit_cast<std::uint64_t>(m.a[k]) != std::bit_cast<std::uint64_t>(a[k])) ++differing;
    }
    EXPECT_EQ(differing, 0u) << "values of " << a.size() << " differ in their bits, na=" << na;
  }
}

TEST(Cg, ClassesWAndAMatchOfficialZeta) {
  // The sizes where the duplicate-sum order moves bits of zeta, and where
  // a bucket-offset or int overflow in makea would show.
  for (const Class cls : {Class::kW, Class::kA}) {
    for (const unsigned threads : {1u, 4u}) {
      const Result r = run_cg(cls, threads);
      EXPECT_TRUE(r.verified) << class_name(cls) << " threads=" << threads
                              << " zeta=" << r.check_value << " " << r.detail;
    }
  }
}

// --- grid solvers (BT / SP / LU) ----------------------------------------------

class GridSolverTest : public ::testing::TestWithParam<Benchmark> {};

TEST_P(GridSolverTest, ClassSConvergesToManufacturedSolution) {
  const Result r = run(GetParam(), Class::kS, 2);
  EXPECT_TRUE(r.verified) << benchmark_name(GetParam()) << ": " << r.detail;
  EXPECT_GT(r.mops, 0.0);
}

TEST_P(GridSolverTest, ThreadCountInvariance) {
  // Line solves / hyperplane points are data-independent within a
  // parallel region, so results are bitwise thread-count independent.
  const Result a = run(GetParam(), Class::kS, 1);
  const Result b = run(GetParam(), Class::kS, 4);
  EXPECT_EQ(a.check_value, b.check_value) << benchmark_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Solvers, GridSolverTest,
                         ::testing::Values(Benchmark::kBT, Benchmark::kSP, Benchmark::kLU),
                         [](const auto& param_info) {
                           return benchmark_name(param_info.param);
                         });

// SP's final error pins the exact arithmetic of its ADI iteration: the
// stencil's direction and term order, the tabulated forcing and
// coupling diagonal, and the substitution sweeps with the add into u.
// A restructured loop must leave every bit of it in place, under both
// orchestrations and at every thread count.
TEST(Sp, CheckValueBitsArePinned) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  GTEST_SKIP() << "the compiler may contract a * b + c into an FMA on this target, "
                  "which moves the pinned bits";
#endif
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double class_s = 0x1.85f113e4p-19;
  const std::pair<unsigned, taskgraph::Exec> s_runs[] = {{1u, taskgraph::Exec::kBarrier},
                                                          {4u, taskgraph::Exec::kBarrier},
                                                          {4u, taskgraph::Exec::kGraph}};
  for (const auto& [threads, exec] : s_runs) {
    const Result r = run_sp(Class::kS, threads, exec);
    EXPECT_TRUE(r.verified) << r.detail;
    EXPECT_EQ(bits(r.check_value), bits(class_s))
        << "class S, threads=" << threads << ", graph=" << (exec == taskgraph::Exec::kGraph)
        << ": " << std::hexfloat << r.check_value;
  }
  const Result w = run_sp(Class::kW, 4, taskgraph::Exec::kBarrier);
  EXPECT_TRUE(w.verified) << w.detail;
  EXPECT_EQ(bits(w.check_value), bits(0x1.e5b3784p-25))
      << "class W, threads=4: " << std::hexfloat << w.check_value;
}

// The verification BT/SP/LU share: the max-norm error against the
// manufactured solution and the pass rule over it.  One NaN interior
// point must fail it; a finite field's error is the plain max-norm.
TEST(DiffusionError, OneNanInteriorPointFailsVerification) {
  const DiffusionProblem p(12);
  Field u(12);
  p.initialize(u);
  double max_norm = 0.0;
  for (int i = 1; i < 11; ++i) {
    for (int j = 1; j < 11; ++j) {
      for (int k = 1; k < 11; ++k) {
        const Vec5 e = p.exact(i, j, k);
        for (int m = 0; m < kNc; ++m) {
          const double d = std::fabs(u.at(i, j, k, m) - e[static_cast<std::size_t>(m)]);
          max_norm = std::max(max_norm, d);
        }
      }
    }
  }
  const double err0 = p.error(u);
  EXPECT_GT(err0, 0.0);
  EXPECT_EQ(err0, max_norm);

  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      for (int k = 0; k < 12; ++k) u.set(i, j, k, p.exact(i, j, k));
    }
  }
  EXPECT_EQ(p.error(u), 0.0);
  EXPECT_TRUE(DiffusionProblem::verified(p.error(u), err0));
  u.at(3, 7, 5, 2) = std::numeric_limits<double>::quiet_NaN();
  const double err = p.error(u);
  EXPECT_FALSE(std::isfinite(err));
  EXPECT_FALSE(DiffusionProblem::verified(err, err0));
}

// --- UA ------------------------------------------------------------------------

TEST(Ua, ConservesHeatExactly) {
  const Result r = run(Benchmark::kUA, Class::kS, 2);
  EXPECT_TRUE(r.verified) << r.detail;
}

TEST(Ua, DeterministicAcrossRuns) {
  const Result a = run(Benchmark::kUA, Class::kS, 1);
  const Result b = run(Benchmark::kUA, Class::kS, 1);
  EXPECT_EQ(a.check_value, b.check_value);
}

TEST(Ua, WClassRefinesDeeper) {
  const Result s = run(Benchmark::kUA, Class::kS, 2);
  const Result w = run(Benchmark::kUA, Class::kW, 2);
  EXPECT_TRUE(w.verified) << w.detail;
  EXPECT_TRUE(s.verified);
}

// --- profiles -------------------------------------------------------------------

TEST(Profiles, ClassCCharacteristics) {
  for (auto b : all_benchmarks()) {
    const auto p = class_c_profile(b);
    EXPECT_GT(p.flops, 0.0) << benchmark_name(b);
    EXPECT_GT(p.dram_bytes, 0.0);
    EXPECT_GE(p.vec_fraction, 0.0);
    EXPECT_LE(p.vec_fraction, 1.0);
    EXPECT_GE(p.serial_fraction, 0.0);
    EXPECT_LT(p.serial_fraction, 0.1);
  }
  // The paper's memory-bound set: CG, SP, UA have low flop/byte.
  auto intensity = [](Benchmark b) {
    const auto p = class_c_profile(b);
    return p.flops / p.dram_bytes;
  };
  EXPECT_LT(intensity(Benchmark::kCG), intensity(Benchmark::kBT));
  EXPECT_LT(intensity(Benchmark::kSP), intensity(Benchmark::kBT));
  EXPECT_LT(intensity(Benchmark::kUA), intensity(Benchmark::kLU));
  EXPECT_GT(intensity(Benchmark::kEP), intensity(Benchmark::kBT));
}

}  // namespace
}  // namespace ookami::npb
