// Unit tests for the SVE emulation layer: predication semantics,
// loads/stores, gather/scatter, conversions, reductions, and the
// bit-level FEXPA / FRECPE / FRSQRTE instructions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ookami/common/rng.hpp"
#include "ookami/sve/fexpa.hpp"
#include "ookami/sve/sve.hpp"

namespace ookami::sve {
namespace {

TEST(Pred, WhileltShapes) {
  EXPECT_TRUE(whilelt(0, 8).all());
  EXPECT_FALSE(whilelt(8, 8).any());
  const Pred tail = whilelt(5, 8);
  EXPECT_EQ(tail.count(), 3);
  EXPECT_TRUE(tail[0] && tail[1] && tail[2]);
  EXPECT_FALSE(tail[3]);
}

TEST(Pred, BooleanAlgebra) {
  const Pred a = whilelt(0, 3);
  const Pred b = whilelt(0, 6);
  EXPECT_EQ((a & b), a);
  EXPECT_EQ((a | b), b);
  EXPECT_EQ(((!a) & a), pfalse());
  EXPECT_EQ((!pfalse()), ptrue());
}

TEST(LoadStore, PredicatedTailDoesNotTouchInactiveLanes) {
  double src[kLanes], dst[kLanes];
  for (int i = 0; i < kLanes; ++i) {
    src[i] = i + 1.0;
    dst[i] = -7.0;
  }
  const Pred pg = whilelt(0, 5);
  st1(pg, dst, ld1(pg, src));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dst[i], src[i]);
  for (int i = 5; i < kLanes; ++i) EXPECT_EQ(dst[i], -7.0);
}

TEST(GatherScatter, RoundTripThroughPermutation) {
  Xoshiro256 rng(11);
  const std::size_t n = 64;
  std::vector<double> x(n), y(n, 0.0), z(n, 0.0);
  fill_uniform(x, 0.0, 1.0, rng);
  const auto idx = random_permutation(n, rng);
  for (std::size_t i = 0; i < n; i += kLanes) {
    const Pred pg = whilelt(i, n);
    st1(pg, y.data() + i, gather(pg, x.data(), idx.data() + i));
  }
  for (std::size_t i = 0; i < n; i += kLanes) {
    const Pred pg = whilelt(i, n);
    scatter(pg, z.data(), idx.data() + i, ld1(pg, y.data() + i));
  }
  // scatter(idx, gather(idx, x)) == x
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(z[i], x[i]);
}

TEST(Arithmetic, MergingSemantics) {
  Vec a(2.0), b(3.0);
  const Pred pg = whilelt(0, 4);
  const Vec r = add(pg, a, b);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], 5.0);
  for (int i = 4; i < kLanes; ++i) EXPECT_EQ(r[i], 2.0);  // inactive keep a
}

TEST(Arithmetic, FmaSingleRounding) {
  // Choose values where fused and unfused differ.
  const double a = 1.0 + 0x1.0p-30, b = 1.0 - 0x1.0p-30, c = -1.0;
  const Vec r = fma(Vec(a), Vec(b), Vec(c));
  EXPECT_EQ(r[0], std::fma(a, b, c));
  EXPECT_NE(r[0], a * b + c);  // the unfused result rounds differently
}

TEST(Conversion, FcvtzsSaturatesAndHandlesNan) {
  Vec v;
  v[0] = 1.9;
  v[1] = -1.9;
  v[2] = std::numeric_limits<double>::quiet_NaN();
  v[3] = 1e30;
  v[4] = -1e30;
  const VecS64 r = fcvtzs(v);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], -1);
  EXPECT_EQ(r[2], 0);
  EXPECT_EQ(r[3], std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(r[4], std::numeric_limits<std::int64_t>::min());
}

TEST(Conversion, FrintnRoundsToEven) {
  Vec v;
  v[0] = 0.5;
  v[1] = 1.5;
  v[2] = 2.5;
  v[3] = -0.5;
  const Vec r = frintn(v);
  EXPECT_EQ(r[0], 0.0);
  EXPECT_EQ(r[1], 2.0);
  EXPECT_EQ(r[2], 2.0);
  EXPECT_EQ(r[3], -0.0);
}

TEST(Reduction, ActiveLanesOnly) {
  Vec v;
  for (int i = 0; i < kLanes; ++i) v[i] = i + 1.0;
  const Pred pg = whilelt(0, 3);
  EXPECT_DOUBLE_EQ(reduce_add(pg, v), 6.0);
  EXPECT_DOUBLE_EQ(reduce_max(pg, v), 3.0);
  EXPECT_DOUBLE_EQ(reduce_min(pg, v), 1.0);
  EXPECT_DOUBLE_EQ(reduce_add(pfalse(), v), 0.0);
}

TEST(Select, PicksPerLane) {
  const Pred pg = whilelt(0, 2);
  const Vec r = sel(pg, Vec(1.0), Vec(9.0));
  EXPECT_EQ(r[0], 1.0);
  EXPECT_EQ(r[1], 1.0);
  EXPECT_EQ(r[2], 9.0);
}

// --- FEXPA -----------------------------------------------------------------

TEST(Fexpa, TableIsFractionOfExp2) {
  const std::uint64_t* t = kFexpaTable;
  for (int i = 0; i < 64; ++i) {
    const double v = std::exp2(static_cast<double>(i) / 64.0);
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    EXPECT_EQ(t[i], bits & ((1ull << 52) - 1)) << "entry " << i;
  }
}

class FexpaExactness : public ::testing::TestWithParam<int> {};

TEST_P(FexpaExactness, Computes2PowMPlusIOver64) {
  const int m = GetParam();
  for (int i = 0; i < 64; ++i) {
    const auto input = static_cast<std::uint64_t>(((m + 1023) << 6) | i);
    const std::uint64_t out = fexpa_scalar(input);
    double got;
    std::memcpy(&got, &out, sizeof(got));
    const double want = std::exp2(m + static_cast<double>(i) / 64.0);
    // The table entry is correctly rounded, so the product decomposition
    // matches the directly computed value to <= 1 ulp.
    EXPECT_NEAR(got / want, 1.0, 3e-16) << "m=" << m << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, FexpaExactness, ::testing::Values(-100, -1, 0, 1, 7, 100, 900));

TEST(Fexpa, VectorMatchesScalar) {
  VecU64 u;
  for (int i = 0; i < kLanes; ++i) u[i] = static_cast<std::uint64_t>((1023 << 6) + i * 3);
  const Vec v = fexpa(u);
  for (int i = 0; i < kLanes; ++i) {
    double want;
    const std::uint64_t w = fexpa_scalar(u[i]);
    std::memcpy(&want, &w, sizeof(want));
    EXPECT_EQ(v[i], want);
  }
}

// --- Estimates -------------------------------------------------------------

TEST(Estimates, FrecpeWithin8Bits) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    const double x = rng.uniform(1e-3, 1e3);
    const Vec r = frecpe(Vec(x));
    EXPECT_NEAR(r[0] * x, 1.0, 0x1.0p-8) << "x=" << x;
  }
}

TEST(Estimates, FrsqrteWithin8Bits) {
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 1000; ++trial) {
    const double x = rng.uniform(1e-3, 1e3);
    const Vec r = frsqrte(Vec(x));
    EXPECT_NEAR(r[0] * r[0] * x, 1.0, 0x1.0p-6) << "x=" << x;
  }
}

TEST(Estimates, SpecialValues) {
  EXPECT_EQ(frecpe(Vec(0.0))[0], HUGE_VAL);
  EXPECT_EQ(frecpe(Vec(-0.0))[0], -HUGE_VAL);
  EXPECT_EQ(frecpe(Vec(HUGE_VAL))[0], 0.0);
  EXPECT_TRUE(std::isnan(frecpe(Vec(NAN))[0]));
  EXPECT_TRUE(std::isnan(frsqrte(Vec(-1.0))[0]));
  EXPECT_EQ(frsqrte(Vec(0.0))[0], HUGE_VAL);
  EXPECT_EQ(frsqrte(Vec(HUGE_VAL))[0], 0.0);
}

TEST(Estimates, NewtonStepCoefficients) {
  // frecps(a, b) = 2 - a*b ; frsqrts(a, b) = (3 - a*b)/2, both fused.
  EXPECT_DOUBLE_EQ(frecps(Vec(0.5), Vec(1.0))[0], 1.5);
  EXPECT_DOUBLE_EQ(frsqrts(Vec(1.0), Vec(1.0))[0], 1.0);
}

}  // namespace
}  // namespace ookami::sve
