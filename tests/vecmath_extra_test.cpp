// Accuracy and edge-case tests for the extended vector math functions
// (exp2 / expm1 / log1p / tanh) built on the FEXPA core.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "ookami/vecmath/extra.hpp"
#include "ookami/vecmath/ulp.hpp"

namespace ookami::vecmath {
namespace {

using sve::Vec;

struct SweepCase {
  const char* name;
  double (*fn)(double);
  double (*ref)(double);
  double lo, hi;
  double max_ulp;
};

// Without a printer gtest shows the parameter as raw bytes, and those
// hold pointers that move with every load of the binary (ASLR), so the
// listed test names would change from run to run.  Print the case name.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

double exp2_1(double x) { return exp2(Vec(x))[0]; }
double expm1_1(double x) { return expm1(Vec(x))[0]; }
double log1p_1(double x) { return log1p(Vec(x))[0]; }
double tanh_1(double x) { return tanh(Vec(x))[0]; }

class ExtraSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExtraSweep, UlpBound) {
  const auto& c = GetParam();
  const auto rep = ulp_sweep(c.fn, c.ref, c.lo, c.hi, 50000);
  EXPECT_LE(rep.max_ulp, c.max_ulp) << c.name << " worst at " << rep.worst_input;
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ExtraSweep,
    ::testing::Values(
        SweepCase{"exp2_wide", exp2_1, [](double x) { return std::exp2(x); }, -1020.0, 1020.0, 4.0},
        SweepCase{"exp2_narrow", exp2_1, [](double x) { return std::exp2(x); }, -2.0, 2.0, 2.0},
        SweepCase{"expm1_wide", expm1_1, [](double x) { return std::expm1(x); }, -30.0, 700.0, 4.0},
        SweepCase{"expm1_tiny", expm1_1, [](double x) { return std::expm1(x); }, -1e-8, 1e-8, 2.0},
        SweepCase{"log1p_wide", log1p_1, [](double x) { return std::log1p(x); }, -0.999, 1e6, 4.0},
        SweepCase{"log1p_tiny", log1p_1, [](double x) { return std::log1p(x); }, -1e-8, 1e-8, 2.0},
        SweepCase{"tanh_core", tanh_1, [](double x) { return std::tanh(x); }, -20.0, 20.0, 6.0},
        SweepCase{"tanh_tiny", tanh_1, [](double x) { return std::tanh(x); }, -1e-5, 1e-5, 2.0}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(Exp2, ExactAtIntegers) {
  // The FEXPA path makes integer inputs exact: r = 0, q = 0.
  for (int k = -1000; k <= 1000; k += 37) {
    EXPECT_EQ(exp2_1(k), std::ldexp(1.0, k)) << k;
  }
}

TEST(Exp2, Edges) {
  EXPECT_EQ(exp2_1(2000.0), HUGE_VAL);
  EXPECT_EQ(exp2_1(-2000.0), 0.0);
  EXPECT_EQ(exp2_1(HUGE_VAL), HUGE_VAL);
  EXPECT_EQ(exp2_1(-HUGE_VAL), 0.0);
  EXPECT_TRUE(std::isnan(exp2_1(NAN)));
  EXPECT_EQ(exp2_1(0.0), 1.0);
}

TEST(Expm1, Edges) {
  EXPECT_EQ(expm1_1(0.0), 0.0);
  EXPECT_EQ(expm1_1(-0.0), -0.0);
  EXPECT_EQ(expm1_1(800.0), HUGE_VAL);
  EXPECT_EQ(expm1_1(-HUGE_VAL), -1.0);
  EXPECT_EQ(expm1_1(-100.0), -1.0);
  EXPECT_TRUE(std::isnan(expm1_1(NAN)));
}

TEST(Expm1, NoCancellationNearZero) {
  // exp(x)-1 computed naively loses all digits here; expm1 must not.
  const double x = 1e-12;
  EXPECT_LE(ulp_distance(expm1_1(x), std::expm1(x)), 2u);
  EXPECT_NEAR(expm1_1(x) / x, 1.0, 1e-10);
}

TEST(Log1p, Edges) {
  EXPECT_EQ(log1p_1(0.0), 0.0);
  EXPECT_EQ(log1p_1(-1.0), -HUGE_VAL);
  EXPECT_TRUE(std::isnan(log1p_1(-1.5)));
  EXPECT_TRUE(std::isnan(log1p_1(NAN)));
  EXPECT_EQ(log1p_1(HUGE_VAL), HUGE_VAL);
}

TEST(Log1p, InverseOfExpm1) {
  for (double x : {-0.9, -0.1, 1e-9, 0.3, 2.0, 40.0}) {
    EXPECT_LE(ulp_distance(log1p_1(expm1_1(x)), x), 8u) << x;
  }
}

TEST(Tanh, Edges) {
  EXPECT_EQ(tanh_1(0.0), 0.0);
  EXPECT_EQ(tanh_1(HUGE_VAL), 1.0);
  EXPECT_EQ(tanh_1(-HUGE_VAL), -1.0);
  EXPECT_EQ(tanh_1(100.0), 1.0);
  EXPECT_TRUE(std::isnan(tanh_1(NAN)));
  EXPECT_LT(tanh_1(-3.0), 0.0);
}

TEST(Tanh, OddFunction) {
  for (double x : {0.1, 1.0, 5.0, 18.0}) {
    EXPECT_EQ(tanh_1(-x), -tanh_1(x)) << x;
  }
}

TEST(ArrayDrivers, HandleTails) {
  const std::size_t n = 13;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.1 * static_cast<double>(i) - 0.5;
  exp2_array(x, y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_LE(ulp_distance(y[i], std::exp2(x[i])), 4u);
  tanh_array(x, y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_LE(ulp_distance(y[i], std::tanh(x[i])), 4u);
}

}  // namespace
}  // namespace ookami::vecmath
