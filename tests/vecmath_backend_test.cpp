// ULP-bounded equivalence of every vecmath array entry point across the
// compiled SIMD backends.  The scalar backend (the original sve-emulation
// code path) is the reference; each native backend is forced via
// ScopedBackend and compared lane-by-lane on a sweep of random inputs
// plus the special-value corners (NaN/inf/zero/subnormal), where results
// must agree bit-for-bit under the NaN rule of ookami/simd/batch.hpp.
//
// Documented bound: 2 ULP for every function, the same as each kernel's
// registered equivalence check.  The kernels are ports of the same
// algorithm onto the same op set with FP contraction off, so they agree
// bit-exactly; the bound is the contract, not the observation, and
// ExpBitIdenticalWithSpecialsInFullVectors pins exp's exact bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "backend_check.hpp"
#include "ookami/common/rng.hpp"
#include "ookami/common/stats.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/vecmath/vecmath.hpp"

namespace ookami::vecmath {
namespace {

using simd::Backend;
using simd::ScopedBackend;

std::vector<Backend> native_backends() {
  std::vector<Backend> v;
  for (Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (simd::backend_compiled(b) && simd::backend_supported(b)) v.push_back(b);
  }
  return v;
}

/// Random sweep over [lo, hi) with the special corners appended.
std::vector<double> sweep(double lo, double hi, bool with_specials = true) {
  std::vector<double> x(1024);
  Xoshiro256 rng(31);
  fill_uniform({x.data(), x.size()}, lo, hi, rng);
  if (with_specials) {
    const double inf = std::numeric_limits<double>::infinity();
    for (double s : {0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
                     4.9406564584124654e-324, -4.9406564584124654e-324,
                     std::numeric_limits<double>::min(), -std::numeric_limits<double>::min(),
                     1.0, -1.0}) {
      x.push_back(s);
    }
  }
  return x;
}

/// Run `fn` under the scalar backend and under `b`, compare outputs:
/// finite pairs within `bound` ULP, non-finite/zero lanes bit-identical
/// under the NaN rule (sqrtpd(-1) and std::sqrt(-1) give NaNs of
/// opposite sign).
template <class Fn>
void expect_equivalent(const std::vector<double>& x, Backend b, double bound, Fn&& fn,
                       const char* what) {
  std::vector<double> ref(x.size()), got(x.size());
  {
    ScopedBackend force(Backend::kScalar);
    fn(x, ref);
  }
  {
    ScopedBackend force(b);
    ASSERT_EQ(force.effective(), b);
    fn(x, got);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isfinite(ref[i]) && std::isfinite(got[i]) && ref[i] != 0.0) {
      EXPECT_LE(static_cast<double>(ulp_distance(ref[i], got[i])), bound)
          << what << "(" << x[i] << ") on " << simd::backend_name(b) << ": ref=" << ref[i]
          << " got=" << got[i];
    } else {
      EXPECT_TRUE(same_bits_or_both_nan(ref[i], got[i]))
          << what << "(" << x[i] << ") on " << simd::backend_name(b) << ": ref=" << ref[i]
          << " got=" << got[i];
    }
  }
}

class VecmathBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (native_backends().empty()) GTEST_SKIP() << "no native SIMD backend compiled/supported";
  }
};

TEST_F(VecmathBackendTest, Exp) {
  const auto x = sweep(-750.0, 750.0);
  for (Backend b : native_backends()) {
    for (LoopShape shape : {LoopShape::kVla, LoopShape::kFixed, LoopShape::kUnrolled2}) {
      expect_equivalent(x, b, 2.0, [&](const auto& in, auto& out) {
        exp_array({in.data(), in.size()}, {out.data(), out.size()}, shape);
      }, "exp");
    }
  }
}

// Special values at every lane position of full 8-lane vectors, so they
// run through the full-vector body of every loop shape and not only its
// predicated tail.  Each variant must give the scalar reference's bits
// (a NaN lane any NaN, by the NaN rule).
TEST_F(VecmathBackendTest, ExpBitIdenticalWithSpecialsInFullVectors) {
  constexpr double kOverflowX = 709.782712893383973;  // exp.cpp's thresholds
  constexpr double kUnderflowX = -708.396418532264106;
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             inf,
                             -inf,
                             0.0,
                             -0.0,
                             4.9406564584124654e-324,
                             std::nextafter(kOverflowX, inf),
                             std::nextafter(kUnderflowX, -inf),
                             kOverflowX,
                             kUnderflowX};
  std::vector<double> x(4096);
  Xoshiro256 rng(23);
  fill_uniform({x.data(), x.size()}, -700.0, 700.0, rng);
  // Vector v holds specials[v / 8] in lane v % 8; the other lanes stay
  // in range, and the vectors after the last special are all in range.
  constexpr std::size_t kLanes = 8;
  std::size_t v = 0;
  for (double s : specials) {
    for (std::size_t lane = 0; lane < kLanes; ++lane, ++v) x[v * kLanes + lane] = s;
  }

  std::vector<double> ref(x.size()), got(x.size());
  for (Backend b : native_backends()) {
    for (LoopShape shape : {LoopShape::kVla, LoopShape::kFixed, LoopShape::kUnrolled2}) {
      for (PolyScheme scheme : {PolyScheme::kHorner, PolyScheme::kEstrin}) {
        for (Rounding rounding : {Rounding::kFast, Rounding::kCorrected}) {
          {
            ScopedBackend force(Backend::kScalar);
            exp_array(x, ref, shape, scheme, rounding);
          }
          {
            ScopedBackend force(b);
            ASSERT_EQ(force.effective(), b);
            exp_array(x, got, shape, scheme, rounding);
          }
          const std::string variant = std::string(simd::backend_name(b)) + " shape " +
                                      std::to_string(static_cast<int>(shape)) + " scheme " +
                                      std::to_string(static_cast<int>(scheme)) + " rounding " +
                                      std::to_string(static_cast<int>(rounding));
          int differ = 0;
          for (std::size_t i = 0; i < x.size(); ++i) {
            if (same_bits_or_both_nan(ref[i], got[i])) continue;
            if (++differ <= 3) {
              ADD_FAILURE() << "exp(" << x[i] << ") lane " << i % kLanes << " on " << variant
                            << ": ref=" << ref[i] << " got=" << got[i];
            }
          }
          EXPECT_EQ(differ, 0) << variant;
        }
      }
    }
  }
}

TEST_F(VecmathBackendTest, ExpPolySchemes) {
  const auto x = sweep(-30.0, 30.0, false);
  for (Backend b : native_backends()) {
    for (PolyScheme scheme : {PolyScheme::kHorner, PolyScheme::kEstrin}) {
      expect_equivalent(x, b, 2.0, [&](const auto& in, auto& out) {
        exp_array({in.data(), in.size()}, {out.data(), out.size()}, LoopShape::kVla, scheme);
      }, "exp-poly");
    }
  }
}

TEST_F(VecmathBackendTest, Log) {
  const auto x = sweep(1e-320, 1e300);
  for (Backend b : native_backends()) {
    expect_equivalent(x, b, 2.0, [](const auto& in, auto& out) {
      log_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "log");
  }
}

TEST_F(VecmathBackendTest, SinCos) {
  const auto x = sweep(-100.0, 100.0);
  for (Backend b : native_backends()) {
    expect_equivalent(x, b, 2.0, [](const auto& in, auto& out) {
      sin_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "sin");
    expect_equivalent(x, b, 2.0, [](const auto& in, auto& out) {
      cos_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "cos");
  }
}

TEST_F(VecmathBackendTest, Exp2Expm1Log1pTanh) {
  for (Backend b : native_backends()) {
    expect_equivalent(sweep(-1080.0, 1080.0), b, 2.0, [](const auto& in, auto& out) {
      exp2_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "exp2");
    expect_equivalent(sweep(-40.0, 720.0), b, 2.0, [](const auto& in, auto& out) {
      expm1_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "expm1");
    expect_equivalent(sweep(-0.9999, 1e6), b, 2.0, [](const auto& in, auto& out) {
      log1p_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "log1p");
    expect_equivalent(sweep(-25.0, 25.0), b, 2.0, [](const auto& in, auto& out) {
      tanh_array({in.data(), in.size()}, {out.data(), out.size()});
    }, "tanh");
  }
}

TEST_F(VecmathBackendTest, Pow) {
  // Mixed bases (positive, negative with integer/non-integer exponents,
  // zero) against a fixed exponent sweep.
  const auto x = sweep(-50.0, 50.0);
  std::vector<double> y(x.size());
  Xoshiro256 rng(41);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = i % 3 == 0 ? std::floor(rng.uniform(-8.0, 8.0)) : rng.uniform(-8.0, 8.0);
  }
  for (Backend b : native_backends()) {
    std::vector<double> ref(x.size()), got(x.size());
    {
      ScopedBackend force(Backend::kScalar);
      pow_array({x.data(), x.size()}, {y.data(), y.size()}, {ref.data(), ref.size()});
    }
    {
      ScopedBackend force(b);
      pow_array({x.data(), x.size()}, {y.data(), y.size()}, {got.data(), got.size()});
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::isfinite(ref[i]) && std::isfinite(got[i]) && ref[i] != 0.0) {
        EXPECT_LE(static_cast<double>(ulp_distance(ref[i], got[i])), 2.0)
            << "pow(" << x[i] << ", " << y[i] << ") on " << simd::backend_name(b);
      } else {
        EXPECT_TRUE(same_bits_or_both_nan(ref[i], got[i]))
            << "pow(" << x[i] << ", " << y[i] << ") on " << simd::backend_name(b)
            << ": ref=" << ref[i] << " got=" << got[i];
      }
    }
  }
}

TEST_F(VecmathBackendTest, RecipSqrt) {
  const auto x = sweep(1e-300, 1e300);
  for (Backend b : native_backends()) {
    for (DivSqrtStrategy s : {DivSqrtStrategy::kNewton, DivSqrtStrategy::kBlocking}) {
      expect_equivalent(x, b, 2.0, [&](const auto& in, auto& out) {
        recip_array({in.data(), in.size()}, {out.data(), out.size()}, s);
      }, "recip");
      expect_equivalent(x, b, 2.0, [&](const auto& in, auto& out) {
        sqrt_array({in.data(), in.size()}, {out.data(), out.size()}, s);
      }, "sqrt");
    }
  }
}

TEST_F(VecmathBackendTest, OddSizesExerciseTailPredicates) {
  for (Backend b : native_backends()) {
    for (std::size_t n : {1ul, 7ul, 8ul, 9ul, 17ul, 63ul}) {
      std::vector<double> x(n);
      Xoshiro256 rng(n);
      fill_uniform({x.data(), n}, -20.0, 20.0, rng);
      std::vector<double> ref(n), got(n);
      {
        ScopedBackend force(Backend::kScalar);
        exp_array({x.data(), n}, {ref.data(), n});
      }
      {
        ScopedBackend force(b);
        exp_array({x.data(), n}, {got.data(), n});
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LE(static_cast<double>(ulp_distance(ref[i], got[i])), 2.0)
            << "exp n=" << n << " i=" << i << " on " << simd::backend_name(b);
      }
    }
  }
}

// The registered vecmath checks share detail::backend_ulp_check.  One
// wrong native lane (NaN, +inf, or a finite value 3 ULP off) must make
// it report more than the widest registered vecmath bound, so that lane
// fails every vecmath check.
TEST_F(VecmathBackendTest, UlpCheckCatchesOnePoisonedNativeLane) {
  double widest = 0.0;
  int checks = 0;
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (k.name.rfind("vecmath.", 0) != 0 || !k.has_check) continue;
    widest = std::max(widest, k.check_tolerance);
    ++checks;
  }
  ASSERT_EQ(checks, 11);

  struct Poison {
    const char* name;
    double (*apply)(double);
    double reported;  // what the check must report, or 0 for "any"
  };
  const Poison poisons[] = {
      {"NaN", [](double) { return std::numeric_limits<double>::quiet_NaN(); }, 0.0},
      {"+inf", [](double) { return std::numeric_limits<double>::infinity(); }, 0.0},
      {"3 ULP up",
       [](double v) {
         for (int k = 0; k < 3; ++k) v = std::nextafter(v, std::numeric_limits<double>::infinity());
         return v;
       },
       3.0},
  };
  constexpr std::size_t kPoisoned = 517;  // a full-vector lane of the 1024
  for (Backend b : native_backends()) {
    EXPECT_EQ(detail::backend_ulp_check(b, -700.0, 700.0,
                                        [](auto in, auto out) { exp_array(in, out); }),
              0.0)
        << simd::backend_name(b);
    for (const Poison& poison : poisons) {
      const double err = detail::backend_ulp_check(b, -700.0, 700.0, [&](auto in, auto out) {
        exp_array(in, out);
        if (simd::active_backend() != Backend::kScalar) out[kPoisoned] = poison.apply(out[kPoisoned]);
      });
      EXPECT_GT(err, widest) << poison.name << " on " << simd::backend_name(b);
      if (poison.reported > 0.0) {
        EXPECT_EQ(err, poison.reported) << poison.name << " on " << simd::backend_name(b);
      }
    }
  }
}

}  // namespace
}  // namespace ookami::vecmath
