// ULP-bounded equivalence of every vecmath array entry point across the
// compiled SIMD backends.  The scalar backend (the original sve-emulation
// code path) is the reference; each native backend is forced via
// ScopedBackend and compared lane-by-lane on a sweep of random inputs
// plus the special-value corners (NaN/inf/zero/subnormal), where results
// must agree bit-for-bit.
//
// Documented bounds (the kernels are ports of the same algorithm onto
// the same op set, so in practice they agree bit-exactly; the bounds
// below are the contract, not the observation):
//   exp/log:            <= 2 ULP
//   sin/cos:            <= 2 ULP  (same Cody-Waite reduction + polynomials)
//   exp2/expm1/log1p:   <= 2 ULP
//   tanh:               <= 4 ULP  (composes expm1)
//   pow:                <= 16 ULP (composes exp(y log x))
//   recip/sqrt Newton:  <= 2 ULP

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "ookami/common/rng.hpp"
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

bool same_bits(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// Run `fn` under the scalar backend and under `b`, compare outputs:
/// finite pairs within `bound` ULP, non-finite/zero lanes bit-identical.
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
    } else if (std::isnan(ref[i])) {
      // NaN results need only agree as NaN: the sign/payload of the
      // default QNaN differs between libm and the hardware instructions
      // (e.g. sqrtpd(-1) vs std::sqrt(-1)).
      EXPECT_TRUE(std::isnan(got[i]))
          << what << "(" << x[i] << ") on " << simd::backend_name(b) << ": got=" << got[i];
    } else {
      // Infinities and signed zeros must match bit-for-bit.
      EXPECT_TRUE(same_bits(ref[i], got[i]))
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
    expect_equivalent(sweep(-25.0, 25.0), b, 4.0, [](const auto& in, auto& out) {
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
        EXPECT_LE(static_cast<double>(ulp_distance(ref[i], got[i])), 16.0)
            << "pow(" << x[i] << ", " << y[i] << ") on " << simd::backend_name(b);
      } else if (std::isnan(ref[i])) {
        EXPECT_TRUE(std::isnan(got[i]))
            << "pow(" << x[i] << ", " << y[i] << ") on " << simd::backend_name(b);
      } else {
        EXPECT_TRUE(same_bits(ref[i], got[i]))
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

}  // namespace
}  // namespace ookami::vecmath
