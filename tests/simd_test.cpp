// Tests for the fixed-width SIMD layer: backend selection/clamping, the
// batch op set per compiled backend (bit-for-bit against ookami::sve and
// the per-lane expressions of the batch.hpp op contract), gather/scatter
// edge cases (unaligned pointers, partial final predicates, negative
// 64-bit offsets), the FEXPA / estimate-op bit cross-check against the
// sve reference, and the hot kernels (DGEMM, fig1 loops) forced onto
// every backend.
//
// The templated check bodies live in simd_test_checks.hpp; the AVX2 and
// AVX-512 instantiations are built in simd_test_avx2.cpp and
// simd_test_avx512.cpp with their ISA flags, because those batch
// specializations only exist under the flags.  This TU, built with the
// baseline flags, only declares them.

#include <gtest/gtest.h>

#include <vector>

#include "ookami/hpcc/hpcc.hpp"
#include "ookami/loops/kernels.hpp"
#include "ookami/simd/backend.hpp"

namespace ookami::simd {
namespace testing {

// Defined in simd_test_avx2.cpp (compiled with -mavx2/-mfma) when the
// toolchain can build AVX2 kernels; called below only after a runtime
// CPU-support check.
void avx2_batch_matches_scalar();
void avx2_whilelt_and_tail();
void avx2_gather_scatter_edges();
void avx2_fexpa_bit_identical();
void avx2_estimates_bit_identical();

// Defined in simd_test_avx512.cpp (compiled with -mavx512f/-mavx512dq)
// when the toolchain can build AVX-512 kernels; called below only after
// a runtime CPU-support check.
void avx512_batch_matches_scalar();
void avx512_whilelt_and_tail();
void avx512_gather_scatter_edges();
void avx512_fexpa_bit_identical();
void avx512_estimates_bit_identical();

}  // namespace testing

namespace {

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

TEST(Backend, NamesRoundTrip) {
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    Backend parsed{};
    ASSERT_TRUE(parse_backend(backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend out = Backend::kAvx2;
  EXPECT_FALSE(parse_backend("neon", out));
  EXPECT_FALSE(parse_backend("AVX2", out));  // tokens are case-sensitive
  EXPECT_EQ(out, Backend::kAvx2);            // untouched on failure
}

TEST(Backend, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(backend_compiled(Backend::kScalar));
  EXPECT_TRUE(backend_supported(Backend::kScalar));
  EXPECT_EQ(clamp_backend(Backend::kScalar), Backend::kScalar);
}

TEST(Backend, ClampNeverExceedsRequest) {
  for (Backend req : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    const Backend got = clamp_backend(req);
    EXPECT_LE(static_cast<int>(got), static_cast<int>(req));
    EXPECT_TRUE(backend_compiled(got));
    EXPECT_TRUE(backend_supported(got));
  }
}

TEST(Backend, DetectedIsCompiledAndSupported) {
  const Backend b = detected_backend();
  EXPECT_TRUE(backend_compiled(b));
  EXPECT_TRUE(backend_supported(b));
}

TEST(Backend, ScopedOverrideAppliesAndRestores) {
  const Backend before = active_backend();
  {
    ScopedBackend force(Backend::kScalar);
    EXPECT_EQ(force.effective(), Backend::kScalar);
    EXPECT_EQ(active_backend(), Backend::kScalar);
    {
      // Nested override wins, then unwinds to the outer one.
      ScopedBackend inner(detected_backend());
      EXPECT_EQ(active_backend(), detected_backend());
    }
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
  EXPECT_EQ(active_backend(), before);
}

// ---------------------------------------------------------------------------
// Batch ops / predication / gather-scatter / fexpa / estimates, per arch
// ---------------------------------------------------------------------------

#if defined(OOKAMI_SIMD_HAVE_AVX2)
#define OOKAMI_AVX2_TEST(suite, name, fn)                                 \
  TEST(suite, name) {                                                     \
    if (!backend_supported(Backend::kAvx2)) GTEST_SKIP() << "no AVX2 on this CPU"; \
    testing::fn();                                                        \
  }
OOKAMI_AVX2_TEST(BatchOps, Avx2MatchesScalar, avx2_batch_matches_scalar)
OOKAMI_AVX2_TEST(BatchPredication, Avx2, avx2_whilelt_and_tail)
OOKAMI_AVX2_TEST(GatherScatter, Avx2, avx2_gather_scatter_edges)
OOKAMI_AVX2_TEST(FexpaBits, Avx2, avx2_fexpa_bit_identical)
OOKAMI_AVX2_TEST(EstimateOps, Avx2, avx2_estimates_bit_identical)
#undef OOKAMI_AVX2_TEST
#endif

#if defined(OOKAMI_SIMD_HAVE_AVX512)
#define OOKAMI_AVX512_TEST(suite, name, fn)                               \
  TEST(suite, name) {                                                     \
    if (!backend_supported(Backend::kAvx512))                             \
      GTEST_SKIP() << "no AVX-512 on this CPU";                           \
    testing::fn();                                                        \
  }
OOKAMI_AVX512_TEST(BatchOps, Avx512MatchesScalar, avx512_batch_matches_scalar)
OOKAMI_AVX512_TEST(BatchPredication, Avx512, avx512_whilelt_and_tail)
OOKAMI_AVX512_TEST(GatherScatter, Avx512, avx512_gather_scatter_edges)
OOKAMI_AVX512_TEST(FexpaBits, Avx512, avx512_fexpa_bit_identical)
OOKAMI_AVX512_TEST(EstimateOps, Avx512, avx512_estimates_bit_identical)
#undef OOKAMI_AVX512_TEST
#endif

// ---------------------------------------------------------------------------
// Hot kernels forced onto every available backend
// ---------------------------------------------------------------------------

std::vector<Backend> available_backends() {
  std::vector<Backend> v = {Backend::kScalar};
  for (Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (backend_compiled(b) && backend_supported(b)) v.push_back(b);
  }
  return v;
}

TEST(KernelsPerBackend, DgemmMatchesNaive) {
  for (Backend b : available_backends()) {
    ScopedBackend force(b);
    for (std::size_t n : {64u, 100u, 129u}) {
      const double tol = 1e-11 * static_cast<double>(n);
      EXPECT_LE(hpcc::dgemm_check(hpcc::GemmImpl::kBlocked, n, 2), tol)
          << backend_name(b) << " blocked n=" << n;
      EXPECT_LE(hpcc::dgemm_check(hpcc::GemmImpl::kTuned, n, 2), tol)
          << backend_name(b) << " tuned n=" << n;
    }
  }
}

TEST(KernelsPerBackend, Fig1LoopsMatchScalarReference) {
  for (Backend b : available_backends()) {
    ScopedBackend force(b);
    for (loops::LoopKind kind : loops::fig1_loop_kinds()) {
      for (std::size_t n : {8u, 13u, 256u}) {
        EXPECT_LE(loops::max_ulp_scalar_vs_sve(kind, n, 23), 1.0)
            << backend_name(b) << " " << loops::loop_name(kind) << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace ookami::simd
