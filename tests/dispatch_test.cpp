// Kernel-registry dispatch layer (src/dispatch): resolution with
// clamping down to the best registered variant, introspection, the
// manifest and series observation.
//
// The tests register their own throwaway kernels (names under "test.*")
// so they exercise the registry machinery without depending on which
// modules happen to be linked in.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ookami/dispatch/registry.hpp"
#include "ookami/simd/backend.hpp"

namespace ookami::dispatch {
namespace {

using simd::Backend;

// --- registry.hpp: resolution with throwaway kernels ---------------------

// Distinct tag results so the tests can tell which variant resolved.
using TagFn = int();
int tag_alpha_avx2() { return 102; }
int tag_alpha_avx512() { return 103; }
int tag_beta_avx2() { return 202; }

bool avx2_ready() {
  return simd::backend_compiled(Backend::kAvx2) && simd::backend_supported(Backend::kAvx2);
}
bool avx512_ready() {
  return simd::backend_compiled(Backend::kAvx512) && simd::backend_supported(Backend::kAvx512);
}

/// Registers the throwaway kernels exactly once per process:
///   test.alpha: avx2 + avx512 variants and an equivalence check
///   test.beta:  avx2 only
///   test.gamma: declared (call site exists) but no native variant
double alpha_check(Backend) { return 0.25; }

const kernel_table<TagFn>& alpha_table() {
  static const kernel_table<TagFn> t("test.alpha");
  static const variant_registrar<TagFn> avx2("test.alpha", Backend::kAvx2, &tag_alpha_avx2);
  static const variant_registrar<TagFn> avx512("test.alpha", Backend::kAvx512,
                                                &tag_alpha_avx512);
  static const check_registrar chk("test.alpha", &alpha_check, 0.5);
  return t;
}

const kernel_table<TagFn>& beta_table() {
  static const kernel_table<TagFn> t("test.beta");
  static const variant_registrar<TagFn> avx2("test.beta", Backend::kAvx2, &tag_beta_avx2);
  return t;
}

const kernel_table<TagFn>& gamma_table() {
  static const kernel_table<TagFn> t("test.gamma");
  return t;
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_table();
    beta_table();
    gamma_table();
  }
};

TEST_F(RegistryTest, ScalarResolutionReturnsNull) {
  simd::ScopedBackend force(Backend::kScalar);
  Backend used = Backend::kAvx2;
  EXPECT_EQ(alpha_table().resolve(used), nullptr);
  EXPECT_EQ(used, Backend::kScalar);
  EXPECT_EQ(gamma_table().resolve(), nullptr);
}

TEST_F(RegistryTest, ResolvesForcedBackend) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  simd::ScopedBackend force(Backend::kAvx2);
  Backend used = Backend::kScalar;
  TagFn* fn = alpha_table().resolve(used);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(), 102);
  EXPECT_EQ(used, Backend::kAvx2);
}

TEST_F(RegistryTest, WalksDownToBestRegisteredVariant) {
  if (!avx512_ready()) GTEST_SKIP() << "avx512 backend not compiled/supported";
  // test.beta has no avx512 variant: an avx512 request walks down to avx2.
  simd::ScopedBackend force(Backend::kAvx512);
  Backend used = Backend::kScalar;
  TagFn* fn = beta_table().resolve(used);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(), 202);
  EXPECT_EQ(used, Backend::kAvx2);
}

// --- registry.hpp: introspection ----------------------------------------

TEST_F(RegistryTest, IntrospectionListsTestKernels) {
  bool saw_alpha = false, saw_gamma = false;
  for (const KernelInfo& k : kernels()) {
    if (k.name == "test.alpha") {
      saw_alpha = true;
      EXPECT_TRUE(k.has_check);
      EXPECT_DOUBLE_EQ(k.check_tolerance, 0.5);
      std::vector<Backend> want;
      if (simd::backend_compiled(Backend::kAvx2)) want.push_back(Backend::kAvx2);
      if (simd::backend_compiled(Backend::kAvx512)) want.push_back(Backend::kAvx512);
      EXPECT_EQ(k.variants, want);
    }
    if (k.name == "test.gamma") {
      saw_gamma = true;
      EXPECT_TRUE(k.variants.empty());
      EXPECT_FALSE(k.has_check);
    }
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_gamma);

  double tol = 0.0;
  CheckFn fn = check("test.alpha", &tol);
  ASSERT_NE(fn, nullptr);
  EXPECT_DOUBLE_EQ(tol, 0.5);
  EXPECT_DOUBLE_EQ(fn(Backend::kAvx2), 0.25);
  EXPECT_EQ(check("test.gamma"), nullptr);
  // An unknown kernel has only the reference path.
  EXPECT_EQ(resolved_backend("no.such.kernel"), Backend::kScalar);
}

TEST_F(RegistryTest, ManifestFormat) {
  const std::string m = manifest();
  EXPECT_NE(m.find("test.gamma\tscalar\n"), std::string::npos);
  if (avx2_ready() && avx512_ready()) {
    EXPECT_NE(m.find("test.alpha\tscalar,avx2,avx512\n"), std::string::npos);
    EXPECT_NE(m.find("test.beta\tscalar,avx2\n"), std::string::npos);
  }
}

// --- registry.hpp: series observation -----------------------------------

TEST_F(RegistryTest, ObservationRecordsResolvedKernels) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  simd::ScopedBackend force(Backend::kAvx2);
  begin_observation();
  (void)alpha_table().resolve();
  (void)gamma_table().resolve();  // scalar resolutions are recorded too
  (void)alpha_table().resolve();  // deduped by kernel
  const auto observed = take_observation();
  ASSERT_EQ(observed.size(), 2u);  // sorted by kernel name
  EXPECT_EQ(observed[0].kernel, "test.alpha");
  EXPECT_EQ(observed[0].backend, Backend::kAvx2);
  EXPECT_EQ(observed[1].kernel, "test.gamma");
  EXPECT_EQ(observed[1].backend, Backend::kScalar);
  // The observation window is closed: nothing accumulates afterwards.
  (void)alpha_table().resolve();
  begin_observation();
  EXPECT_TRUE(take_observation().empty());
}

}  // namespace
}  // namespace ookami::dispatch
