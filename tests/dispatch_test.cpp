// Kernel-registry dispatch layer (src/dispatch): override parsing, glob
// precedence, per-kernel resolution with clamping, and the heterogeneous
// per-kernel override path that lets two kernels run different backends
// in one process.
//
// The tests register their own throwaway kernels (names under "test.*")
// so they exercise the registry machinery without depending on which
// modules happen to be linked in.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ookami/dispatch/autotune.hpp"
#include "ookami/dispatch/override.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/simd/backend.hpp"

namespace ookami::dispatch {
namespace {

using simd::Backend;

// --- override.hpp: glob matching ----------------------------------------

TEST(GlobMatch, Basics) {
  EXPECT_TRUE(glob_match("vecmath.exp", "vecmath.exp"));
  EXPECT_FALSE(glob_match("vecmath.exp", "vecmath.exp2"));
  EXPECT_TRUE(glob_match("vecmath.*", "vecmath.exp"));
  EXPECT_TRUE(glob_match("vecmath.*", "vecmath."));
  EXPECT_FALSE(glob_match("vecmath.*", "npb.cg.spmv"));
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*.spmv", "npb.cg.spmv"));
  EXPECT_TRUE(glob_match("npb.*.spmv", "npb.cg.spmv"));
  EXPECT_FALSE(glob_match("npb.*.spmv", "npb.cg.transpose"));
  EXPECT_TRUE(glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-x-c"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

// --- override.hpp: parsing ----------------------------------------------

TEST(ParseOverrides, WellFormedSpec) {
  std::vector<std::string> errors;
  const OverrideSet set = parse_overrides("hpcc.dgemm=avx2, vecmath.*=scalar", &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(set.rules.size(), 2u);
  EXPECT_EQ(set.rules[0].pattern, "hpcc.dgemm");
  EXPECT_EQ(set.rules[0].backend, Backend::kAvx2);
  EXPECT_FALSE(set.rules[0].is_glob);
  EXPECT_EQ(set.rules[1].pattern, "vecmath.*");
  EXPECT_EQ(set.rules[1].backend, Backend::kScalar);
  EXPECT_TRUE(set.rules[1].is_glob);
  EXPECT_EQ(set.rules[1].specificity, 8);  // "vecmath." literal characters
}

TEST(ParseOverrides, MalformedEntriesAreSkippedNotFatal) {
  std::vector<std::string> errors;
  // Five malformed entries (missing '=', empty pattern, empty backend,
  // two unknown backends, one of them a removed tier) around one valid
  // rule.
  const OverrideSet set = parse_overrides(
      "foo, =avx2, hpcc.dgemm=, loops.fig1=neon, x=sse2, vecmath.exp=avx2", &errors);
  ASSERT_EQ(set.rules.size(), 1u);
  EXPECT_EQ(set.rules[0].pattern, "vecmath.exp");
  EXPECT_EQ(set.rules[0].backend, Backend::kAvx2);
  ASSERT_EQ(errors.size(), 5u);
  EXPECT_NE(errors[0].find("missing '='"), std::string::npos);
  EXPECT_NE(errors[1].find("empty kernel pattern"), std::string::npos);
  EXPECT_NE(errors[2].find("empty backend name"), std::string::npos);
  EXPECT_NE(errors[3].find("unknown backend"), std::string::npos);
  EXPECT_NE(errors[4].find("unknown backend"), std::string::npos);
}

TEST(ParseOverrides, EmptyAndWhitespaceSpecs) {
  std::vector<std::string> errors;
  EXPECT_TRUE(parse_overrides("", &errors).empty());
  EXPECT_TRUE(parse_overrides(" , ,, ", &errors).empty());
  EXPECT_TRUE(errors.empty());
  // Whitespace around tokens is trimmed.
  const OverrideSet set = parse_overrides("  vecmath.exp = avx512  ", &errors);
  ASSERT_EQ(set.rules.size(), 1u);
  EXPECT_EQ(set.rules[0].pattern, "vecmath.exp");
  EXPECT_EQ(set.rules[0].backend, Backend::kAvx512);
}

// --- override.hpp: lookup precedence ------------------------------------

TEST(OverrideLookup, ExactBeatsGlobRegardlessOfOrder) {
  Backend out = Backend::kAvx2;
  // Exact first, glob second.
  OverrideSet set = parse_overrides("vecmath.exp=avx2, vecmath.*=scalar");
  ASSERT_TRUE(set.lookup("vecmath.exp", out));
  EXPECT_EQ(out, Backend::kAvx2);
  ASSERT_TRUE(set.lookup("vecmath.log", out));
  EXPECT_EQ(out, Backend::kScalar);
  // Glob first, exact second.
  set = parse_overrides("vecmath.*=scalar, vecmath.exp=avx2");
  ASSERT_TRUE(set.lookup("vecmath.exp", out));
  EXPECT_EQ(out, Backend::kAvx2);
}

TEST(OverrideLookup, MoreSpecificGlobWins) {
  Backend out = Backend::kScalar;
  const OverrideSet set = parse_overrides("*=scalar, vecmath.*=avx2, vecmath.exp*=avx512");
  ASSERT_TRUE(set.lookup("vecmath.exp", out));
  EXPECT_EQ(out, Backend::kAvx512);  // "vecmath.exp*": most literal characters
  ASSERT_TRUE(set.lookup("vecmath.log", out));
  EXPECT_EQ(out, Backend::kAvx2);
  ASSERT_TRUE(set.lookup("npb.cg.spmv", out));
  EXPECT_EQ(out, Backend::kScalar);
}

TEST(OverrideLookup, LaterRuleWinsTies) {
  Backend out = Backend::kScalar;
  OverrideSet set = parse_overrides("vecmath.exp=avx2, vecmath.exp=avx512");
  ASSERT_TRUE(set.lookup("vecmath.exp", out));
  EXPECT_EQ(out, Backend::kAvx512);  // appending refines an existing spec
  set = parse_overrides("vecmath.exp=avx512, vecmath.exp=avx2");
  ASSERT_TRUE(set.lookup("vecmath.exp", out));
  EXPECT_EQ(out, Backend::kAvx2);
}

TEST(OverrideLookup, NoMatch) {
  Backend out = Backend::kAvx2;
  const OverrideSet set = parse_overrides("vecmath.*=scalar");
  EXPECT_FALSE(set.lookup("npb.cg.spmv", out));
  EXPECT_EQ(out, Backend::kAvx2);  // untouched
  EXPECT_FALSE(OverrideSet{}.lookup("anything", out));
}

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
    set_overrides_for_testing({});  // no per-kernel rules unless a test sets them
  }
  void TearDown() override { set_overrides_for_testing({}); }
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

TEST_F(RegistryTest, PerKernelOverrideSelectsBackend) {
  if (!avx2_ready() || !avx512_ready()) GTEST_SKIP() << "need both native backends";
  set_overrides_for_testing(parse_overrides("test.alpha=avx2"));
  Backend used = Backend::kScalar;
  TagFn* fn = alpha_table().resolve(used);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(), 102);  // avx2 although avx512 is available
  EXPECT_EQ(used, Backend::kAvx2);
  EXPECT_EQ(resolved_backend("test.alpha"), Backend::kAvx2);
}

TEST_F(RegistryTest, HeterogeneousDispatchInOneProcess) {
  if (!avx2_ready() || !avx512_ready()) GTEST_SKIP() << "need both native backends";
  // One process, three kernels, three different backends.
  set_overrides_for_testing(parse_overrides("test.*=avx512, test.beta=avx2, test.gamma=scalar"));
  Backend used_a = Backend::kScalar, used_b = Backend::kScalar;
  TagFn* a = alpha_table().resolve(used_a);
  TagFn* b = beta_table().resolve(used_b);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a(), 103);  // avx512 via the glob
  EXPECT_EQ(b(), 202);  // avx2 via the exact rule
  EXPECT_EQ(used_a, Backend::kAvx512);
  EXPECT_EQ(used_b, Backend::kAvx2);
  EXPECT_EQ(gamma_table().resolve(), nullptr);  // forced scalar
}

TEST_F(RegistryTest, OverrideForScalarBeatsGlobalBackend) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  set_overrides_for_testing(parse_overrides("test.alpha=scalar"));
  // No ScopedBackend: the global backend is native, the rule says scalar.
  EXPECT_EQ(alpha_table().resolve(), nullptr);
  EXPECT_EQ(resolved_backend("test.alpha"), Backend::kScalar);
}

TEST_F(RegistryTest, ScopedBackendOutranksPerKernelRule) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  set_overrides_for_testing(parse_overrides("test.alpha=avx2"));
  simd::ScopedBackend force(Backend::kScalar);
  EXPECT_EQ(alpha_table().resolve(), nullptr);  // the test override wins
}

TEST_F(RegistryTest, OverrideClampsToSupportedVariant) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  // Request avx512 for a kernel that only registered avx2: walk down, do
  // not fail — the clamping philosophy of the SIMD layer, per kernel.
  set_overrides_for_testing(parse_overrides("test.beta=avx512"));
  Backend used = Backend::kScalar;
  TagFn* fn = beta_table().resolve(used);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(), 202);
  EXPECT_EQ(used, Backend::kAvx2);
}

TEST_F(RegistryTest, UnknownKernelRuleIsHarmless) {
  set_overrides_for_testing(parse_overrides("no.such.kernel=avx2"));
  EXPECT_EQ(resolved_backend("no.such.kernel"), Backend::kScalar);
  // Other kernels are unaffected.
  if (avx2_ready()) {
    simd::ScopedBackend force(Backend::kAvx2);
    EXPECT_NE(alpha_table().resolve(), nullptr);
  }
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
  EXPECT_EQ(observed[0].provenance, Provenance::kScoped);
  EXPECT_EQ(observed[1].kernel, "test.gamma");
  EXPECT_EQ(observed[1].backend, Backend::kScalar);
  EXPECT_EQ(observed[1].provenance, Provenance::kScoped);
  // The observation window is closed: nothing accumulates afterwards.
  (void)alpha_table().resolve();
  begin_observation();
  EXPECT_TRUE(take_observation().empty());
}

// --- autotune.hpp: empirical per-size-class winner selection -------------

// test.delta registers one native variant (avx2) plus a deterministic
// calibration probe that always ranks avx2 ahead of scalar, so the
// autotuned winner is machine-independent.
int tag_delta_avx2() { return 302; }

double delta_tune(Backend b, std::size_t /*n*/) {
  return b == Backend::kAvx2 ? 1e-6 : 2e-6;
}

const kernel_table<TagFn>& delta_table() {
  static const kernel_table<TagFn> t("test.delta");
  static const variant_registrar<TagFn> avx2("test.delta", Backend::kAvx2, &tag_delta_avx2);
  static const tune_registrar tune("test.delta", &delta_tune);
  return t;
}

class AutotuneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    delta_table();
    set_overrides_for_testing({});
    unsetenv("OOKAMI_TUNE_FILE");
    set_autotune_enabled_for_testing(1);
    reset_autotune_for_testing();
  }
  void TearDown() override {
    set_overrides_for_testing({});
    unsetenv("OOKAMI_TUNE_FILE");
    set_autotune_enabled_for_testing(-1);
    reset_autotune_for_testing();
  }
  static std::string tmp_path(const char* leaf) { return ::testing::TempDir() + leaf; }
};

TEST(AutotuneSizeClass, Log2Buckets) {
  EXPECT_EQ(size_class_of(0), 0);
  EXPECT_EQ(size_class_of(1), 0);
  EXPECT_EQ(size_class_of(2), 1);
  EXPECT_EQ(size_class_of(3), 1);
  EXPECT_EQ(size_class_of(1023), 9);
  EXPECT_EQ(size_class_of(1024), 10);
  EXPECT_EQ(size_class_of((std::size_t{1} << 20) - 1), 19);
  EXPECT_EQ(size_class_of(std::size_t{1} << 20), 20);
}

TEST_F(AutotuneTest, FirstSizedResolveCalibratesThenCaches) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  ASSERT_EQ(calibration_count(), 0u);
  Backend used = Backend::kScalar;
  TagFn* fn = delta_table().resolve(1000, used);
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn(), 302);
  EXPECT_EQ(used, Backend::kAvx2);
  EXPECT_EQ(calibration_count(), 1u);
  // Same size-class (floor(log2) == 9): pure table hit.
  (void)delta_table().resolve(513, used);
  (void)delta_table().resolve(1023, used);
  EXPECT_EQ(calibration_count(), 1u);
  // A different size-class calibrates once more, then also caches.
  (void)delta_table().resolve(100000, used);
  EXPECT_EQ(calibration_count(), 2u);
  (void)delta_table().resolve(90000, used);
  EXPECT_EQ(calibration_count(), 2u);

  const std::vector<TuneRow> rows = tuning_table();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].kernel, "test.delta");
  EXPECT_EQ(rows[0].size_class, 9);
  EXPECT_EQ(rows[0].winner, Backend::kAvx2);
  ASSERT_EQ(rows[0].measured.size(), 2u);  // scalar + avx2 candidates
  EXPECT_EQ(rows[1].size_class, 16);
}

TEST_F(AutotuneTest, ObservationReportsAutotuneProvenance) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  begin_observation();
  (void)delta_table().resolve(1000);
  const auto observed = take_observation();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].kernel, "test.delta");
  EXPECT_EQ(observed[0].backend, Backend::kAvx2);
  EXPECT_EQ(observed[0].provenance, Provenance::kAutotune);
}

TEST_F(AutotuneTest, UnsizedResolveNeverCalibrates) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  (void)delta_table().resolve();
  EXPECT_EQ(calibration_count(), 0u);
}

TEST_F(AutotuneTest, ScopedBackendAndEnvRuleOutrankAutotune) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  {
    // Precedence 1: a ScopedBackend skips autotune entirely (this is
    // also what keeps TuneFn-owned calibration from recursing).
    simd::ScopedBackend force(Backend::kScalar);
    EXPECT_EQ(delta_table().resolve(1000), nullptr);
    EXPECT_EQ(calibration_count(), 0u);
  }
  // Precedence 2: an OOKAMI_KERNEL_BACKEND rule also wins over the
  // tuning table, with env-rule provenance.
  set_overrides_for_testing(parse_overrides("test.delta=scalar"));
  begin_observation();
  EXPECT_EQ(delta_table().resolve(1000), nullptr);
  const auto observed = take_observation();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].provenance, Provenance::kEnvRule);
  EXPECT_EQ(calibration_count(), 0u);
}

TEST_F(AutotuneTest, KillSwitchFallsBackToCeiling) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  set_autotune_enabled_for_testing(0);  // what OOKAMI_AUTOTUNE=0 does
  begin_observation();
  Backend used = Backend::kScalar;
  TagFn* fn = delta_table().resolve(1000, used);
  ASSERT_NE(fn, nullptr);          // ceiling still clamps into avx2
  EXPECT_EQ(used, Backend::kAvx2);
  EXPECT_EQ(calibration_count(), 0u);
  const auto observed = take_observation();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].provenance, Provenance::kCeiling);
}

TEST_F(AutotuneTest, PersistenceRoundTrip) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  const std::string path = tmp_path("ookami_tune_roundtrip.json");
  (void)delta_table().resolve(1000);
  ASSERT_EQ(calibration_count(), 1u);
  std::string error;
  ASSERT_TRUE(save_tune_file(path, &error)) << error;

  reset_autotune_for_testing();
  ASSERT_TRUE(tuning_table().empty());
  ASSERT_TRUE(load_tune_file(path, &error)) << error;
  const std::vector<TuneRow> rows = tuning_table();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].kernel, "test.delta");
  EXPECT_EQ(rows[0].size_class, 9);
  EXPECT_EQ(rows[0].winner, Backend::kAvx2);
  // The loaded table is a warm cache: resolving again re-measures nothing.
  Backend used = Backend::kScalar;
  (void)delta_table().resolve(1000, used);
  EXPECT_EQ(used, Backend::kAvx2);
  EXPECT_EQ(calibration_count(), 0u);
  std::remove(path.c_str());
}

TEST_F(AutotuneTest, EnvFileMakesSecondRunFullyWarm) {
  if (!avx2_ready()) GTEST_SKIP() << "avx2 backend not compiled/supported";
  const std::string path = tmp_path("ookami_tune_warm.json");
  std::remove(path.c_str());
  setenv("OOKAMI_TUNE_FILE", path.c_str(), 1);
  // "First run": calibrates and persists the table as a side effect.
  (void)delta_table().resolve(1000);
  EXPECT_EQ(calibration_count(), 1u);
  // "Second run": fresh state, same env — the lazy load satisfies the
  // resolve with zero calibration re-runs (the CI warm-start check).
  reset_autotune_for_testing();
  Backend used = Backend::kScalar;
  (void)delta_table().resolve(1000, used);
  EXPECT_EQ(used, Backend::kAvx2);
  EXPECT_EQ(calibration_count(), 0u);
  std::remove(path.c_str());
}

TEST_F(AutotuneTest, StrictLoadRejectsMalformedAndUnversionedFiles) {
  const std::string path = tmp_path("ookami_tune_bad.json");
  std::string error;
  // Unreadable.
  std::remove(path.c_str());
  EXPECT_FALSE(load_tune_file(path, &error));
  // Bad JSON.
  { std::ofstream(path) << "{nope"; }
  error.clear();
  EXPECT_FALSE(load_tune_file(path, &error));
  EXPECT_FALSE(error.empty());
  // Well-formed JSON, wrong/missing schema tag.
  { std::ofstream(path) << R"({"schema": "bogus-9", "entries": []})"; }
  error.clear();
  EXPECT_FALSE(load_tune_file(path, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  // Versioned but with a malformed row: rejected all-or-nothing.
  {
    std::ofstream(path) << R"({"schema": "ookami-tune-1", "entries": [)"
                        << R"({"kernel": "k", "size_class": 3, "winner": "neon"}]})";
  }
  error.clear();
  EXPECT_FALSE(load_tune_file(path, &error));
  EXPECT_TRUE(tuning_table().empty());
  // A table tuned by a build that still had a since-removed backend: a
  // row naming it as winner or in measured_us rejects the whole file,
  // valid rows included.
  for (const char* stale :
       {R"({"kernel": "k", "size_class": 3, "winner": "sse2"})",
        R"({"kernel": "k", "size_class": 3, "winner": "avx2", )"
        R"("measured_us": {"scalar": 2.0, "sse2": 1.5, "avx2": 1.0}})"}) {
    std::ofstream(path) << R"({"schema": "ookami-tune-1", "entries": [)"
                        << R"({"kernel": "ok", "size_class": 4, "winner": "scalar"}, )" << stale
                        << "]}";
    error.clear();
    EXPECT_FALSE(load_tune_file(path, &error)) << stale;
    EXPECT_NE(error.find("backend"), std::string::npos) << error;
    EXPECT_TRUE(tuning_table().empty()) << stale;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ookami::dispatch
