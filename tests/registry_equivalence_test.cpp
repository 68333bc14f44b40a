// Registry-driven equivalence suite: every kernel registered in this
// binary must carry an equivalence check, and every registered native
// variant the CPU can run must agree with the scalar reference within
// the tolerance the module declared.  The test is module-agnostic — new
// kernels are covered the moment their registration lands, with no test
// edit — which is the point of hoisting dispatch into one registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "ookami/common/threadpool.hpp"
#include "ookami/dispatch/override.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/loops/kernels.hpp"
#include "ookami/lulesh/lulesh.hpp"
#include "ookami/npb/cg.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/vecmath/vecmath.hpp"

// Same trick as tools/kernel_registry.cpp: kernels register from the
// module TU that declares their kernel_table, and referencing one symbol
// per TU pulls each archive member (with its registration anchors) into
// this test binary.  External linkage keeps the array's relocations
// alive.
extern const void* const kEquivalenceLinkAnchors[];
const void* const kEquivalenceLinkAnchors[] = {
    reinterpret_cast<const void*>(&ookami::loops::fig1_loop_kinds),   // loops/kernels.cpp
    reinterpret_cast<const void*>(&ookami::hpcc::dgemm),              // hpcc/dgemm.cpp
    reinterpret_cast<const void*>(&ookami::npb::spmv),                // npb/cg.cpp
    reinterpret_cast<const void*>(&ookami::lulesh::run_sedov),        // lulesh/lulesh.cpp
    reinterpret_cast<const void*>(&ookami::vecmath::exp_array),       // vecmath/exp.cpp
    reinterpret_cast<const void*>(&ookami::vecmath::log_array),       // vecmath/log_pow.cpp
    reinterpret_cast<const void*>(&ookami::vecmath::sin_array),       // vecmath/trig.cpp
    reinterpret_cast<const void*>(&ookami::vecmath::exp2_array),      // vecmath/extra.cpp
    reinterpret_cast<const void*>(&ookami::vecmath::recip_array),     // vecmath/recip_sqrt.cpp
};

namespace {

using ookami::simd::Backend;
namespace dispatch = ookami::dispatch;
namespace simd = ookami::simd;

// dispatch_test registers throwaway "test.*" kernels when both run in
// one ctest binary; here each test filters to the real module kernels.
bool module_kernel(const dispatch::KernelInfo& k) {
  return k.name.rfind("test.", 0) != 0;
}

TEST(RegistryManifest, CoversEveryDispatchSite) {
  // The five families whose ad-hoc backend tables the registry replaced.
  const char* expected[] = {
      "loops.fig1",   "hpcc.dgemm",  "npb.cg.spmv",  "lulesh.kinematics",
      "vecmath.exp",  "vecmath.log", "vecmath.pow",  "vecmath.sin",
      "vecmath.cos",  "vecmath.exp2", "vecmath.expm1", "vecmath.log1p",
      "vecmath.tanh", "vecmath.recip", "vecmath.sqrt",
  };
  const std::string m = dispatch::manifest();
  for (const char* name : expected) {
    EXPECT_NE(m.find(std::string(name) + "\t"), std::string::npos)
        << name << " missing from the registry manifest:\n" << m;
  }

  std::size_t count = 0;
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (module_kernel(k)) ++count;
  }
  EXPECT_EQ(count, std::size(expected));
}

TEST(RegistryManifest, EveryKernelRegistersCompiledVariants) {
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (!module_kernel(k)) continue;
    std::vector<Backend> want;
    if (simd::backend_compiled(Backend::kAvx2)) want.push_back(Backend::kAvx2);
    if (simd::backend_compiled(Backend::kAvx512)) want.push_back(Backend::kAvx512);
    EXPECT_EQ(k.variants, want) << k.name << " registered an unexpected variant set";
  }
}

TEST(RegistryManifest, CallSitesResolveByTheStaticRule) {
  // One small call through every module entry point.  With no scoped
  // backend and no per-kernel rule, each call site must resolve by the
  // ceiling: the widest registered variant the CPU supports, capped at
  // the active (OOKAMI_SIMD_BACKEND / CPUID) backend, else scalar.
  // The empty rule set keeps a stray OOKAMI_KERNEL_BACKEND out of it.
  dispatch::set_overrides_for_testing({});
  std::vector<double> x(257), e(257), y(257);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 + 0.01 * static_cast<double>(i);
    e[i] = 1.5;
  }
  namespace vm = ookami::vecmath;
  dispatch::begin_observation();
  vm::exp_array(x, y);
  vm::log_array(x, y);
  vm::pow_array(x, e, y);
  vm::sin_array(x, y);
  vm::cos_array(x, y);
  vm::exp2_array(x, y);
  vm::expm1_array(x, y);
  vm::log1p_array(x, y);
  vm::tanh_array(x, y);
  vm::recip_array(x, y);
  vm::sqrt_array(x, y);
  {
    const std::size_t n = 16;
    std::vector<double> a(n * n, 0.5), b(n * n, 0.25), c(n * n);
    ookami::ThreadPool pool(1);
    ookami::hpcc::dgemm(ookami::hpcc::GemmImpl::kTuned, n, a.data(), b.data(), c.data(), pool);
    const ookami::npb::CsrMatrix m = ookami::npb::cg_makea(600, 8, 12.0);
    std::vector<double> v(static_cast<std::size_t>(m.n), 1.0), w(v.size());
    ookami::npb::spmv(m, v, w, pool);
  }
  ookami::lulesh::Options opt;
  opt.edge_elems = 6;
  opt.max_steps = 2;
  opt.variant = ookami::lulesh::Variant::kVect;
  (void)ookami::lulesh::run_sedov(opt);
  ookami::loops::LoopData d = ookami::loops::make_loop_data(ookami::loops::LoopKind::kSimple, 64);
  ookami::loops::run_sve(ookami::loops::LoopKind::kSimple, d);
  const std::vector<dispatch::Observation> observed = dispatch::take_observation();

  int checked = 0;
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (!module_kernel(k)) continue;
    Backend want = Backend::kScalar;
    for (Backend b : k.variants) {
      if (simd::backend_supported(b) && b <= simd::active_backend()) want = b;
    }
    const auto it = std::find_if(observed.begin(), observed.end(),
                                 [&](const dispatch::Observation& o) { return o.kernel == k.name; });
    ASSERT_NE(it, observed.end()) << k.name << " was not resolved by its call site";
    EXPECT_EQ(it->provenance, dispatch::Provenance::kCeiling)
        << k.name << " resolved by " << dispatch::provenance_name(it->provenance);
    EXPECT_EQ(it->backend, want) << k.name << " ran " << simd::backend_name(it->backend)
                                 << ", the rule gives " << simd::backend_name(want);
    ++checked;
  }
  EXPECT_EQ(checked, 15);
}

TEST(RegistryEquivalence, EveryKernelHasACheck) {
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (!module_kernel(k)) continue;
    EXPECT_TRUE(k.has_check) << k.name << " has no registered equivalence check";
    EXPECT_GE(k.check_tolerance, 0.0) << k.name;
  }
}

TEST(RegistryEquivalence, EverySupportedVariantMatchesScalar) {
  int exercised = 0;
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (!module_kernel(k) || !k.has_check) continue;
    double tol = 0.0;
    dispatch::CheckFn fn = dispatch::check(k.name, &tol);
    ASSERT_NE(fn, nullptr) << k.name;
    for (Backend b : k.variants) {
      if (!simd::backend_supported(b)) {
        // Registered-but-unsupported variants (e.g. an avx512 build on a
        // host without the ISA) are a visible gap in coverage, not a
        // silent one: say which pairs this run could not exercise.
        std::cout << "[ SKIPPED  ] " << k.name << " under " << simd::backend_name(b)
                  << ": compiled but not supported by this CPU\n";
        continue;
      }
      const double err = fn(b);
      EXPECT_LE(err, tol) << k.name << " under " << simd::backend_name(b)
                          << ": worst error " << err << " exceeds tolerance " << tol;
      ++exercised;
    }
  }
  if (simd::detected_backend() != Backend::kScalar) {
    EXPECT_GT(exercised, 0) << "no (kernel, variant) pair was exercised";
  }
}

}  // namespace
