// Registry-driven equivalence suite: every kernel registered in this
// binary must carry an equivalence check, and every registered native
// variant the CPU can run must agree with the scalar reference within
// the tolerance the module declared.  The test is module-agnostic — new
// kernels are covered the moment their registration lands, with no test
// edit — which is the point of hoisting dispatch into one registry.

#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <vector>

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

TEST(RegistryManifest, EveryCalibrationProbeIsBounded) {
  // A calibration runs inside the first sized call of a kernel, so its
  // probe must not grow with the caller's n: every cost model (which
  // prices the probe) must be flat beyond 2^22 and stay cache-scale.
  int priced = 0;
  for (const dispatch::KernelInfo& k : dispatch::kernels()) {
    if (!module_kernel(k) || !k.has_cost) continue;
    const dispatch::CostFn cost = dispatch::cost(k.name);
    ASSERT_NE(cost, nullptr) << k.name;
    const dispatch::TuneCost at22 = cost(std::size_t{1} << 22);
    const dispatch::TuneCost at30 = cost(std::size_t{1} << 30);
    EXPECT_EQ(at30.bytes, at22.bytes) << k.name << " probe traffic grows with n";
    EXPECT_EQ(at30.flops, at22.flops) << k.name << " probe work grows with n";
    EXPECT_LE(at30.bytes, 16.0 * 1024 * 1024) << k.name;
    ++priced;
  }
  EXPECT_GT(priced, 0) << "no kernel registered a cost model";
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
