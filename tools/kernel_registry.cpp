// kernel_registry — introspection CLI over the process-wide kernel
// registry (src/dispatch).
//
//   kernel_registry             # manifest: name<TAB>scalar[,avx2[,avx512]]
//   kernel_registry --resolved  # name<TAB>backend the kernel resolves to
//                               # right now (its widest variant the CPU
//                               # supports, capped by OOKAMI_SIMD_BACKEND)
//   kernel_registry --checks    # name<TAB>tolerance of the registered
//                               # equivalence check ("-" when missing)
//
// Any other flag is an error (exit 2), so a script asking for an output
// this tool does not produce never gets the manifest instead.
//
// The binary links every kernel-owning module, so its default output is
// the authoritative list of kernels compiled into this tree; CI diffs it
// against tools/kernel_manifest.expected to catch variants that silently
// fell out of the build (a renamed anchor, a dropped TU, a CMake edit).

#include <cstdio>

#include "ookami/common/cli.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/hpcc/hpcc.hpp"
#include "ookami/loops/kernels.hpp"
#include "ookami/lulesh/lulesh.hpp"
#include "ookami/npb/cg.hpp"
#include "ookami/vecmath/vecmath.hpp"

// Kernels register from the module TU that declares their kernel_table;
// referencing one symbol per TU pulls each archive member (and with it
// the registration anchors) into this binary.  External linkage keeps
// the otherwise-unused array — and its relocations — alive.
extern const void* const kKernelLinkAnchors[];
const void* const kKernelLinkAnchors[] = {
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

int main(int argc, char** argv) {
  const ookami::Cli cli(argc, argv);
  namespace dispatch = ookami::dispatch;
  if (const auto bad = cli.unknown({"help", "resolved", "checks"}); !bad.empty()) {
    std::fprintf(stderr, "%s: unknown option --%s (see --help)\n", cli.program().c_str(),
                 bad.front().c_str());
    return 2;
  }
  if (cli.has("help")) {
    std::printf(
        "usage: %s [--resolved | --checks]\n"
        "  (default)   kernel manifest: name<TAB>scalar[,avx2[,avx512]]\n"
        "  --resolved  backend each kernel resolves to right now\n"
        "  --checks    registered equivalence-check tolerance per kernel\n",
        cli.program().c_str());
    return 0;
  }
  if (cli.has("resolved")) {
    for (const dispatch::KernelInfo& k : dispatch::kernels()) {
      std::printf("%s\t%s\n", k.name.c_str(),
                  ookami::simd::backend_name(dispatch::resolved_backend(k.name)));
    }
    return 0;
  }
  if (cli.has("checks")) {
    for (const dispatch::KernelInfo& k : dispatch::kernels()) {
      if (k.has_check) {
        std::printf("%s\t%g\n", k.name.c_str(), k.check_tolerance);
      } else {
        std::printf("%s\t-\n", k.name.c_str());
      }
    }
    return 0;
  }
  std::printf("%s", dispatch::manifest().c_str());
  return 0;
}
