// kernel_registry — introspection CLI over the process-wide kernel
// registry (src/dispatch).
//
//   kernel_registry             # manifest: name<TAB>scalar[,avx2[,avx512]]
//   kernel_registry --resolved  # name<TAB>backend the kernel resolves to
//                               # right now (honours OOKAMI_SIMD_BACKEND,
//                               # OOKAMI_KERNEL_BACKEND and CPUID clamping)
//   kernel_registry --checks    # name<TAB>tolerance of the registered
//                               # equivalence check ("-" when missing)
//   kernel_registry --tune      # per-(kernel, size-class) autotune table
//                               # from OOKAMI_TUNE_FILE; exit 2 when the
//                               # file is malformed or unversioned.  Rows
//                               # whose kernel registered a cost model get
//                               # a roofline floor (--machine, default
//                               # a64fx) next to the measured winner and a
//                               # verdict: "agree" when the two are within
//                               # a factor of 2, "model-optimistic" /
//                               # "model-pessimistic" otherwise
//
// The binary links every kernel-owning module, so its default output is
// the authoritative list of kernels compiled into this tree; CI diffs it
// against tools/kernel_manifest.expected to catch variants that silently
// fell out of the build (a renamed anchor, a dropped TU, a CMake edit).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ookami/common/cli.hpp"
#include "ookami/dispatch/autotune.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/perf/graph_model.hpp"
#include "ookami/perf/machine.hpp"
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
  if (cli.has("help")) {
    std::printf(
        "usage: %s [--resolved | --checks | --tune [--machine M]]\n"
        "  (default)   kernel manifest: name<TAB>scalar[,avx2[,avx512]]\n"
        "  --resolved  backend each kernel resolves to right now\n"
        "  --checks    registered equivalence-check tolerance per kernel\n"
        "  --tune      autotune table (kernel, size-class, winner, measured us,\n"
        "              roofline model us, verdict) loaded strictly from\n"
        "              OOKAMI_TUNE_FILE; exit 2 when the file is malformed or\n"
        "              missing its ookami-tune-1 tag.  Kernels without a\n"
        "              registered cost model print \"-\" for model/verdict\n"
        "  --machine M roofline for the model column: a64fx (default),\n"
        "              skylake, knl or zen2\n",
        cli.program().c_str());
    return 0;
  }
  if (cli.has("tune")) {
    // Strict counterpart of the runtime's lazy loader: the runtime only
    // warns and degrades (resolution must never fail), but an operator
    // asking for the table wants the broken-file case to be loud.
    if (const char* path = std::getenv("OOKAMI_TUNE_FILE"); path != nullptr && *path != '\0') {
      std::string error;
      if (!dispatch::load_tune_file(path, &error)) {
        // The loader's diagnostic already names the path.
        std::fprintf(stderr, "kernel_registry: %s\n", error.c_str());
        return 2;
      }
    }
    const std::string machine = cli.get("machine", "a64fx");
    const ookami::perf::MachineModel* mm = nullptr;
    if (machine == "a64fx") {
      mm = &ookami::perf::a64fx();
    } else if (machine == "skylake") {
      mm = &ookami::perf::skylake_6140();
    } else if (machine == "knl") {
      mm = &ookami::perf::knl_7250();
    } else if (machine == "zen2") {
      mm = &ookami::perf::zen2_7742();
    } else {
      std::fprintf(stderr,
                   "kernel_registry: unknown --machine '%s' (want a64fx, skylake, "
                   "knl or zen2)\n",
                   machine.c_str());
      return 2;
    }
    std::printf("kernel\tsize_class\twinner\tmeasured_us\tmodel_us\tverdict\n");
    for (const dispatch::TuneRow& row : dispatch::tuning_table()) {
      std::string measured;
      double best_s = 0.0;
      for (const auto& [backend, seconds] : row.measured) {
        if (!measured.empty()) measured += ",";
        measured += ookami::simd::backend_name(backend);
        char buf[32];
        std::snprintf(buf, sizeof buf, "=%.3f", seconds * 1e6);
        measured += buf;
        if (backend == row.winner) best_s = seconds;
      }
      // Roofline floor of the row's size-class: the cost model describes
      // one TuneFn invocation at element count n, so evaluate it at the
      // class's lower bound (size_class_of(1 << c) == c) and take the
      // larger of the memory and compute times.
      std::string model = "-";
      std::string verdict = "-";
      if (dispatch::CostFn cost = dispatch::cost(row.kernel)) {
        const std::size_t n = std::size_t{1} << row.size_class;
        const dispatch::TuneCost c = cost(n);
        const double model_s = std::max(c.bytes / (mm->core_mem_bw_gbs * 1e9),
                                        c.flops / (mm->peak_gflops_core() * 1e9));
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", model_s * 1e6);
        model = buf;
        if (best_s > 0.0) {
          verdict = ookami::perf::time_verdict_name(
              ookami::perf::time_verdict(model_s, best_s));
        }
      }
      std::printf("%s\t%d\t%s\t%s\t%s\t%s\n", row.kernel.c_str(), row.size_class,
                  ookami::simd::backend_name(row.winner), measured.c_str(),
                  model.c_str(), verdict.c_str());
    }
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
