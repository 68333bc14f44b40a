#pragma once
// Process-wide kernel registry: the single dispatch layer behind every
// native SIMD backend in the tree.
//
// Before this layer each hot module (loops, lulesh, hpcc, npb, vecmath)
// hand-rolled the same pattern: a function-pointer table per compiled
// backend plus a `switch (simd::active_backend())`.  The registry keeps
// the mechanics — per-arch TUs still own the arch-flagged code, the
// scalar path is still the caller's original loop — but hoists the
// table, the resolution policy, and the introspection into one place:
//
//   // call site (module main TU): declare the kernel once
//   using Fig1Fn = void(LoopKind, const double*, double*, const std::uint32_t*, std::size_t);
//   const dispatch::kernel_table<Fig1Fn> kFig1("loops.fig1");
//   ...
//   if (auto* fn = kFig1.resolve()) { fn(...); return; }  // nullptr => scalar reference
//
//   // per-arch TU (compiled with the matching ISA flags): register a variant
//   OOKAMI_DISPATCH_VARIANT_TU(loops_avx2)
//   static const dispatch::variant_registrar<Fig1Fn> reg(
//       "loops.fig1", simd::Backend::kAvx2, &run_fig1_impl<simd::arch::avx2>);
//
//   // call-site TU: force the per-arch archive members to link
//   OOKAMI_DISPATCH_USE_VARIANTS(loops_avx2)
//
// Resolution for a kernel keeps the PR-4 precedence, now per kernel:
//
//   1. a simd::ScopedBackend override (tests forcing one backend),
//   2. a matching OOKAMI_KERNEL_BACKEND rule (see override.hpp),
//   3. the global OOKAMI_SIMD_BACKEND / CPUID choice,
//
// always clamped down to the best *registered* variant the CPU supports
// (never an error), and down to scalar — resolve() returning nullptr —
// when nothing native fits.  Because the scalar fallback stays in the
// caller, the scalar backend remains byte-for-byte the original code.
//
// Modules may additionally register an equivalence check — a callback
// that runs the kernel under a forced backend and under scalar and
// returns the worst observed error — so tests/registry_equivalence_test
// can cross-check every (kernel, variant) pair in the binary without
// being taught about any module.

#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "ookami/simd/backend.hpp"

namespace ookami::dispatch {

/// Type-erased kernel entry point; cast back through the declared
/// signature by kernel_table<Sig>::resolve().
using AnyFn = void (*)();

/// Equivalence check: run the kernel under backend `b` and under the
/// scalar reference, return the worst error in the kernel's own units
/// (ULP for math kernels, relative/absolute error for solvers).  The
/// callback forces the backend itself (simd::ScopedBackend).
using CheckFn = double (*)(simd::Backend b);

/// Introspection row: one registered kernel.
struct KernelInfo {
  std::string name;
  std::vector<simd::Backend> variants;  ///< registered native variants, ascending
  bool has_check = false;
  double check_tolerance = 0.0;
};

/// How a resolution arrived at its backend (for the harness archive).
enum class Provenance {
  kScoped,   ///< simd::ScopedBackend override
  kEnvRule,  ///< OOKAMI_KERNEL_BACKEND rule
  kCeiling,  ///< global OOKAMI_SIMD_BACKEND / CPUID choice
};

/// Stable lower-case token ("scoped", "env-rule", "ceiling").
const char* provenance_name(Provenance p);

namespace detail {

struct Entry;  // registry internals (registry.cpp)

/// Find-or-create the entry for `name` (thread-safe; names are interned
/// for the process lifetime).
Entry* entry(std::string_view name);

/// Record the call-site signature of the kernel; aborts with a
/// diagnostic if a previous declaration or variant disagrees.
void declare(Entry* e, const std::type_info& sig);

/// Register a native variant; aborts on a signature mismatch or a
/// duplicate (kernel, backend) registration.
void add_variant(Entry* e, simd::Backend b, AnyFn fn, const std::type_info& sig);

/// Attach the equivalence check for the kernel.
void add_check(Entry* e, CheckFn fn, double tolerance);

/// Resolve the backend for `e` under the precedence rules above and
/// return the variant function (nullptr => scalar reference path).
/// `used` receives the post-clamp backend, scalar included.
AnyFn resolve(Entry* e, simd::Backend& used, const std::type_info& sig);

}  // namespace detail

/// Typed handle to one registered kernel.  Construct once per call site
/// (a namespace-scope const in the module's main TU doubles as the
/// kernel declaration for introspection).
template <class Sig>
class kernel_table {
 public:
  explicit kernel_table(const char* name) : entry_(detail::entry(name)) {
    detail::declare(entry_, typeid(Sig*));
  }

  /// Variant for the currently resolved backend, or nullptr when the
  /// resolution is scalar — callers keep their original reference code.
  Sig* resolve() const {
    simd::Backend used;
    return resolve(used);
  }

  /// As resolve(), also reporting the post-clamp backend (scalar when
  /// the return value is nullptr).
  Sig* resolve(simd::Backend& used) const {
    return reinterpret_cast<Sig*>(detail::resolve(entry_, used, typeid(Sig*)));
  }

 private:
  detail::Entry* entry_;
};

/// Registers a native variant at static initialization; instantiate one
/// per (kernel, backend) in the per-arch TU.
template <class Sig>
struct variant_registrar {
  variant_registrar(const char* name, simd::Backend b, Sig* fn) {
    detail::Entry* e = detail::entry(name);
    detail::add_variant(e, b, reinterpret_cast<AnyFn>(fn), typeid(Sig*));
  }
};

/// Registers the kernel's equivalence check at static initialization;
/// instantiate one per kernel next to the kernel_table declaration.
struct check_registrar {
  check_registrar(const char* name, CheckFn fn, double tolerance) {
    detail::add_check(detail::entry(name), fn, tolerance);
  }
};

// --- Introspection -------------------------------------------------------

/// All registered kernels, sorted by name.
std::vector<KernelInfo> kernels();

/// Registered native variants of `name` (empty for unknown kernels).
std::vector<simd::Backend> variants(std::string_view name);

/// Post-clamp backend `name` would use right now (kScalar for unknown
/// kernels, which only have the reference path anyway).
simd::Backend resolved_backend(std::string_view name);

/// Equivalence check of `name`, or nullptr when none is registered.
/// `tolerance` (optional) receives the registered bound.
CheckFn check(std::string_view name, double* tolerance = nullptr);

/// One line per kernel — "name<TAB>scalar,avx2,avx512" sorted by name —
/// the stable manifest format behind the harness --list-kernels mode and
/// the CI registry self-check.  Scalar is listed first on every kernel:
/// the reference path always exists.
std::string manifest();

// --- Series observation (harness support) --------------------------------

/// One observed resolution: which backend the kernel used and which
/// precedence step chose it.
struct Observation {
  std::string kernel;
  simd::Backend backend = simd::Backend::kScalar;
  Provenance provenance = Provenance::kCeiling;
};

/// Between begin_observation() and take_observation() every resolve()
/// records its (kernel, post-clamp backend, provenance).  The harness
/// brackets each timed series with this to archive which variant the
/// series actually exercised and why.  Observations dedupe by kernel
/// (last resolution wins); scalar resolutions are recorded too.  Not
/// reentrant — one observer at a time, which the single-threaded
/// harness driver guarantees.
void begin_observation();
std::vector<Observation> take_observation();

}  // namespace ookami::dispatch

// Archive-member anchors.  Static registration from a static library is
// only seen by the linker if something pulls the object file in; the
// per-arch variant TU defines an anchor and the always-linked call-site
// TU references it (under the matching OOKAMI_SIMD_HAVE_* guard).
#define OOKAMI_DISPATCH_VARIANT_TU(tag) \
  namespace ookami::dispatch::anchors { \
  int tag() { return 0; }               \
  }
#define OOKAMI_DISPATCH_USE_VARIANTS(tag)                    \
  namespace ookami::dispatch::anchors {                      \
  int tag();                                                 \
  }                                                          \
  namespace {                                                \
  [[maybe_unused]] const int ookami_dispatch_use_##tag =     \
      ::ookami::dispatch::anchors::tag();                    \
  }
