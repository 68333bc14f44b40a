#pragma once
// Per-kernel backend override rules, parsed from OOKAMI_KERNEL_BACKEND.
//
// The variable holds a comma-separated list of `pattern=backend` rules:
//
//   OOKAMI_KERNEL_BACKEND="hpcc.dgemm=avx2,vecmath.*=scalar"
//
// A pattern is either a full kernel name or a glob where `*` matches any
// run of characters (so `vecmath.*` covers every vecmath kernel and `*`
// covers everything).  Precedence when several rules match one kernel:
// an exact (glob-free) pattern always beats a glob, a glob with more
// literal characters beats a less specific one, and among equally
// specific rules the later one wins — so appending a rule refines an
// existing spec without having to rewrite it.
//
// Parsing never fails: malformed entries (`foo=`, `=avx2`, a bare word,
// an unknown backend name) are skipped and reported through the optional
// `errors` out-parameter, matching the clamping philosophy of the SIMD
// layer — a bad env var degrades, it does not abort a BENCH job.  A rule
// naming a kernel that does not exist simply never matches.

#include <string>
#include <string_view>
#include <vector>

#include "ookami/simd/backend.hpp"

namespace ookami::dispatch {

/// One parsed `pattern=backend` rule.
struct OverrideRule {
  std::string pattern;
  simd::Backend backend = simd::Backend::kScalar;
  bool is_glob = false;     ///< pattern contains at least one '*'
  int specificity = 0;      ///< literal (non-'*') characters in the pattern
};

/// Ordered rule list with precedence-aware lookup.
struct OverrideSet {
  std::vector<OverrideRule> rules;

  /// Most specific rule matching `kernel`, if any: writes the requested
  /// (pre-clamp) backend to `out` and returns true.
  bool lookup(std::string_view kernel, simd::Backend& out) const;

  [[nodiscard]] bool empty() const { return rules.empty(); }
};

/// True when `name` matches `pattern` ('*' = any run of characters).
bool glob_match(std::string_view pattern, std::string_view name);

/// Parse an OOKAMI_KERNEL_BACKEND-style spec.  Malformed entries are
/// skipped; each is described in `*errors` when `errors` is non-null.
OverrideSet parse_overrides(std::string_view spec, std::vector<std::string>* errors = nullptr);

/// The process-wide rule set parsed (once) from OOKAMI_KERNEL_BACKEND;
/// parse errors are reported to stderr on first use.
const OverrideSet& env_overrides();

/// Test hook: replace the active rule set (normally env_overrides())
/// and invalidate every kernel's cached rule lookup.  Once called, the
/// environment variable is no longer consulted for the rest of the
/// process — pass an empty set to run with no per-kernel overrides.
void set_overrides_for_testing(OverrideSet set);

}  // namespace ookami::dispatch
