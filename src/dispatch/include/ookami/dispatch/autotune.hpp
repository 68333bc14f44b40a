#pragma once
// Names the benchmark runner (perfbench/src) still calls from the
// removed runtime autotuner.  Resolution no longer depends on the call's
// size, so this header holds no state: it reports no calibrations, an
// empty tuning table and one size-class-0 row per registered kernel.
// It goes when the benchmark runner stops calling these names; nothing
// else includes it.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "ookami/dispatch/registry.hpp"

namespace ookami::dispatch {

/// A (kernel, size class) pair the runner times a warm resolve for.
struct TuneRow {
  std::string kernel;
  int size_class = 0;
};

/// One size-class-0 row per registered kernel.
inline std::vector<TuneRow> tuning_table() {
  std::vector<TuneRow> rows;
  for (const KernelInfo& k : kernels()) rows.push_back({k.name, 0});
  return rows;
}

/// Calibrations run by this process: there are none.
inline std::size_t calibration_count() { return 0; }

/// Nothing to reset.
inline void reset_autotune_for_testing() {}

/// Nothing to serialise.
inline std::string dump_tune_table() { return ""; }

/// resolved_backend(name): the element count does not change the answer.
inline simd::Backend resolved_backend(std::string_view name, std::size_t /*n*/) {
  return resolved_backend(name);
}

}  // namespace ookami::dispatch
