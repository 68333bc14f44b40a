#pragma once
// Run-condition stamp and guard.  Every result records the conditions
// it was measured under; a run whose conditions would make its numbers
// incomparable (an OOKAMI_* override in the environment, more threads
// than hardware threads, an unoptimised build) is refused.

#include <string>
#include <utility>
#include <vector>

#include "ookami/common/json.hpp"

namespace perfbench {

struct Stamp {
  unsigned nproc = 0;    ///< hardware threads this process may run on
  unsigned threads = 0;  ///< threads the workload uses
  std::string build_type;
  std::string cxx_flags;
  std::string git_rev;
  std::string source_id;  ///< content hash of the program sources (from run.py)
  std::string compiler;
  std::vector<std::pair<std::string, std::string>> ookami_env;  ///< OOKAMI_* set
  std::vector<std::pair<std::string, std::string>> backends;    ///< kernel -> resolved
  std::string autotune_table;  ///< dispatch::dump_tune_table() after the run

  [[nodiscard]] ookami::json::Value to_json() const;
};

/// Hardware threads available to this process (affinity mask).
unsigned available_threads();

/// Capture build facts and the environment; backends and the autotune
/// table are filled by refresh_dispatch() once the workload has run.
Stamp capture_stamp(unsigned threads, const std::string& source_id);

/// Record the resolved backend per registered kernel and the autotune table.
void refresh_dispatch(Stamp& stamp);

/// Reasons the run must not produce numbers (empty = run may proceed).
std::vector<std::string> guard_problems(const Stamp& stamp);

}  // namespace perfbench
