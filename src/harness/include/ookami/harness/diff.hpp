#pragma once
// Regression gate over two harness result files.  Compares matching
// series by a chosen statistic (median by default), honouring each
// series' better-is-lower/higher direction, and reports which series
// regressed beyond a threshold.  tools/bench_diff is a thin CLI over
// this; CI runs it between the committed baseline and a fresh run.

#include <string>
#include <vector>

#include "ookami/common/json.hpp"

namespace ookami::harness {

struct DiffOptions {
  double threshold = 0.10;      ///< relative slack before a change counts as a regression
  std::string metric = "median";  ///< "median", "mean", "min" or "max"
  /// Treat series absent from `after` (removed) as regressions.  Series
  /// present only in `after` (added) are always informational — a new
  /// benchmark is not a regression.  The CLI exposes this as --strict.
  bool fail_on_missing = false;
};

/// Per-series comparison outcome.
struct SeriesDelta {
  enum class Status {
    kOk,            ///< within threshold
    kImprovement,   ///< beyond threshold in the good direction
    kRegression,    ///< beyond threshold in the bad direction
    kMissingBefore, ///< series only present in `after` (new benchmark)
    kMissingAfter,  ///< series only present in `before` (removed benchmark)
    kNoData,        ///< one side has a null metric (empty Summary)
  };

  std::string name;
  std::string unit;
  double before = 0.0;
  double after = 0.0;
  double ratio = 0.0;  ///< after / before
  Status status = Status::kOk;
  /// Recorded "backend" of the series on each side ("" when the file
  /// predates the field).  A change is reported as a warning, never a
  /// gate failure: the numbers are still comparable measurements, but a
  /// kernel that silently moved from avx2 to scalar explains a slowdown
  /// better than any threshold does.
  std::string backend_before;
  std::string backend_after;
  bool backend_changed = false;
};

struct DiffReport {
  std::string before_name;
  std::string after_name;
  std::string metric;
  double threshold = 0.0;
  std::vector<SeriesDelta> deltas;
  int regressions = 0;
  int added = 0;    ///< series only in `after` (informational)
  int removed = 0;  ///< series only in `before` (gates under fail_on_missing)
  int backend_changes = 0;  ///< shared series whose recorded backend differs (warning)

  [[nodiscard]] bool ok() const { return regressions == 0; }
};

/// Compare two parsed harness documents (schema "ookami-bench-1").
/// Throws std::runtime_error on schema violations.
DiffReport diff(const json::Value& before, const json::Value& after, const DiffOptions& opts);

/// Load and compare two BENCH_*.json files.  Throws std::runtime_error
/// on unreadable files and json::ParseError on malformed input.
DiffReport diff_files(const std::string& before_path, const std::string& after_path,
                      const DiffOptions& opts);

/// Human-readable comparison table plus a verdict line.
std::string render_diff(const DiffReport& report);

/// Machine-readable report (schema "ookami-diff-1") so CI can gate on
/// structured deltas instead of parsing the text table:
///   {"schema", "before", "after", "metric", "threshold", "ok",
///    "regressions", "added", "removed", "deltas": [{"name", "unit",
///    "status", "before", "after", "ratio"}, ...]}
/// before/after/ratio are null for series that were not compared.
json::Value diff_to_json(const DiffReport& report);

}  // namespace ookami::harness
