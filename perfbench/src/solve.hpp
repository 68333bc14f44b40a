#pragma once
// The in-process half of a workload: the paper's apps called through
// their public entry points, each call timed from outside and its
// output checked.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ookami/common/aligned.hpp"
#include "ookami/common/threadpool.hpp"
#include "ookami/loops/kernels.hpp"
#include "ookami/npb/npb.hpp"
#include "ookami/taskgraph/taskgraph.hpp"

namespace perfbench {

/// Problem sizes of the solve half of a workload.
struct SolveSizes {
  int lulesh_edge = 12;
  ookami::npb::Class cg_cls = ookami::npb::Class::kS;
  ookami::npb::Class sp_cls = ookami::npb::Class::kS;
  std::size_t dgemm_n = 128;
  std::size_t exp_n = 4096;
  std::size_t loops_n = 4096;
};

/// Sizes of workload "small" or "large"; throws on any other name.
SolveSizes solve_sizes(const std::string& workload);

/// Outcome tally of every output check the run made.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  void record(bool ok, const std::string& what);
};

/// One timed pass over every app.
struct PassTimes {
  double lulesh_s = 0.0;
  double cg_s = 0.0;
  double sp_s = 0.0;
  double dgemm_s = 0.0;                 ///< per call
  double exp_s = 0.0;                   ///< per call of exp_array
  std::array<double, 6> loop_s{};       ///< per call, one per Fig. 1 kind
};

class SolveSuite {
 public:
  /// `reference_checks` = false skips the std::exp / run_scalar
  /// comparisons (the set-up probe times warm-up, not checking).
  SolveSuite(const SolveSizes& sizes, unsigned threads, std::uint64_t seed,
             bool reference_checks = true);

  /// Call every app once (LULESH, CG, SP, DGEMM, exp, the six loops),
  /// timing and checking each call.  Small calls are repeated inside
  /// their timer (see calls_per_timer) so the clock resolves them.
  PassTimes run_pass(Checks& checks);

  /// Single timed calls, also used by the traced run.
  double lulesh(unsigned threads, ookami::taskgraph::Exec exec, Checks& checks) const;
  double cg(unsigned threads, Checks& checks) const;
  double sp(unsigned threads, ookami::taskgraph::Exec exec, Checks& checks) const;
  double dgemm(ookami::ThreadPool& pool, Checks& checks);
  double exp(Checks& checks);
  double loop(std::size_t kind_index, Checks& checks);

  [[nodiscard]] const SolveSizes& sizes() const { return sizes_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] ookami::ThreadPool& pool() { return pool_; }

 private:
  /// Inner repetitions for a call lasting `single_s`, so one timed
  /// sample covers at least a millisecond.
  static int calls_per_timer(double single_s);

  SolveSizes sizes_;
  unsigned threads_;
  ookami::ThreadPool pool_;
  bool reference_checks_;

  // DGEMM operands and the sampled entries checked after every call.
  std::vector<double> a_, b_, c_;
  std::vector<std::pair<std::size_t, std::size_t>> dgemm_probe_;
  int dgemm_reps_ = 0;

  // exp input, output and the fingerprint of the checked first output.
  ookami::avec<double> exp_x_, exp_y_;
  std::uint64_t exp_print_ = 0;
  int exp_reps_ = 0;

  // Loop data per Fig. 1 kind and fingerprints of the checked first outputs.
  std::vector<ookami::loops::LoopData> loop_data_;
  std::array<std::uint64_t, 6> loop_seeds_{};
  std::array<std::uint64_t, 6> loop_print_{};
  std::array<int, 6> loop_reps_{};
};

/// VmHWM of process `pid` ("self" for this one), MiB (0 when /proc is
/// unavailable).
double peak_rss_mb(const std::string& pid);

}  // namespace perfbench
