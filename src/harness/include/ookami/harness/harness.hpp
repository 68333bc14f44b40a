#pragma once
// The shared benchmark harness every bench/ binary registers into.
//
// The paper's contribution is measurement, so the kit treats bench
// output as data: a registered bench describes its series (timed
// host-kernel runs or modelled/recorded metrics) through a Run, and the
// harness supplies the repeat/warmup protocol, Summary statistics,
// machine/environment capture, and structured emitters — JSON to
// bench_results/BENCH_<name>.json (the format tools/bench_diff gates
// on), a flat CSV, and the usual stdout rendering.
//
// Usage inside a bench translation unit:
//
//   OOKAMI_BENCH(fig1_simple_loops) {
//     run.record("simple/fujitsu", value, "rel");
//     run.time("host/exp", [&] { kernel(); });
//     run.check("Figure 1", claims);
//     return 0;
//   }
//
// The common main() (ookami_harness_main) parses --repeats/--warmup/
// --min-time/--out-dir/... and drives every bench registered in the
// binary.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ookami/common/cli.hpp"
#include "ookami/common/json.hpp"
#include "ookami/common/stats.hpp"
#include "ookami/common/table.hpp"
#include "ookami/metrics/registry.hpp"
#include "ookami/report/report.hpp"

namespace ookami::harness {

/// Whether a smaller or a larger value of a series is an improvement;
/// recorded in the JSON so bench_diff gates in the right direction.
enum class Direction { kLowerIsBetter, kHigherIsBetter };

/// Repeat/emission options shared by every bench binary.
struct Options {
  int repeats = 5;          ///< measured runs per timed series (count-based)
  int warmup = 1;           ///< untimed runs before measuring
  double min_time_s = 0.0;  ///< if > 0: keep repeating until this much measured time
  int max_repeats = 1000;   ///< safety cap for time-based repeats
  std::string out_dir = "bench_results";
  bool emit_json = true;
  bool emit_csv = true;
  bool strict_claims = false;  ///< nonzero exit when a paper-claim check fails
  bool keep_samples = true;    ///< archive raw per-repeat samples in the JSON
  /// Region tracing (--trace or OOKAMI_TRACE=1): record OOKAMI_TRACE_SCOPE
  /// events during the bench, embed the aggregated profile in the result
  /// JSON, and write a Chrome trace to TRACE_<name>.json.
  bool trace = false;
  int trace_top = 15;              ///< rows in the printed trace summary
  std::string trace_machine = "a64fx";  ///< roofline model for verdicts
  /// Hardware-counter metrics (--metrics or OOKAMI_METRICS=1): sample
  /// instructions/cycles/cache/branch/page-fault counters around the
  /// bench and per trace region, record per-repetition latency
  /// histograms, embed a "metrics" block plus per-region measured
  /// verdicts in the result JSON, and write METRICS_<name>.prom.
  /// Implies trace (region attribution needs regions).
  bool metrics = false;
  /// "auto" (perf_event with software fallback) or "software" (skip
  /// perf_event_open entirely; also OOKAMI_METRICS_BACKEND=software).
  std::string metrics_backend = "auto";

  /// Parse the standard harness flags; unknown options are ignored so
  /// benches can add their own.
  static Options from_cli(const Cli& cli);
  /// Human-readable flag reference for --help.
  static std::string usage();
  /// The flags usage() lists: the switches, which take no value, and the
  /// options, which take one.  A tool that embeds the harness names both
  /// to Cli and refuses every other flag.
  static std::vector<std::string> switches();
  static std::vector<std::string> options();
};

/// Captured execution environment, archived with every result file.
struct Environment {
  std::string host;
  std::string os;
  std::string arch;
  std::string compiler;
  std::string cxx_flags;
  std::string build_type;
  std::string git_rev;
  std::string timestamp_utc;
  /// Active SIMD backend ("scalar"/"avx2"/"avx512") resolved at capture
  /// time: override > OOKAMI_SIMD_BACKEND > CPUID detection.
  std::string simd_backend;
  /// CPUs the affinity mask grants (ookami::usable_cpus()).
  unsigned hardware_threads = 0;
  /// Runtime environment variables that affect results (OOKAMI_THREADS,
  /// OOKAMI_TRACE, OMP_*), captured so archived JSON identifies how a
  /// run was configured; only variables actually set are recorded.
  std::vector<std::pair<std::string, std::string>> runtime_env;

  [[nodiscard]] json::Value to_json() const;
};

/// Capture the current machine/build environment.
Environment capture_environment();

/// Wall-clock start of this harness process (ISO-8601 UTC), captured on
/// first use; run_main anchors it at entry.  Archived in every result's
/// environment block so runs correlate with external monitoring.
const std::string& harness_start_utc();
/// Seconds elapsed since the harness start anchor.
double harness_uptime_s();

/// One measured or recorded series of a bench run.
struct Series {
  std::string name;
  std::string unit;
  std::string kind;  ///< "timed" or "recorded"
  Direction direction = Direction::kLowerIsBetter;
  Summary stats;
  /// SIMD backend the series actually exercised.  Timed series that
  /// resolved registry kernels report the observed post-clamp variant
  /// ("mixed" when different kernels resolved differently, e.g. one
  /// kernel registered no variant as wide as the others); otherwise the
  /// backend active when the series was registered.
  std::string backend;
  /// Registry kernels resolved while the series ran, as (kernel,
  /// post-clamp backend) pairs — empty when the series touched none.
  std::vector<std::pair<std::string, std::string>> kernel_backends;

  [[nodiscard]] json::Value to_json(bool keep_samples) const;
};

/// A single bench execution: collects series and claim checks, then
/// emits them. Created by the harness main; benches only use the
/// reference handed to them.
class Run {
public:
  Run(std::string name, Options opts);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Time `fn` under the warmup+repeat protocol and register the
  /// series; returns the statistics for further reporting.
  const Summary& time(const std::string& series, const std::function<void()>& fn,
                      const std::string& unit = "s");

  /// Register a single recorded (typically modelled) value.
  void record(const std::string& series, double value, const std::string& unit = "",
              Direction direction = Direction::kLowerIsBetter);

  /// Register an externally produced Summary (e.g. timings a substrate
  /// reported itself).
  void record_summary(const std::string& series, const Summary& stats,
                      const std::string& unit = "s", const char* kind = "timed",
                      Direction direction = Direction::kLowerIsBetter);

  /// Register every populated (group, series) cell of a GroupedSeries
  /// as a recorded series named "<group>/<series>".
  void record_grouped(const GroupedSeries& g, const std::string& unit = "",
                      Direction direction = Direction::kLowerIsBetter);

  /// Attach free-form metadata ("class": "C", "threads": "48", ...).
  void note(const std::string& key, const std::string& value);

  /// Render the paper-claim table to stdout and archive the checks;
  /// failures flip the exit code only under --strict-claims.
  void check(const std::string& title, const std::vector<report::ClaimCheck>& claims);

  /// Attach an aggregated trace profile (see profile.hpp); emitted as
  /// the additive "profile" block of the result JSON.
  void attach_profile(json::Value profile) { profile_ = std::move(profile); }

  /// Attach the counter-metrics document (see profile.hpp); emitted as
  /// the additive "metrics" block of the result JSON.
  void attach_metrics(json::Value metrics) { metrics_doc_ = std::move(metrics); }

  /// Per-run metric registry.  Under --metrics, time() feeds every
  /// repeat into the "latency/<series>" histogram here; benches may add
  /// their own counters/gauges/histograms — everything lands in the
  /// metrics block and the Prometheus artifact.
  [[nodiscard]] metrics::Registry& metrics_registry() { return metrics_; }
  [[nodiscard]] const metrics::Registry& metrics_registry() const { return metrics_; }

  [[nodiscard]] const std::vector<Series>& series() const { return series_; }
  [[nodiscard]] int claims_failed() const { return claims_failed_; }

  /// Full result document (the BENCH_<name>.json payload).
  [[nodiscard]] json::Value to_json() const;
  /// Flat per-series statistics table (the BENCH_<name>.csv payload).
  [[nodiscard]] std::string to_csv() const;

  /// Write the configured artifacts; returns the bench exit code.
  int finish();

private:
  std::string name_;
  Options opts_;
  Environment env_;
  std::vector<Series> series_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<report::ClaimCheck> claims_;
  int claims_failed_ = 0;
  json::Value profile_;      ///< null until attach_profile()
  json::Value metrics_doc_;  ///< null until attach_metrics()
  metrics::Registry metrics_;
};

/// A bench body: fills the Run, returns an exit status (0 = success).
using BenchFn = int (*)(Run&);

/// Register a bench under `name`; invoked by OOKAMI_BENCH at static
/// initialization. Returns an arbitrary value so it can seed a global.
int register_bench(const char* name, BenchFn fn);

/// Names of the benches registered in this binary, in registration order.
std::vector<std::string> registered_benches();

/// Parse harness options and execute every registered bench (optionally
/// filtered); the common main() delegates here.
int run_main(int argc, char** argv);

}  // namespace ookami::harness

/// Define and register a bench body. The body receives `run` (a
/// harness::Run&) and must return an int exit status.
#define OOKAMI_BENCH(bench_name)                                                      \
  static int ookami_bench_body_##bench_name(::ookami::harness::Run& run);             \
  [[maybe_unused]] static const int ookami_bench_reg_##bench_name =                   \
      ::ookami::harness::register_bench(#bench_name, &ookami_bench_body_##bench_name); \
  static int ookami_bench_body_##bench_name(::ookami::harness::Run& run)
