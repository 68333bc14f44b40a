#pragma once
// Bridge between the trace/metrics subsystems and the harness's JSON
// world: converts a perf machine model into the trace aggregator's
// Roofline, renders an aggregated Report (optionally joined with
// measured hardware counters) as the result-file "profile" block,
// builds the "metrics" block and its Prometheus artifact, and rebuilds
// trace events from a saved Chrome trace document (the trace_summary
// read path).

#include <deque>
#include <string>
#include <vector>

#include "ookami/common/json.hpp"
#include "ookami/metrics/metrics.hpp"
#include "ookami/trace/aggregate.hpp"

namespace ookami::harness {

/// Roofline constants for a named machine model: "a64fx" (default),
/// "skylake" (the Gold 6140 comparison system), "knl" or "zen2" — the
/// Table III systems of src/perf/machine.cpp.  Throws
/// std::invalid_argument for unknown names.
trace::Roofline roofline_for(const std::string& machine);

/// Collect + aggregate the currently recorded trace against `machine`'s
/// roofline.  Call from a quiescent point (the harness calls it after
/// the bench body returns).
trace::Report collect_report(const std::string& machine);

/// Measured-side attachment for profile_to_json: per-region counters
/// from a RegionProfiler plus which backend produced them.
struct MeasuredProfile {
  metrics::Backend backend = metrics::Backend::kSoftware;
  std::string backend_reason;
  std::vector<metrics::RegionCounters> regions;
};

/// The additive "profile" block embedded in ookami-bench-1 documents:
///   {"machine": ..., "peak_gflops": ..., "mem_bw_gbs": ...,
///    "wall_s": ..., "events": N, "regions": [{"name", "count",
///    "inclusive_s", "exclusive_s", "bytes", "flops", "intensity",
///    "gflops", "gbs", "threads", "verdict"}, ...]}
/// With `measured`, the block gains "counter_backend"/
/// "counter_backend_reason" and every region that was sampled gains a
/// "measured" object: {"ipc", "instructions", "cycles",
/// "cache_miss_rate", "branch_miss_per_kinst", "page_faults", "gbs",
/// "intensity", "bound", "verdict"} — the measured-vs-modeled verdict
/// is "agree", "model-optimistic", "model-pessimistic", "unmeasured" or
/// "unmodeled" (see metrics::Verdict).
json::Value profile_to_json(const trace::Report& report,
                            const MeasuredProfile* measured = nullptr);

/// The additive "metrics" block: sampler backend + reason, whole-bench
/// counter totals with derived rates, and every histogram in the run's
/// registry as {"name", "count", "mean", "min", "p50", "p95", "p99",
/// "max", "buckets": [{"le", "count"}, ...]}.
json::Value metrics_to_json(const metrics::CounterSampler& sampler,
                            const metrics::CounterSet& totals,
                            const metrics::Registry& registry);

/// Prometheus text exposition of the same data (the METRICS_<name>.prom
/// artifact): the registry's metrics plus ookami_total_* counters and
/// an ookami_metrics_backend info gauge.
std::string metrics_to_prometheus(const metrics::CounterSampler& sampler,
                                  const metrics::CounterSet& totals,
                                  const metrics::Registry& registry);

/// Rebuild events from a parsed Chrome trace document — either the
/// {"traceEvents": [...]} object this kit writes or a bare event array.
/// Only "ph":"X" (complete) events are read; nesting depth is taken
/// from args.depth when present and reconstructed from interval
/// containment otherwise, so foreign traces aggregate correctly too.
/// `names` interns region names (Event::name points into it) and must
/// outlive the returned vector.
std::vector<trace::Event> events_from_chrome(const json::Value& doc,
                                             std::deque<std::string>& names);

}  // namespace ookami::harness
