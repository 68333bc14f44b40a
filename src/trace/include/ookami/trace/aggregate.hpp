#pragma once
// Trace aggregation: per-region call counts, inclusive/exclusive wall
// time, and a roofline "bound by memory or compute" verdict derived
// from the bytes/flops annotations plus a machine's peak numbers.
//
// Exclusive time is the attribution metric (a parent region is not
// charged for its children), computed per thread by replaying the
// properly nested scope structure.  The roofline side deliberately
// takes a tiny `Roofline` struct rather than ookami::perf's full
// MachineModel so this library stays below ookami_common in the
// dependency order; harness/profile.cpp converts a MachineModel into a
// Roofline (cf. src/perf/machine.hpp for where the constants come
// from).

#include <cstdint>
#include <string>
#include <vector>

#include "ookami/trace/trace.hpp"

namespace ookami::trace {

/// The two peak numbers a roofline verdict needs.
struct Roofline {
  std::string machine;          ///< label for reports ("a64fx", ...)
  double peak_gflops = 0.0;     ///< per-core double-precision peak
  double mem_bw_gbs = 0.0;      ///< single-core sustainable memory bandwidth

  /// Machine balance in flop/byte: regions with lower arithmetic
  /// intensity are bandwidth-limited.
  [[nodiscard]] double balance() const {
    return mem_bw_gbs > 0.0 ? peak_gflops / mem_bw_gbs : 0.0;
  }
};

enum class Bound {
  kUnknown,  ///< region carries no bytes/flops annotations
  kMemory,   ///< arithmetic intensity below the machine balance
  kCompute,  ///< at or above the machine balance
};

const char* bound_name(Bound b);

/// Aggregated statistics of one region name.
struct RegionStats {
  std::string name;
  std::uint64_t count = 0;
  double inclusive_s = 0.0;  ///< sum of region durations
  double exclusive_s = 0.0;  ///< inclusive minus time spent in child regions
  double min_s = 0.0;        ///< fastest single instance
  double max_s = 0.0;        ///< slowest single instance
  double bytes = 0.0;        ///< summed annotations
  double flops = 0.0;
  unsigned threads = 0;      ///< distinct threads that recorded the region

  // Roofline attribution (derived from annotations + exclusive time).
  double intensity = 0.0;    ///< flop/byte; 0 when unannotated
  double gflops = 0.0;       ///< achieved, charged to exclusive time
  double gbs = 0.0;          ///< achieved bandwidth, charged to exclusive time
  Bound bound = Bound::kUnknown;
};

/// Aggregated statistics of one injected-span name (record_graph_span
/// output: the tasks of a dependency-graph run).  Spans are not part of
/// any thread's RAII nesting, so they carry no exclusive time —
/// grouping them with the scope regions would corrupt the
/// exclusive-time replay (a span's interval may overlap scopes it did
/// not run inside).  They get their own table.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;     ///< summed span durations
  double min_s = 0.0;       ///< shortest single span
  double max_s = 0.0;       ///< longest single span
  unsigned threads = 0;     ///< distinct recording threads
};

/// One hop of a reconstructed critical path (execution order).
struct GraphHop {
  std::string name;        ///< task (phase) name
  std::uint32_t task = 0;  ///< task index within the graph
  double start_s = 0.0;    ///< offset from the graph's first task start
  double seconds = 0.0;    ///< task duration
};

/// Aggregated statistics of one task-graph run (record_graph_span
/// output).  The critical path is reconstructed at aggregation time by
/// walking the critical-parent chain backward from the last-finishing
/// task: each task's `dep` names the dependency whose completion made
/// it ready, so the chain is the dependency sequence that bounded the
/// run's wall time from below.
struct GraphStats {
  std::uint32_t id = 0;          ///< graph run id
  std::uint64_t tasks = 0;       ///< executed tasks seen in the trace
  double total_s = 0.0;          ///< summed task durations (serial work T1)
  double wall_s = 0.0;           ///< max(end) - min(start) over the graph's tasks
  double critical_path_s = 0.0;  ///< summed durations along the chain (T-inf)
  std::vector<GraphHop> critical_path;  ///< source -> sink
  unsigned threads = 0;          ///< distinct executing threads
};

/// A full aggregated profile.
struct Report {
  Roofline roofline;
  std::vector<RegionStats> regions;  ///< sorted by exclusive time, descending
  std::vector<SpanStats> spans;      ///< injected spans, by total time descending
  std::vector<GraphStats> graphs;    ///< task-graph runs, by critical path descending
  double wall_s = 0.0;               ///< max(end) - min(start) over all events
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

/// Aggregate raw events into a Report.  Events may arrive in any order;
/// they are re-sorted into the canonical per-thread (end asc, depth
/// desc) order the exclusive-time replay needs, so both live
/// collect() output and events re-parsed from a Chrome trace work.
/// Graph spans (record_graph_span) are aggregated into Report::spans
/// and Report::graphs and excluded from the region nesting replay.
Report aggregate(const std::vector<Event>& events, const Roofline& roofline,
                 std::uint64_t dropped_events = 0);

/// Plain-text region table (the `trace_summary` payload), followed by
/// the injected-span table when the trace contains spans and a one-line
/// digest per task-graph run.  `top_n` = 0 prints every region.
std::string render(const Report& report, std::size_t top_n = 0);

/// Plain-text hop-by-hop critical path of one task-graph run (the
/// `trace_summary --critical-path` payload).
std::string render_critical_path(const GraphStats& g);

}  // namespace ookami::trace
