#pragma once
// Analytic cost model for task-graph vs bulk-synchronous execution of a
// phased workload (the taskgraph_bench model).
//
// A bulk-synchronous run pays one fork/join per phase per step on top
// of the parallelized work, priced by spin_fork_join_s (the shape of
// the ThreadPool's countdown join).  A dependency-graph run pays ONE
// fork/join for the whole thing, and its wall time is bounded below by
// Brent's theorem: max(T1/p, T-inf), where T1 is the total serial work
// and T-inf the critical path — here, one chunk's worth of every phase in
// sequence, since a chunk of phase N+1 starts as soon as its producers
// in phase N finish.  On top of the bound the graph pays a per-task
// dispatch cost (ready-queue pop, in-degree countdown, wakeup),
// amortized across the workers.
//
// The model exists to be *checked*: taskgraph_bench archives these
// numbers next to measured wall times.

#include <cstddef>
#include <vector>

#include "ookami/perf/machine.hpp"

namespace ookami::perf {

/// One bulk-synchronous phase of the workload's step loop.
struct PhaseSpec {
  double work_s = 0.0;      ///< single-threaded (T1) seconds of the phase
  std::size_t chunks = 1;   ///< tasks the graph splits the phase into
};

/// Modeled wall times of one workload under both orchestrations.
struct GraphTimes {
  double barrier_s = 0.0;        ///< bulk-synchronous: work/p + a join per phase
  double graph_s = 0.0;          ///< Brent bound + amortized task dispatch
  double critical_path_s = 0.0;  ///< T-inf: one chunk of every phase in sequence

  /// Modeled speedup of graph over barrier execution (> 1 = graph wins).
  [[nodiscard]] double speedup() const { return graph_s > 0.0 ? barrier_s / graph_s : 0.0; }
};

/// Model a step loop of `steps` iterations over `phases`, run with
/// `threads` workers.
GraphTimes model_phase_graph(const MachineModel& m, const std::vector<PhaseSpec>& phases,
                             int steps, int threads);

/// Modeled wall time (seconds) of one empty fork/join over `threads`
/// threads: every arrival is an RMW on one contended line (serialized
/// cache-to-cache transfers, O(threads)), then a log-depth release
/// broadcast, priced by the machine's clock.
double spin_fork_join_s(const MachineModel& m, int threads);

/// Modeled per-task dispatch cost (seconds) of the TaskGraph executor
/// on `m`: ready-queue mutex hold + in-degree countdown + share of the
/// condvar wakeups.  Exposed so benches can archive it.
double task_dispatch_s(const MachineModel& m);

}  // namespace ookami::perf
