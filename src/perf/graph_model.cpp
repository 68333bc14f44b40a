#include "ookami/perf/graph_model.hpp"

#include <algorithm>
#include <cmath>

namespace ookami::perf {

namespace {

// Calibrated task dispatch cost: an uncontended mutex lock/unlock pair
// around the ready-queue pop (~50 cycles), the out-edge countdown RMWs
// (~60-cycle contended line transfer, kRmwAvgCyc), and an amortized
// share of a condvar wakeup when a pop finds the queue empty.  Order
// 200 ns at A64FX's 1.8 GHz — two decimal orders under the coarse chunk
// granularity the executor is meant for.
constexpr double kDispatchCyc = 300.0;
constexpr double kDispatchWakeUs = 0.1;  // amortized futex share

// Spin barrier: a contended RMW serializes one cache-to-cache line
// transfer per arrival.  ~60 cycles covers the average transfer on a
// machine where some hops cross a CMG/socket (A64FX cross-CMG is
// slower, same-CMG faster).  The release broadcast is a log-depth
// fan-out of the flipped sense line.
constexpr double kRmwAvgCyc = 60.0;
constexpr double kBroadcastCyc = 40.0;

}  // namespace

double spin_fork_join_s(const MachineModel& m, int threads) {
  if (threads <= 1) return 0.0;
  const double cycles = static_cast<double>(threads) * kRmwAvgCyc +
                        kBroadcastCyc * std::ceil(std::log2(static_cast<double>(threads)));
  return cycles / (m.freq_ghz * 1e9);
}

double task_dispatch_s(const MachineModel& m) {
  return kDispatchCyc / (m.freq_ghz * 1e9) + kDispatchWakeUs * 1e-6;
}

GraphTimes model_phase_graph(const MachineModel& m, const std::vector<PhaseSpec>& phases,
                             int steps, int threads) {
  GraphTimes t;
  if (steps <= 0 || threads <= 0 || phases.empty()) return t;
  const double p = static_cast<double>(threads);
  const double join = spin_fork_join_s(m, threads);

  double work_per_step = 0.0;       // T1 of one step
  double chunk_path_per_step = 0.0; // one chunk of every phase in sequence
  double tasks_per_step = 0.0;
  for (const PhaseSpec& ph : phases) {
    const double chunks = static_cast<double>(std::max<std::size_t>(1, ph.chunks));
    work_per_step += ph.work_s;
    chunk_path_per_step += ph.work_s / chunks;
    tasks_per_step += chunks;
  }

  const double s = static_cast<double>(steps);
  const double t1 = s * work_per_step;
  t.critical_path_s = s * chunk_path_per_step;
  t.barrier_s = s * (work_per_step / p + join * static_cast<double>(phases.size()));
  // Brent's bound plus the dispatch cost, amortized across workers, and
  // the single fork/join the whole run pays.
  t.graph_s = std::max(t1 / p, t.critical_path_s) +
              s * tasks_per_step * task_dispatch_s(m) / p + join;
  return t;
}

}  // namespace ookami::perf
