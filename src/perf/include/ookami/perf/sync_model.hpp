#pragma once
// Analytic fork/join synchronization cost models (the companion to
// machine.hpp's omp_fork_join_us).
//
// The paper attributes much of A64FX's fine-grained OpenMP cost to
// barrier synchronization — the reason the RRZE A64FX_HWB kmod exposes
// the Fujitsu hardware barrier (its benchmark measures the HWB roughly
// an order of magnitude under software barriers).  These models price
// the software protocols an OpenMP-style runtime can choose from (the
// ThreadPool runs `spin`) plus that hardware barrier, so the harness
// can archive modeled costs next to measured ones:
//
//   * condvar       — futex sleep/wake chains: a microsecond-scale base
//                     (two syscalls and a scheduler wakeup) plus a
//                     log(threads) wake fan-out.  Calibrated so the
//                     48-thread A64FX figure matches the machine's
//                     omp_fork_join_us.
//   * spin          — centralized sense-reversing barrier: every
//                     arrival is an RMW on one contended line
//                     (serialized cache-to-cache transfers, O(threads))
//                     plus a log-depth release broadcast.
//   * hierarchical  — per-CMG arrival on a group-local line, one
//                     representative per CMG at the global line, then a
//                     group-local release: O(group_size) local +
//                     O(groups) remote transfers.
//   * hardware      — the A64FX barrier gate: a near-constant intra-CMG
//                     latency plus one synchronization hop when the
//                     window spans CMGs (modeled as if the machine had
//                     the Fujitsu HPC extension).
//
// All constants are `calibrated` in the sense of machine.hpp: cycle
// counts for line transfers and syscall/wakeup latencies documented in
// sync_model.cpp, priced by each machine's clock.

#include "ookami/perf/machine.hpp"

namespace ookami::perf {

/// Modeled wall time (seconds) of one empty fork/join over `threads`
/// threads under the condvar (sleep/wake) protocol.
double condvar_fork_join_s(const MachineModel& m, int threads);

/// Same for the centralized sense-reversing spin barrier.
double spin_fork_join_s(const MachineModel& m, int threads);

/// Same for the hierarchical barrier with `group_size` threads per
/// group (0 = the machine's cores_per_domain, i.e. CMG-width groups).
double hierarchical_fork_join_s(const MachineModel& m, int threads, int group_size = 0);

/// The machine's hardware barrier (A64FX HPC extension), for the
/// modeled ceiling the software strategies chase.
double hardware_barrier_s(const MachineModel& m, int threads);

/// Modeled speedup of a strategy over condvar at `threads` (ratio of
/// condvar_fork_join_s to the strategy's cost; > 1 = strategy faster).
double modeled_speedup_vs_condvar(const MachineModel& m, const char* strategy, int threads,
                                  int group_size = 0);

}  // namespace ookami::perf
