#pragma once
// Execution-level NUMA page-placement simulation.
//
// The paper's Figure 4 hinges on a runtime policy: the Fujitsu OpenMP
// runtime places all data on CMG 0 by default, and switching to
// first-touch recovered SP (strongly) and UA (slightly).  This module
// simulates that mechanism directly: a page table over the four CMGs, a
// placement policy, compact thread binding, and a bandwidth solver that
// turns per-thread traffic into time given each CMG's memory controller
// and the inter-CMG links.  Used by the abl_placement ablation and the
// numa tests; the NPB figures use the equivalent analytic form in
// perf::app_time.

#include <cstddef>
#include <vector>

#include "ookami/perf/machine.hpp"

namespace ookami::numa {

enum class Placement { kFirstTouch, kAllOnDomain0, kInterleave };

// Compact binding: threads fill domains in order (threads
// 0..cores_per_domain-1 on domain 0, ...), exactly as SLURM core
// binding does on Ookami.

/// Domain of `thread` under compact binding (clamped to the last domain
/// for thread ids beyond the machine).
int domain_of_thread(const perf::NumaTopology& topo, int thread);

/// Simulated page table: pages are assigned to a NUMA domain on first
/// touch according to the policy.
class PageMap {
public:
  PageMap(perf::NumaTopology topo, Placement policy, std::size_t page_bytes = 65536);

  /// Domain of the thread under compact binding (threads fill domains
  /// in order, as SLURM core binding does on Ookami).
  [[nodiscard]] int domain_of_thread(int thread, int nthreads) const;

  /// Record a first touch of byte address `addr` by `thread`.
  void touch(std::size_t addr, int thread, int nthreads);

  /// Domain owning the page of `addr` (-1 if never touched).
  [[nodiscard]] int domain_of(std::size_t addr) const;

  [[nodiscard]] std::size_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] const perf::NumaTopology& topology() const { return topo_; }

  /// Pages per domain (diagnostic).
  [[nodiscard]] std::vector<std::size_t> pages_per_domain() const;

private:
  perf::NumaTopology topo_;
  Placement policy_;
  std::size_t page_bytes_;
  std::vector<int> page_domain_;   // grows on demand
  std::size_t interleave_next_ = 0;
};

/// Result of a simulated STREAM-like sweep.
struct StreamReport {
  double seconds;                    ///< time of the slowest resource
  double gbs;                        ///< effective aggregate bandwidth
  std::vector<double> domain_bytes;  ///< bytes served per domain
};

/// Simulate a parallel triad (a[i] = b[i] + s*c[i]) over n doubles with
/// `threads` threads under `policy`: the initialization phase places
/// pages, the sweep phase generates traffic, and the solver reports the
/// bandwidth-limited time (max over memory controllers and links).
StreamReport stream_triad(const perf::MachineModel& m, Placement policy, std::size_t n,
                          int threads);

}  // namespace ookami::numa
