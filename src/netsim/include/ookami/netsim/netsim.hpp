#pragma once
// Simulated message passing (the multi-node substrate for Figure 9).
//
// We have one machine and no Infiniband fabric, so multi-node HPL/FFT
// runs are reproduced with a message-passing simulator: collectives
// execute real data movement across rank-indexed buffers (so their
// semantics are testable) while an alpha-beta cost model accumulates
// the virtual communication time each algorithm would take on a given
// fabric with a given MPI stack.  The paper's observation that "Fujitsu
// MPI may not be optimized for our interconnect" becomes a stack
// efficiency parameter.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ookami::netsim {

/// Physical network of the cluster.
struct Fabric {
  std::string name;
  double link_bw_gbs;    ///< per-node injection bandwidth (GB/s)
  double latency_us;     ///< per-message latency
};

/// Ookami: HDR-200 InfiniBand full fat tree (200 Gb/s = 25 GB/s).
Fabric hdr200();

/// An MPI implementation's effectiveness on the fabric.
struct MpiStack {
  std::string name;
  double bw_efficiency;     ///< achieved fraction of link bandwidth
  double latency_factor;    ///< multiplier on fabric latency
};

MpiStack fujitsu_mpi();   ///< poorly tuned for IB (paper's speculation)
MpiStack openmpi_armpl(); ///< the better-scaling stack in Fig. 9B

/// Cost accumulator: per-rank virtual time.
class CostModel {
public:
  CostModel(Fabric fabric, MpiStack stack, int ranks);

  /// Point-to-point message cost added to both endpoints.
  void p2p(int src, int dst, std::size_t bytes);

  /// Virtual seconds a message of `bytes` takes.
  [[nodiscard]] double message_seconds(std::size_t bytes) const;

  /// Slowest rank's accumulated communication time.
  [[nodiscard]] double max_seconds() const;
  [[nodiscard]] double rank_seconds(int r) const;
  [[nodiscard]] int ranks() const { return static_cast<int>(time_.size()); }

private:
  Fabric fabric_;
  MpiStack stack_;
  std::vector<double> time_;
};

/// A simulated communicator over `ranks` buffers of doubles.  Each
/// collective really moves/combines the data and charges the cost model
/// with the standard algorithm's message pattern.
class Communicator {
public:
  Communicator(Fabric fabric, MpiStack stack, int ranks);

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] const CostModel& cost() const { return cost_; }

  /// Binomial-tree broadcast of `root`'s buffer to all.
  void bcast(std::vector<std::vector<double>>& buffers, int root);

  /// Ring allreduce (sum): all buffers end up holding the global sum.
  void allreduce_sum(std::vector<std::vector<double>>& buffers);

  /// Pairwise-exchange alltoall: buffers are ranks*chunk long; chunk i
  /// of rank r goes to chunk r of rank i (the FFT transpose pattern).
  void alltoall(std::vector<std::vector<double>>& buffers, std::size_t chunk);

private:
  int ranks_;
  CostModel cost_;
};

}  // namespace ookami::netsim
