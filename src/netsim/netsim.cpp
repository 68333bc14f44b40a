#include "ookami/netsim/netsim.hpp"

#include <algorithm>
#include <stdexcept>

namespace ookami::netsim {

Fabric hdr200() { return {"HDR-200 fat tree", 25.0, 1.3}; }

MpiStack fujitsu_mpi() {
  // The paper speculates Fujitsu MPI is tuned for Tofu, not InfiniBand:
  // it reaches a small fraction of HDR bandwidth and has high latency.
  return {"fujitsu-mpi", 0.22, 3.0};
}

MpiStack openmpi_armpl() { return {"openmpi", 0.75, 1.0}; }

CostModel::CostModel(Fabric fabric, MpiStack stack, int ranks)
    : fabric_(std::move(fabric)), stack_(std::move(stack)), time_(static_cast<std::size_t>(ranks), 0.0) {
  if (ranks <= 0) throw std::invalid_argument("CostModel: ranks must be positive");
}

double CostModel::message_seconds(std::size_t bytes) const {
  const double bw = fabric_.link_bw_gbs * stack_.bw_efficiency * 1e9;
  return fabric_.latency_us * stack_.latency_factor * 1e-6 + static_cast<double>(bytes) / bw;
}

void CostModel::p2p(int src, int dst, std::size_t bytes) {
  const double t = message_seconds(bytes);
  // Synchronizing send/recv: both endpoints advance to the later time.
  auto& a = time_[static_cast<std::size_t>(src)];
  auto& b = time_[static_cast<std::size_t>(dst)];
  const double done = std::max(a, b) + t;
  a = done;
  b = done;
}

double CostModel::max_seconds() const {
  return *std::max_element(time_.begin(), time_.end());
}

double CostModel::rank_seconds(int r) const { return time_[static_cast<std::size_t>(r)]; }

Communicator::Communicator(Fabric fabric, MpiStack stack, int ranks)
    : ranks_(ranks), cost_(std::move(fabric), std::move(stack), ranks) {}

void Communicator::bcast(std::vector<std::vector<double>>& buffers, int root) {
  if (static_cast<int>(buffers.size()) != ranks_) throw std::invalid_argument("bcast: buffer count");
  const std::size_t bytes = buffers[static_cast<std::size_t>(root)].size() * sizeof(double);
  // Binomial tree in the root-rotated rank space.
  for (int stride = 1; stride < ranks_; stride *= 2) {
    for (int r = 0; r < stride && r + stride < ranks_; ++r) {
      const int src = (root + r) % ranks_;
      const int dst = (root + r + stride) % ranks_;
      buffers[static_cast<std::size_t>(dst)] = buffers[static_cast<std::size_t>(src)];
      cost_.p2p(src, dst, bytes);
    }
  }
}

void Communicator::allreduce_sum(std::vector<std::vector<double>>& buffers) {
  if (static_cast<int>(buffers.size()) != ranks_) {
    throw std::invalid_argument("allreduce: buffer count");
  }
  const std::size_t n = buffers[0].size();
  // Ring reduce-scatter + allgather: 2(P-1) messages of n/P elements.
  // Data movement done literally so results are exact and testable.
  std::vector<double> total(n, 0.0);
  for (const auto& b : buffers) {
    if (b.size() != n) throw std::invalid_argument("allreduce: ragged buffers");
    for (std::size_t i = 0; i < n; ++i) total[i] += b[i];
  }
  const std::size_t chunk_bytes = (n / static_cast<std::size_t>(ranks_) + 1) * sizeof(double);
  for (int phase = 0; phase < 2 * (ranks_ - 1); ++phase) {
    for (int r = 0; r < ranks_; ++r) cost_.p2p(r, (r + 1) % ranks_, chunk_bytes);
  }
  for (auto& b : buffers) b = total;
}

void Communicator::alltoall(std::vector<std::vector<double>>& buffers, std::size_t chunk) {
  if (static_cast<int>(buffers.size()) != ranks_) throw std::invalid_argument("alltoall: buffer count");
  const auto p = static_cast<std::size_t>(ranks_);
  for (const auto& b : buffers) {
    if (b.size() != p * chunk) throw std::invalid_argument("alltoall: buffer size");
  }
  std::vector<std::vector<double>> out(p, std::vector<double>(p * chunk));
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < p; ++s) {
      std::copy_n(buffers[r].begin() + static_cast<std::ptrdiff_t>(s * chunk), chunk,
                  out[s].begin() + static_cast<std::ptrdiff_t>(r * chunk));
      if (r != s) cost_.p2p(static_cast<int>(r), static_cast<int>(s), chunk * sizeof(double));
    }
  }
  buffers = std::move(out);
}

}  // namespace ookami::netsim
