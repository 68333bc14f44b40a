// Message-passing simulator tests: collective semantics against
// sequential references and cost-model properties.

#include <gtest/gtest.h>

#include "ookami/common/rng.hpp"
#include "ookami/netsim/netsim.hpp"

namespace ookami::netsim {
namespace {

std::vector<std::vector<double>> random_buffers(int ranks, std::size_t n, std::uint64_t seed) {
  ookami::Xoshiro256 rng(seed);
  std::vector<std::vector<double>> b(static_cast<std::size_t>(ranks), std::vector<double>(n));
  for (auto& v : b) ookami::fill_uniform(v, -1.0, 1.0, rng);
  return b;
}

class RankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RankCountTest, BcastReplicatesRootBuffer) {
  const int ranks = GetParam();
  for (int root = 0; root < ranks; root += std::max(1, ranks / 3)) {
    Communicator comm(hdr200(), openmpi_armpl(), ranks);
    auto b = random_buffers(ranks, 37, 17);
    const auto want = b[static_cast<std::size_t>(root)];
    comm.bcast(b, root);
    for (const auto& v : b) EXPECT_EQ(v, want);
  }
}

TEST_P(RankCountTest, AllreduceSumsAcrossRanks) {
  const int ranks = GetParam();
  Communicator comm(hdr200(), fujitsu_mpi(), ranks);
  auto b = random_buffers(ranks, 23, 5);
  std::vector<double> want(23, 0.0);
  for (const auto& v : b) {
    for (std::size_t i = 0; i < want.size(); ++i) want[i] += v[i];
  }
  comm.allreduce_sum(b);
  for (const auto& v : b) {
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_DOUBLE_EQ(v[i], want[i]);
  }
}

TEST_P(RankCountTest, AlltoallTransposesChunks) {
  const int ranks = GetParam();
  const std::size_t chunk = 4;
  Communicator comm(hdr200(), openmpi_armpl(), ranks);
  // buffer[r][s*chunk + c] = r*1000 + s*10 + c (tagged for checking).
  std::vector<std::vector<double>> b(static_cast<std::size_t>(ranks),
                                     std::vector<double>(static_cast<std::size_t>(ranks) * chunk));
  for (int r = 0; r < ranks; ++r) {
    for (int s = 0; s < ranks; ++s) {
      for (std::size_t c = 0; c < chunk; ++c) {
        b[static_cast<std::size_t>(r)][static_cast<std::size_t>(s) * chunk + c] =
            r * 1000.0 + s * 10.0 + static_cast<double>(c);
      }
    }
  }
  comm.alltoall(b, chunk);
  for (int r = 0; r < ranks; ++r) {
    for (int s = 0; s < ranks; ++s) {
      for (std::size_t c = 0; c < chunk; ++c) {
        // After the transpose, rank r's chunk s came from rank s's chunk r.
        EXPECT_EQ(b[static_cast<std::size_t>(r)][static_cast<std::size_t>(s) * chunk + c],
                  s * 1000.0 + r * 10.0 + static_cast<double>(c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCountTest, ::testing::Values(1, 2, 3, 4, 8, 13));

TEST(CostModel, MessageTimeHasLatencyAndBandwidthTerms) {
  const CostModel cm(hdr200(), openmpi_armpl(), 2);
  const double t_small = cm.message_seconds(8);
  const double t_big = cm.message_seconds(1 << 26);
  EXPECT_GT(t_small, 0.0);
  EXPECT_GT(t_big, 100.0 * t_small);  // bandwidth term dominates large messages
}

TEST(CostModel, FujitsuStackIsSlower) {
  const CostModel fj(hdr200(), fujitsu_mpi(), 2);
  const CostModel om(hdr200(), openmpi_armpl(), 2);
  EXPECT_GT(fj.message_seconds(1 << 20), om.message_seconds(1 << 20));
  EXPECT_GT(fj.message_seconds(8), om.message_seconds(8));
}

TEST(CostModel, BcastCostGrowsLogarithmically) {
  auto bcast_cost = [](int ranks) {
    Communicator comm(hdr200(), openmpi_armpl(), ranks);
    auto b = random_buffers(ranks, 1 << 16, 2);
    comm.bcast(b, 0);
    return comm.cost().max_seconds();
  };
  const double c2 = bcast_cost(2);
  const double c16 = bcast_cost(16);
  EXPECT_GT(c16, c2);
  EXPECT_LT(c16, 8.0 * c2);  // log2(16)/log2(2) = 4 rounds, not 8x
}

TEST(CostModel, P2pAdvancesBothEndpoints) {
  CostModel cm(hdr200(), openmpi_armpl(), 3);
  cm.p2p(0, 1, 1024);
  EXPECT_GT(cm.rank_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(cm.rank_seconds(0), cm.rank_seconds(1));
  EXPECT_DOUBLE_EQ(cm.rank_seconds(2), 0.0);
}

TEST(CostModel, RejectsNonPositiveRanks) {
  EXPECT_THROW(CostModel(hdr200(), openmpi_armpl(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace ookami::netsim
