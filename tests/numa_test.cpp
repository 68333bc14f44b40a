// NUMA simulation tests: page placement policies, compact thread
// binding, and the Figure-4 bandwidth mechanism (CMG-0 placement
// throttles a full-node memory-bound sweep; first touch does not).

#include <gtest/gtest.h>

#include "ookami/numa/numa.hpp"

namespace ookami::numa {
namespace {

using perf::a64fx;

TEST(PageMap, CompactThreadBinding) {
  const PageMap pm(a64fx().numa, Placement::kFirstTouch);
  EXPECT_EQ(pm.domain_of_thread(0, 48), 0);
  EXPECT_EQ(pm.domain_of_thread(11, 48), 0);
  EXPECT_EQ(pm.domain_of_thread(12, 48), 1);
  EXPECT_EQ(pm.domain_of_thread(47, 48), 3);
}

TEST(CompactBinding, FreeFunctionsMatchA64fxGeometry) {
  const auto& topo = a64fx().numa;
  EXPECT_EQ(domain_of_thread(topo, 0), 0);
  EXPECT_EQ(domain_of_thread(topo, 11), 0);
  EXPECT_EQ(domain_of_thread(topo, 12), 1);
  EXPECT_EQ(domain_of_thread(topo, 47), 3);
  // Beyond the machine: clamped to the last domain, never out of range.
  EXPECT_EQ(domain_of_thread(topo, 96), 3);
}

TEST(CompactBinding, PageMapDelegatesToFreeFunction) {
  const PageMap pm(a64fx().numa, Placement::kFirstTouch);
  for (int t : {0, 11, 12, 35, 47}) {
    EXPECT_EQ(pm.domain_of_thread(t, 48), domain_of_thread(a64fx().numa, t));
  }
}

TEST(PageMap, FirstTouchFollowsTouchingThread) {
  PageMap pm(a64fx().numa, Placement::kFirstTouch);
  pm.touch(0, 0, 48);               // thread 0 -> domain 0
  pm.touch(1 << 20, 20, 48);        // thread 20 -> domain 1
  pm.touch(2 << 20, 40, 48);        // thread 40 -> domain 3
  EXPECT_EQ(pm.domain_of(0), 0);
  EXPECT_EQ(pm.domain_of(1 << 20), 1);
  EXPECT_EQ(pm.domain_of(2 << 20), 3);
  // Second touch does not migrate the page.
  pm.touch(0, 40, 48);
  EXPECT_EQ(pm.domain_of(0), 0);
}

TEST(PageMap, AllOnDomain0PlacesEverythingOnCmg0) {
  PageMap pm(a64fx().numa, Placement::kAllOnDomain0);
  for (int t = 0; t < 48; ++t) pm.touch(static_cast<std::size_t>(t) << 20, t, 48);
  const auto pages = pm.pages_per_domain();
  EXPECT_GT(pages[0], 0u);
  EXPECT_EQ(pages[1] + pages[2] + pages[3], 0u);
}

TEST(PageMap, InterleaveSpreadsRoundRobin) {
  PageMap pm(a64fx().numa, Placement::kInterleave);
  for (int p = 0; p < 16; ++p) pm.touch(static_cast<std::size_t>(p) * pm.page_bytes(), 0, 48);
  const auto pages = pm.pages_per_domain();
  for (auto c : pages) EXPECT_EQ(c, 4u);
}

TEST(PageMap, UntouchedPageHasNoDomain) {
  PageMap pm(a64fx().numa, Placement::kFirstTouch);
  EXPECT_EQ(pm.domain_of(12345), -1);
}

// --- The Figure 4 mechanism ---------------------------------------------------

constexpr std::size_t kStreamN = 64ull << 20;  // 64 Mi doubles: 1.5 GB of traffic

TEST(Stream, FirstTouchUsesAllControllersAt48Threads) {
  const auto ft = stream_triad(a64fx(), Placement::kFirstTouch, kStreamN, 48);
  // Near the aggregate 1 TB/s, far above one CMG's 256 GB/s.
  EXPECT_GT(ft.gbs, 600.0);
  int used = 0;
  for (double b : ft.domain_bytes) used += b > 0.0 ? 1 : 0;
  EXPECT_EQ(used, 4);
}

TEST(Stream, Cmg0PlacementCapsAtOneController) {
  const auto d0 = stream_triad(a64fx(), Placement::kAllOnDomain0, kStreamN, 48);
  EXPECT_LT(d0.gbs, 260.0);  // <= one CMG's HBM bandwidth
  EXPECT_EQ(d0.domain_bytes[1], 0.0);
  const auto ft = stream_triad(a64fx(), Placement::kFirstTouch, kStreamN, 48);
  EXPECT_GT(ft.gbs / d0.gbs, 3.0);  // the Fig. 4 fujitsu vs first-touch gap
}

TEST(Stream, PlacementIrrelevantWithinOneCmg) {
  const auto ft = stream_triad(a64fx(), Placement::kFirstTouch, kStreamN, 12);
  const auto d0 = stream_triad(a64fx(), Placement::kAllOnDomain0, kStreamN, 12);
  EXPECT_NEAR(ft.gbs, d0.gbs, 1.0);
}

TEST(Stream, SingleThreadIsCoreBandwidthBound) {
  const auto r = stream_triad(a64fx(), Placement::kFirstTouch, kStreamN, 1);
  EXPECT_NEAR(r.gbs, a64fx().core_mem_bw_gbs, 1.0);
}

TEST(Stream, InterleaveBetweenTheExtremes) {
  const auto ft = stream_triad(a64fx(), Placement::kFirstTouch, kStreamN, 48);
  const auto il = stream_triad(a64fx(), Placement::kInterleave, kStreamN, 48);
  const auto d0 = stream_triad(a64fx(), Placement::kAllOnDomain0, kStreamN, 48);
  EXPECT_GT(il.gbs, d0.gbs);
  EXPECT_LE(il.gbs, ft.gbs * 1.01);
}

}  // namespace
}  // namespace ookami::numa
