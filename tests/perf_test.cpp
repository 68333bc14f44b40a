// Tests for the machine/loop/application performance models: Table III
// constants, model invariants, and the NUMA-placement mechanism.

#include <gtest/gtest.h>

#include "ookami/perf/app_model.hpp"
#include "ookami/perf/graph_model.hpp"
#include "ookami/perf/loop_model.hpp"
#include "ookami/perf/machine.hpp"

namespace ookami::perf {
namespace {

// --- Table III constants ---------------------------------------------------

TEST(MachineModel, TableIIIPeakGflopsPerCore) {
  EXPECT_DOUBLE_EQ(a64fx().peak_gflops_core(), 57.6);
  EXPECT_DOUBLE_EQ(skylake_8160().peak_gflops_core(), 44.8);
  EXPECT_DOUBLE_EQ(knl_7250().peak_gflops_core(), 44.8);
  EXPECT_DOUBLE_EQ(zen2_7742().peak_gflops_core(), 36.0);
}

TEST(MachineModel, TableIIIPeakGflopsPerNode) {
  EXPECT_NEAR(a64fx().peak_gflops_node(), 2765.0, 1.0);
  EXPECT_NEAR(skylake_8160().peak_gflops_node(), 2150.0, 1.0);
  EXPECT_NEAR(knl_7250().peak_gflops_node(), 3046.0, 1.0);
  EXPECT_NEAR(zen2_7742().peak_gflops_node(), 4608.0, 1.0);
}

TEST(MachineModel, OokamiTopology) {
  const auto& m = a64fx();
  EXPECT_EQ(m.cores, 48);
  EXPECT_EQ(m.numa.domains, 4);               // four CMGs
  EXPECT_EQ(m.numa.cores_per_domain, 12);
  EXPECT_DOUBLE_EQ(m.numa.local_bw_gbs, 256.0);  // HBM2 per CMG
  EXPECT_NEAR(m.numa.total_bw_gbs(), 1024.0, 1.0);
  EXPECT_DOUBLE_EQ(m.freq_ghz, 1.8);
  EXPECT_EQ(m.lanes(), 8);                    // 512-bit SVE
  EXPECT_DOUBLE_EQ(m.fsqrt_block_cyc, 134.0); // the manual's blocking latency
}

// --- Loop model invariants --------------------------------------------------

LoweredLoop basic_loop() {
  LoweredLoop l;
  l.vectorized = true;
  l.fp_per_elem = 0.5;
  l.int_per_elem = 0.4;
  l.working_set_bytes = 64 * 1024;
  l.cache_bytes_per_elem = 16;
  return l;
}

TEST(LoopModel, VectorizedBeatsScalar) {
  LoweredLoop vec = basic_loop();
  LoweredLoop scl = basic_loop();
  scl.vectorized = false;
  scl.fp_per_elem = vec.fp_per_elem * a64fx().lanes();
  EXPECT_LT(cycles_per_elem(a64fx(), vec), cycles_per_elem(a64fx(), scl));
}

TEST(LoopModel, BlockingSqrtDominates) {
  LoweredLoop newton = basic_loop();
  newton.fp_per_elem = 12.0 / 8;
  LoweredLoop blocking = basic_loop();
  blocking.sqrt_vec_per_elem = 1.0 / 8;
  const double cn = cycles_per_elem(a64fx(), newton);
  const double cb = cycles_per_elem(a64fx(), blocking);
  EXPECT_GT(cb, 5.0 * cn);  // the paper's order-of-magnitude gap
}

TEST(LoopModel, WindowedGatherFasterOnlyOnA64fx) {
  LoweredLoop g = basic_loop();
  g.fp_per_elem = 0.0;
  g.gather_per_elem = 1.0;
  LoweredLoop w = g;
  w.windowed_128 = true;
  EXPECT_LT(cycles_per_elem(a64fx(), w), cycles_per_elem(a64fx(), g));
  EXPECT_DOUBLE_EQ(cycles_per_elem(skylake_6140(), w), cycles_per_elem(skylake_6140(), g));
}

TEST(LoopModel, UnrollingHelps) {
  LoweredLoop l = basic_loop();
  l.fp_per_elem = 2.0;
  LoweredLoop u = l;
  u.unrolled = true;
  EXPECT_LT(cycles_per_elem(a64fx(), u), cycles_per_elem(a64fx(), l));
}

TEST(LoopModel, MemoryRooflineBinds) {
  LoweredLoop l = basic_loop();
  l.mem_bytes_per_elem = 64.0;  // streaming from DRAM
  const double c = cycles_per_elem(a64fx(), l);
  const double mem_cyc = 64.0 / (a64fx().core_mem_bw_gbs / a64fx().boost_ghz);
  EXPECT_GE(c, mem_cyc * 0.999);
}

TEST(LoopModel, SecondsScaleWithN) {
  const LoweredLoop l = basic_loop();
  EXPECT_NEAR(loop_seconds(a64fx(), l, 2000) / loop_seconds(a64fx(), l, 1000), 2.0, 1e-12);
}

// --- App model -------------------------------------------------------------

AppProfile memory_bound_app() {
  AppProfile p;
  p.name = "membound";
  p.flops = 1e11;
  p.dram_bytes = 1e12;
  p.vec_fraction = 0.7;
  p.parallel_regions = 1000;
  return p;
}

AppProfile compute_bound_app() {
  AppProfile p;
  p.name = "compute";
  p.flops = 1e12;
  p.dram_bytes = 1e9;
  p.vec_fraction = 0.8;
  p.parallel_regions = 10;
  return p;
}

CompilerEffects plain_compiler() {
  CompilerEffects c;
  c.name = "cc";
  return c;
}

class ThreadCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountTest, MoreThreadsNeverSlowerOnA64fx) {
  const int t = GetParam();
  const auto app = compute_bound_app();
  const auto cc = plain_compiler();
  const double t1 = app_time(a64fx(), app, cc, 1).seconds;
  const double tt = app_time(a64fx(), app, cc, t).seconds;
  EXPECT_LE(tt, t1 * 1.001);
  const double eff = parallel_efficiency(a64fx(), app, cc, t);
  EXPECT_GT(eff, 0.0);
  EXPECT_LE(eff, 1.35);  // boost-vs-base clock can push slightly over 1
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest, ::testing::Values(2, 6, 12, 24, 48));

TEST(AppModel, ComputeBoundScalesAlmostLinearlyOnA64fx) {
  // Fixed clock + negligible traffic => EP-like near-perfect scaling
  // (the paper's Fig. 5 EP curve).
  const double eff = parallel_efficiency(a64fx(), compute_bound_app(), plain_compiler(), 48);
  EXPECT_GT(eff, 0.9);
}

TEST(AppModel, MemoryBoundEfficiencyDropsTo0p6OnA64fx) {
  // SP-like: single core rides 35 GB/s; 48 cores share ~1 TB/s.
  const double eff = parallel_efficiency(a64fx(), memory_bound_app(), plain_compiler(), 48);
  EXPECT_GT(eff, 0.4);
  EXPECT_LT(eff, 0.75);  // the paper reports ~0.6
}

TEST(AppModel, SkylakeScalesWorseThanA64fxOnMemoryBound) {
  const double a = parallel_efficiency(a64fx(), memory_bound_app(), plain_compiler(), 48);
  const double s = parallel_efficiency(skylake_npb_node(), memory_bound_app(), plain_compiler(), 36);
  EXPECT_LT(s, a);  // Fig. 5 vs Fig. 6
}

TEST(AppModel, Cmg0PlacementHurtsMemoryBoundApps) {
  auto cc = plain_compiler();
  cc.placement_cmg0 = true;
  const auto app = memory_bound_app();
  const double bad = app_time(a64fx(), app, cc, 48).seconds;
  const double good = app_time(a64fx(), app, cc, 48, /*force_first_touch=*/true).seconds;
  EXPECT_GT(bad, 2.0 * good);  // one CMG's 256 GB/s vs ~1 TB/s
  // Within one CMG the default placement costs nothing.
  const double bad12 = app_time(a64fx(), app, cc, 12).seconds;
  const double good12 = app_time(a64fx(), app, cc, 12, true).seconds;
  EXPECT_NEAR(bad12, good12, 1e-12);
}

TEST(AppModel, OmpOverheadGrowsWithRegions) {
  auto app = compute_bound_app();
  auto cc = plain_compiler();
  const double base = app_time(a64fx(), app, cc, 48).seconds;
  app.parallel_regions = 1e6;
  const double heavy = app_time(a64fx(), app, cc, 48).seconds;
  EXPECT_GT(heavy, base);
}

TEST(AppModel, RandomAccessPenalizesA64fxSingleCoreMore) {
  auto app = memory_bound_app();
  app.random_access_fraction = 0.8;
  const auto cc = plain_compiler();
  // CG-like: A64FX single-core suffers from HBM latency more than SKL.
  const double a1 = app_time(a64fx(), app, cc, 1).seconds;
  const double s1 = app_time(skylake_6140(), app, cc, 1).seconds;
  EXPECT_GT(a1, 1.3 * s1);
}

// --- Fork/join synchronization model ---------------------------------------

TEST(SyncModel, SingleThreadCostsNothing) {
  EXPECT_EQ(spin_fork_join_s(a64fx(), 1), 0.0);
}

TEST(SyncModel, CostsGrowWithThreads) {
  const auto& m = a64fx();
  EXPECT_GT(spin_fork_join_s(m, 48), spin_fork_join_s(m, 4));
}

}  // namespace
}  // namespace ookami::perf
