// TaskGraph executor: scheduling semantics, cycle/error handling, and
// the bit-identity contract of the LULESH / NPB SP graph ports against
// their bulk-synchronous reference paths.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ookami/common/threadpool.hpp"
#include "ookami/lulesh/lulesh.hpp"
#include "ookami/npb/sp.hpp"
#include "ookami/taskgraph/taskgraph.hpp"
#include "ookami/trace/aggregate.hpp"
#include "ookami/trace/trace.hpp"

namespace tg = ookami::taskgraph;
using ookami::ThreadPool;

namespace {

/// RAII environment override (tests mutate OOKAMI_TASKGRAPH* knobs).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_;
  std::string old_;
};

}  // namespace

TEST(TaskGraphConfig, DefaultExecFollowsEnvironment) {
  {
    ScopedEnv e("OOKAMI_TASKGRAPH", nullptr);
    EXPECT_EQ(tg::default_exec(), tg::Exec::kBarrier);
  }
  {
    ScopedEnv e("OOKAMI_TASKGRAPH", "1");
    EXPECT_EQ(tg::default_exec(), tg::Exec::kGraph);
  }
  {
    ScopedEnv e("OOKAMI_TASKGRAPH", "on");
    EXPECT_EQ(tg::default_exec(), tg::Exec::kGraph);
  }
  {
    ScopedEnv e("OOKAMI_TASKGRAPH", "0");
    EXPECT_EQ(tg::default_exec(), tg::Exec::kBarrier);
  }
  EXPECT_STREQ(tg::exec_name(tg::Exec::kGraph), "graph");
  EXPECT_STREQ(tg::exec_name(tg::Exec::kBarrier), "barrier");
}

TEST(TaskGraphConfig, DefaultChunksDoublesThreadsUnlessOverridden) {
  {
    ScopedEnv e("OOKAMI_TASKGRAPH_CHUNKS", nullptr);
    EXPECT_EQ(tg::default_chunks(4), 8u);
    EXPECT_EQ(tg::default_chunks(0), 2u);  // degenerate thread count
  }
  {
    ScopedEnv e("OOKAMI_TASKGRAPH_CHUNKS", "5");
    EXPECT_EQ(tg::default_chunks(4), 5u);
  }
  {
    ScopedEnv e("OOKAMI_TASKGRAPH_CHUNKS", "0");  // clamped to >= 1
    EXPECT_EQ(tg::default_chunks(4), 1u);
  }
}

TEST(TaskGraph, PartitionMatchesParallelForChunks) {
  // partition() must agree with ThreadPool::static_chunk's contiguous
  // split: same chunk count, full disjoint coverage, fronts one longer.
  const auto ranges = tg::TaskGraph::partition(0, 10, 4);
  ASSERT_EQ(ranges.size(), 4u);
  std::size_t expect_begin = 0;
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    const auto [b, e] = ookami::ThreadPool::static_chunk(10, static_cast<unsigned>(c), 4);
    EXPECT_EQ(ranges[c].first, b);
    EXPECT_EQ(ranges[c].second, e);
    EXPECT_EQ(ranges[c].first, expect_begin);
    expect_begin = ranges[c].second;
  }
  EXPECT_EQ(expect_begin, 10u);

  // More chunks than items degrades to one item per chunk.
  EXPECT_EQ(tg::TaskGraph::partition(0, 3, 8).size(), 3u);
  EXPECT_TRUE(tg::TaskGraph::partition(5, 5, 4).empty());
}

TEST(TaskGraph, DiamondRunsEveryTaskOnceInDependencyOrder) {
  ThreadPool pool(4);
  tg::TaskGraph g("test/diamond");
  std::atomic<int> order{0};
  int at_a = -1, at_b = -1, at_c = -1, at_d = -1;
  const tg::TaskId a = g.add("a", [&] { at_a = order.fetch_add(1); });
  const tg::TaskId b = g.add("b", [&] { at_b = order.fetch_add(1); });
  const tg::TaskId c = g.add("c", [&] { at_c = order.fetch_add(1); });
  const tg::TaskId d = g.add("d", [&] { at_d = order.fetch_add(1); });
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  EXPECT_EQ(g.tasks(), 4u);
  EXPECT_EQ(g.edges(), 4u);
  g.run(pool);
  EXPECT_EQ(order.load(), 4);
  EXPECT_LT(at_a, at_b);
  EXPECT_LT(at_a, at_c);
  EXPECT_LT(at_b, at_d);
  EXPECT_LT(at_c, at_d);
}

TEST(TaskGraph, PhaseChainComputesSameAsSequentialLoops) {
  // Three dependent phases over a vector: +1, *2, then a 1:1-chunk sum
  // into per-chunk partials.  The graph must see every dependency.
  constexpr std::size_t kN = 10'000;
  ThreadPool pool(4);
  std::vector<double> v(kN, 1.0);
  tg::TaskGraph g("test/chain");
  const std::size_t chunks = 8;
  auto p1 = g.add_phase("inc", 0, kN, chunks, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) v[i] += 1.0;
  });
  auto p2 = g.add_phase("dbl", 0, kN, chunks, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) v[i] *= 2.0;
  });
  std::vector<double> partial(p2.tasks.size(), 0.0);
  auto ranges = tg::TaskGraph::partition(0, kN, chunks);
  tg::TaskGraph::Phase p3;
  p3.first = 0;
  p3.last = kN;
  p3.ranges = ranges;
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    const auto [b, e] = ranges[c];
    double* slot = &partial[c];
    p3.tasks.push_back(g.add("sum", [&v, b = b, e = e, slot] {
      double acc = 0.0;
      for (std::size_t i = b; i < e; ++i) acc += v[i];
      *slot = acc;
    }));
  }
  g.depend_1to1(p1, p2);
  g.depend_1to1(p2, p3);
  g.run(pool);
  double total = 0.0;
  for (const double p : partial) total += p;
  EXPECT_DOUBLE_EQ(total, 4.0 * kN);  // (1+1)*2 per element
}

TEST(TaskGraph, IntervalDependencyCoversOverlappingProducers) {
  ThreadPool pool(2);
  tg::TaskGraph g("test/interval");
  std::vector<int> stage(100, 0);
  auto prod = g.add_phase("prod", 0, 100, 4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) stage[i] = 1;
  });
  std::atomic<bool> halo_ok{true};
  auto cons = g.add_phase("cons", 0, 100, 4, [&](std::size_t b, std::size_t e) {
    // Each consumer chunk reads a +/-10 halo of the producer array; the
    // interval edges must have forced those producer chunks first.
    const std::size_t lo = b >= 10 ? b - 10 : 0;
    const std::size_t hi = std::min<std::size_t>(100, e + 10);
    for (std::size_t i = lo; i < hi; ++i) {
      if (stage[i] != 1) halo_ok.store(false);
    }
  });
  g.depend_interval(prod, cons, [](std::size_t b, std::size_t e) {
    return std::make_pair(b >= 10 ? b - 10 : 0, std::min<std::size_t>(100, e + 10));
  });
  // 4 consumer chunks of 25: each overlaps its own producer chunk plus
  // one neighbour on each interior side -> 2+3+3+2 = 10 edges.
  EXPECT_EQ(g.edges(), 10u);
  g.run(pool);
  EXPECT_TRUE(halo_ok.load());
}

TEST(TaskGraph, CycleThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  tg::TaskGraph g("test/cycle");
  std::atomic<int> ran{0};
  const tg::TaskId a = g.add("a", [&] { ran.fetch_add(1); });
  const tg::TaskId b = g.add("b", [&] { ran.fetch_add(1); });
  const tg::TaskId c = g.add("c", [&] { ran.fetch_add(1); });
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  EXPECT_THROW(g.run(pool), std::logic_error);
  EXPECT_EQ(ran.load(), 0);  // validation failed before any execution
}

TEST(TaskGraph, SelfEdgeAndBadIdsThrow) {
  tg::TaskGraph g("test/edges");
  const tg::TaskId a = g.add("a", [] {});
  EXPECT_THROW(g.add_edge(a, a), std::logic_error);
  EXPECT_THROW(g.add_edge(a, 42), std::out_of_range);
  EXPECT_THROW(g.add_edge(42, a), std::out_of_range);
}

TEST(TaskGraph, TaskExceptionPropagatesAndSkipsRemainingBodies) {
  ThreadPool pool(2);
  tg::TaskGraph g("test/throw");
  std::atomic<int> ran{0};
  const tg::TaskId a = g.add("a", [&] { ran.fetch_add(1); });
  const tg::TaskId boom = g.add("boom", [] { throw std::runtime_error("task failed"); });
  const tg::TaskId after = g.add("after", [&] { ran.fetch_add(1); });
  g.add_edge(a, boom);
  g.add_edge(boom, after);
  EXPECT_THROW(g.run(pool), std::runtime_error);
  // `after` depends on the failed task: its body must not have run.
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGraph, NestedSubmissionDrainsSeriallyOnCallingThread) {
  // Running a graph from inside a parallel region hits ThreadPool's
  // single-submitter rule: the inner parallel_for falls back to serial,
  // so one drain loop retires the whole DAG on the calling thread —
  // results identical, no deadlock.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.parallel_for(std::size_t{0}, std::size_t{1}, [&](std::size_t, std::size_t, unsigned) {
    tg::TaskGraph g("test/nested");
    auto p1 = g.add_phase("p1", 0, 64, 8, [&](std::size_t b, std::size_t e) {
      done.fetch_add(static_cast<int>(e - b));
    });
    auto p2 = g.add_phase("p2", 0, 64, 8, [&](std::size_t b, std::size_t e) {
      done.fetch_add(static_cast<int>(e - b));
    });
    g.depend_1to1(p1, p2);
    g.run(pool);
  });
  EXPECT_EQ(done.load(), 128);
}

TEST(TaskGraph, EmptyGraphAndEmptyPhaseAreNoOps) {
  ThreadPool pool(2);
  tg::TaskGraph g("test/empty");
  g.run(pool);  // no tasks: returns immediately
  auto p = g.add_phase("none", 7, 7, 4, [](std::size_t, std::size_t) { FAIL(); });
  EXPECT_TRUE(p.tasks.empty());
  g.run(pool);
}

TEST(TaskGraphTrace, GraphSpansReconstructCriticalPath) {
  namespace trace = ookami::trace;
  ThreadPool pool(2);
  trace::clear();
  trace::set_enabled(true);
  tg::TaskGraph g("test/traced");
  auto p1 = g.add_phase("stage1", 0, 4, 2, [](std::size_t, std::size_t) {});
  auto p2 = g.add_phase("stage2", 0, 4, 2, [](std::size_t, std::size_t) {});
  g.depend_1to1(p1, p2);
  g.run(pool);
  trace::set_enabled(false);
  const auto events = trace::collect();
  trace::clear();

  const auto report = trace::aggregate(events, trace::Roofline{"test", 1.0, 1.0});
  ASSERT_EQ(report.graphs.size(), 1u);
  const trace::GraphStats& gs = report.graphs.front();
  EXPECT_EQ(gs.id, g.id());
  EXPECT_EQ(gs.tasks, 4u);
  EXPECT_GT(gs.wall_s, 0.0);
  EXPECT_GT(gs.critical_path_s, 0.0);
  EXPECT_LE(gs.critical_path_s, gs.total_s + 1e-12);
  // The chain walks dep edges backward from the sink: a stage2 task
  // whose critical parent is a stage1 task.
  ASSERT_EQ(gs.critical_path.size(), 2u);
  EXPECT_EQ(gs.critical_path.front().name, "stage1");
  EXPECT_EQ(gs.critical_path.back().name, "stage2");
  const std::string rendered = trace::render_critical_path(gs);
  EXPECT_NE(rendered.find("stage1"), std::string::npos);
  EXPECT_NE(rendered.find("stage2"), std::string::npos);
}

// --- Bit-identity of the workload graph ports -------------------------

namespace {

ookami::lulesh::Outcome sedov(tg::Exec exec, unsigned threads) {
  ookami::lulesh::Options opt;
  opt.edge_elems = 8;
  opt.max_steps = 20;
  opt.variant = ookami::lulesh::Variant::kBase;
  opt.threads = threads;
  opt.exec = exec;
  return ookami::lulesh::run_sedov(opt);
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

TEST(TaskGraphEquivalence, LuleshGraphBitIdenticalToBarrierAtEveryThreadCount) {
  const auto ref = sedov(tg::Exec::kBarrier, 1);
  ASSERT_TRUE(ref.verified);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    const auto barrier = sedov(tg::Exec::kBarrier, threads);
    const auto graph = sedov(tg::Exec::kGraph, threads);
    EXPECT_TRUE(graph.verified) << "threads=" << threads;
    EXPECT_TRUE(bits_equal(graph.final_origin_energy, ref.final_origin_energy))
        << "threads=" << threads;
    EXPECT_TRUE(bits_equal(graph.final_origin_energy, barrier.final_origin_energy))
        << "threads=" << threads;
    EXPECT_TRUE(bits_equal(graph.total_energy_drift, barrier.total_energy_drift))
        << "threads=" << threads;
    EXPECT_TRUE(bits_equal(graph.symmetry_error, barrier.symmetry_error))
        << "threads=" << threads;
  }
}

TEST(TaskGraphEquivalence, LuleshGraphChunkCountInvariant) {
  const auto ref = sedov(tg::Exec::kBarrier, 2);
  for (const char* chunks : {"1", "3", "16"}) {
    ScopedEnv e("OOKAMI_TASKGRAPH_CHUNKS", chunks);
    const auto graph = sedov(tg::Exec::kGraph, 2);
    EXPECT_TRUE(bits_equal(graph.final_origin_energy, ref.final_origin_energy))
        << "chunks=" << chunks;
  }
}

TEST(TaskGraphEquivalence, NpbSpGraphBitIdenticalToBarrierAtEveryThreadCount) {
  namespace npb = ookami::npb;
  const auto ref = npb::run_sp(npb::Class::kS, 1, tg::Exec::kBarrier);
  ASSERT_TRUE(ref.verified);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto graph = npb::run_sp(npb::Class::kS, threads, tg::Exec::kGraph);
    EXPECT_TRUE(graph.verified) << "threads=" << threads;
    EXPECT_TRUE(bits_equal(graph.check_value, ref.check_value)) << "threads=" << threads;
    if (threads == 1) continue;
    const auto barrier = npb::run_sp(npb::Class::kS, threads, tg::Exec::kBarrier);
    EXPECT_TRUE(barrier.verified) << "barrier threads=" << threads;
    EXPECT_TRUE(bits_equal(barrier.check_value, ref.check_value)) << "barrier threads=" << threads;
  }
}

TEST(TaskGraphEquivalence, NpbSpGraphChunkCountInvariant) {
  // x_solve reads delta rows from every rhs line (i, j), so a chunk of
  // x that waits on fewer rhs chunks than all of them races.  The
  // default chunking can hide that; other chunk counts expose it.
  namespace npb = ookami::npb;
  const auto ref = npb::run_sp(npb::Class::kS, 4, tg::Exec::kBarrier);
  ASSERT_TRUE(ref.verified);
  for (const char* chunks : {"1", "3", "16"}) {
    ScopedEnv e("OOKAMI_TASKGRAPH_CHUNKS", chunks);
    const auto graph = npb::run_sp(npb::Class::kS, 4, tg::Exec::kGraph);
    EXPECT_TRUE(graph.verified) << "chunks=" << chunks;
    EXPECT_TRUE(bits_equal(graph.check_value, ref.check_value)) << "chunks=" << chunks;
  }
}
