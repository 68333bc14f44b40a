// Unit tests for ookami/common: RNG, permutations, statistics, thread
// pool, tables, CLI parsing, aligned allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "ookami/common/aligned.hpp"
#include "ookami/common/cli.hpp"
#include "ookami/common/rng.hpp"
#include "ookami/common/stats.hpp"
#include "ookami/common/table.hpp"
#include "ookami/common/threadpool.hpp"
#include "ookami/common/timer.hpp"

namespace ookami {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedIsUnbiasedEnough) {
  Xoshiro256 rng(7);
  std::array<int, 10> hist{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hist[rng.bounded(10)] += 1;
  for (int h : hist) {
    EXPECT_NEAR(h, kDraws / 10, kDraws / 100);  // within 10% of uniform
  }
}

TEST(Rng, CounterRngIsStateless) {
  CounterRng a(5);
  EXPECT_EQ(a.bits(123), CounterRng(5).bits(123));
  EXPECT_NE(a.bits(123), a.bits(124));
  EXPECT_NE(a.bits(123), CounterRng(6).bits(123));
}

TEST(Rng, RandomPermutationIsPermutation) {
  Xoshiro256 rng(3);
  const auto p = random_permutation(1000, rng);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 999u);
}

class WindowedPermutationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowedPermutationTest, StaysInWindow) {
  const std::size_t window = GetParam();
  Xoshiro256 rng(9);
  const std::size_t n = 1000;
  const auto p = windowed_permutation(n, window, rng);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), n);  // still a permutation
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(i / window, p[i] / window) << "index escaped its window at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowedPermutationTest,
                         ::testing::Values(2, 4, 16, 64, 1000));

TEST(Stats, SummaryMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944487, 1e-9);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Stats, MedianOdd) {
  Summary s;
  for (double v : {5.0, 1.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

// Regression: empty accumulators used to report min()/max() as 0.0 — a
// plausible-looking measurement had it leaked into a result file.  The
// sentinel is now quiet NaN, which serializes to null in the harness.
TEST(Stats, EmptySummaryIsNaNSentinel) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  // median() used to return 0.0 here — the same plausible-measurement
  // hazard the min()/max() sentinel already closed.
  EXPECT_TRUE(std::isnan(s.median()));
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
}

// The check folds: a NaN anywhere in the sequence must survive to the
// result, where std::max(worst, d) would drop it and pass the check.
TEST(Stats, NanMaxFoldStaysNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> finite = {0.5, 3.0, 1e-12, 2.0};
  const auto fold = [](const std::vector<double>& v) {
    double worst = 0.0;
    for (const double d : v) worst = nan_max(worst, d);
    return worst;
  };
  EXPECT_EQ(fold(finite), 3.0);
  EXPECT_EQ(fold({}), 0.0);
  for (std::size_t pos = 0; pos <= finite.size(); ++pos) {  // first, middle, last
    std::vector<double> v = finite;
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(pos), nan);
    EXPECT_TRUE(std::isnan(fold(v))) << "NaN at position " << pos;
  }
}

// The Courant fold: a NaN in either argument sticks, where std::min
// drops one in its second argument; every other pair gives std::min's
// bits, signed zeros included (so graph and barrier folds stay equal).
TEST(Stats, NanMinMatchesStdMinAndKeepsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {0.0, -0.0, 1.0, -2.5, 1e-300, -inf, inf, 3.0};
  for (const double a : values) {
    EXPECT_TRUE(std::isnan(nan_min(a, nan))) << a;
    EXPECT_TRUE(std::isnan(nan_min(nan, a))) << a;
    for (const double b : values) {
      const double got = nan_min(a, b);
      const double want = std::min(a, b);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << a << " " << b;
    }
  }
  EXPECT_TRUE(std::signbit(nan_min(-0.0, 0.0)));
  EXPECT_FALSE(std::signbit(nan_min(0.0, -0.0)));
}

// The NaN rule: any two NaNs match (the default NaN x86 makes against a
// positive quiet NaN), and nothing else is loosened.
TEST(Stats, SameBitsOrBothNanOnlyLoosensNaN) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double neg_nan = std::bit_cast<double>(0xfff8000000000000ull);
  const double payload_nan = std::bit_cast<double>(0x7ff0000000000001ull);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(same_bits_or_both_nan(qnan, neg_nan));
  EXPECT_TRUE(same_bits_or_both_nan(payload_nan, qnan));
  for (const double x : {0.0, 1.0, inf, -inf}) {
    EXPECT_FALSE(same_bits_or_both_nan(qnan, x)) << x;
    EXPECT_FALSE(same_bits_or_both_nan(x, neg_nan)) << x;
    EXPECT_TRUE(same_bits_or_both_nan(x, x)) << x;
  }
  EXPECT_FALSE(same_bits_or_both_nan(0.0, -0.0));
  EXPECT_FALSE(same_bits_or_both_nan(1.0, std::nextafter(1.0, 2.0)));
  EXPECT_FALSE(same_bits_or_both_nan(inf, std::numeric_limits<double>::max()));
}

TEST(ThreadPool, StaticChunksCoverRange) {
  for (unsigned nthreads : {1u, 3u, 7u}) {
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (unsigned t = 0; t < nthreads; ++t) {
      const auto [b, e] = ThreadPool::static_chunk(100, t, nthreads);
      EXPECT_EQ(b, prev_end);
      covered += e - b;
      prev_end = e;
    }
    EXPECT_EQ(covered, 100u);
  }
}

TEST(ThreadPool, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelReduceSum) {
  ThreadPool pool(4);
  const double total = pool.parallel_reduce(
      0, 1000, 0.0,
      [](std::size_t b, std::size_t e, unsigned) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) s += static_cast<double>(i);
        return s;
      },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(total, 999.0 * 1000.0 / 2.0);
}

// Regression: a non-identity `init` used to seed every per-thread
// partial AND the final fold, so it was incorporated num_threads + 1
// times.  Integer-valued doubles keep the arithmetic exact, so the
// result must be bit-identical for any thread count.
TEST(ThreadPool, ParallelReduceFoldsInitExactlyOnce) {
  constexpr double kInit = 100.0;
  constexpr std::size_t kN = 1000;
  const double expected = kInit + 999.0 * 1000.0 / 2.0;
  for (unsigned nthreads = 1; nthreads <= 8; ++nthreads) {
    ThreadPool pool(nthreads);
    const double total = pool.parallel_reduce(
        0, kN, kInit,
        [](std::size_t b, std::size_t e, unsigned) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += static_cast<double>(i);
          return s;
        },
        [](double a, double b) { return a + b; });
    EXPECT_EQ(total, expected) << "with " << nthreads << " threads";
  }
}

TEST(ThreadPool, ParallelReduceProductWithNonIdentityInit) {
  // product of 1..8 scaled by init=2: any double-counting of init is
  // a power-of-two error, unmissable.
  for (unsigned nthreads : {1u, 2u, 3u, 5u, 8u}) {
    ThreadPool pool(nthreads);
    const double total = pool.parallel_reduce(
        1, 9, 2.0,
        [](std::size_t b, std::size_t e, unsigned) {
          double p = 1.0;
          for (std::size_t i = b; i < e; ++i) p *= static_cast<double>(i);
          return p;
        },
        [](double a, double b) { return a * b; });
    EXPECT_EQ(total, 2.0 * 40320.0) << "with " << nthreads << " threads";
  }
}

TEST(ThreadPool, ParallelReduceMoreThreadsThanWork) {
  ThreadPool pool(8);
  const double total = pool.parallel_reduce(
      0, 3, 5.0,
      [](std::size_t b, std::size_t e, unsigned) {
        return static_cast<double>(e - b);
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 8.0);  // init(5) + 3 elements, idle threads contribute nothing
}

TEST(ThreadPool, ParallelReduceEmptyRangeReturnsInit) {
  ThreadPool pool(4);
  const double total = pool.parallel_reduce(
      7, 7, 42.0, [](std::size_t, std::size_t, unsigned) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 42.0);
}

TEST(ThreadPool, NestedParallelForDegradesToSerial) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t, unsigned) {
    pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e, unsigned) {
      count += static_cast<int>(e - b);
    });
  });
  EXPECT_EQ(count.load(), 40);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForRethrowsWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t b, std::size_t, unsigned) {
                          if (b == 0) throw std::runtime_error("worker failed");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionOnly) {
  // Every worker throws; exactly one exception must reach the caller and
  // its message must be one the workers actually produced.
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 100, [](std::size_t, std::size_t, unsigned t) {
      throw std::runtime_error("worker " + std::to_string(t));
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("worker ", 0), 0u);
  }
}

TEST(ThreadPool, ParallelReduceRethrowsWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_reduce(
          0, 100, 0.0,
          [](std::size_t b, std::size_t, unsigned) -> double {
            if (b == 0) throw std::domain_error("reduce failed");
            return 1.0;
          },
          [](double a, double b) { return a + b; }),
      std::domain_error);
}

TEST(ThreadPool, PoolUsableAfterWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [](std::size_t, std::size_t, unsigned) {
                                   throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e, unsigned) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 64);
  const double total = pool.parallel_reduce(
      0, 10, 0.0, [](std::size_t b, std::size_t e, unsigned) { return double(e - b); },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(total, 10.0);
}

// Idle workers leave the spin window (a few thousand pause iterations
// and 64 yields, well under a millisecond) and park on the futex.  A
// region must still wake every one of them, and so must the destructor.
TEST(ThreadPool, ParkedWorkersWakeForRegionsAndDestructor) {
  std::vector<std::atomic<int>> hits(1000);
  {
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e, unsigned) {
        for (std::size_t i = b; i < e; ++i) hits[i] += 1;
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

#if defined(__linux__)
// The pool sizes itself and its spin policy from the CPUs the affinity
// mask grants, not from the machine's CPU count: a spinning waiter on a
// CPU shared with the thread it waits for only delays that thread.
TEST(ThreadPool, SizesFromAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) GTEST_SKIP() << "cannot pin to one CPU";
  EXPECT_EQ(usable_cpus(), 1u);
  EXPECT_EQ(ThreadPool().size(), 1u);
  const detail::SpinPolicy policy = detail::auto_spin_policy(2);
  EXPECT_EQ(policy.spin_iters, 0u);
  EXPECT_EQ(policy.yield_iters, 0u);
  sched_setaffinity(0, sizeof saved, &saved);
}
#endif

// The join's conformance cases.  The guarantees of the concurrency
// contract are checked with the workers in both states a region can
// find them in: still spinning (right after construction or a region)
// or parked on the futex (idle longer than the spin window).
enum class Idle { kSpinning, kParked };
constexpr Idle kIdleStates[] = {Idle::kSpinning, Idle::kParked};

const char* idle_label(Idle state) { return state == Idle::kSpinning ? "spinning" : "parked"; }

// The spin window is a few thousand pause iterations and 64 yields,
// well under a millisecond, so a 20 ms sleep parks every worker.
void let_idle(Idle state) {
  if (state == Idle::kParked) std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(BarrierConformance, ParallelForVisitsEachIndexOnce) {
  for (Idle state : kIdleStates) {
    ThreadPool pool(4);
    let_idle(state);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e, unsigned) {
      for (std::size_t i = b; i < e; ++i) hits[i] += 1;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << idle_label(state);
  }
}

TEST(BarrierConformance, ParallelReduceFoldsInitExactlyOnce) {
  constexpr double kInit = 100.0;
  const double expected = kInit + 999.0 * 1000.0 / 2.0;
  for (Idle state : kIdleStates) {
    for (unsigned nthreads : {1u, 3u, 8u}) {
      ThreadPool pool(nthreads);
      let_idle(state);
      const double total = pool.parallel_reduce(
          0, 1000, kInit,
          [](std::size_t b, std::size_t e, unsigned) {
            double s = 0.0;
            for (std::size_t i = b; i < e; ++i) s += static_cast<double>(i);
            return s;
          },
          [](double a, double b) { return a + b; });
      EXPECT_EQ(total, expected) << idle_label(state) << " with " << nthreads << " threads";
    }
  }
}

TEST(BarrierConformance, ExceptionPropagationAndReuse) {
  for (Idle state : kIdleStates) {
    ThreadPool pool(4);
    let_idle(state);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t b, std::size_t, unsigned) {
                                     if (b == 0) throw std::runtime_error("worker failed");
                                   }),
                 std::runtime_error)
        << idle_label(state);
    // The join must have stayed balanced: the pool is reusable after a
    // throwing region, also once its workers have gone idle again.
    let_idle(state);
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e, unsigned) {
      count += static_cast<int>(e - b);
    });
    EXPECT_EQ(count.load(), 64) << idle_label(state);
  }
}

TEST(BarrierConformance, NestedParallelForDegradesToSerial) {
  for (Idle state : kIdleStates) {
    ThreadPool pool(4);
    let_idle(state);
    std::atomic<int> count{0};
    pool.parallel_for(0, 4, [&](std::size_t, std::size_t, unsigned) {
      pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e, unsigned) {
        count += static_cast<int>(e - b);
      });
    });
    EXPECT_EQ(count.load(), 40) << idle_label(state);
  }
}

// Regression for the concurrent-submission race: the check of the
// active flag and the claim of the region state used to live in two
// separate lock scopes, so two outside submitters could both pass the
// check and corrupt the region (lost chunks, double-run chunks, or a
// stuck join).  With the atomic check-and-claim every index is
// incremented exactly once no matter how many threads submit
// concurrently — losers run serially.
TEST(BarrierConformance, ConcurrentSubmittersLoseNoChunks) {
  constexpr unsigned kSubmitters = 6;
  constexpr int kRoundsPerSubmitter = 50;
  constexpr std::size_t kN = 512;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (unsigned s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int r = 0; r < kRoundsPerSubmitter; ++r) {
        pool.parallel_for(0, kN, [&](std::size_t b, std::size_t e, unsigned) {
          for (std::size_t i = b; i < e; ++i) hits[i] += 1;
        });
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : submitters) t.join();
  const int expected = static_cast<int>(kSubmitters) * kRoundsPerSubmitter;
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), expected) << "index " << i;
}

TEST(BarrierConformance, ConcurrentReduceSubmittersStaysCorrect) {
  constexpr unsigned kSubmitters = 4;
  constexpr int kRounds = 30;
  const double expected = 999.0 * 1000.0 / 2.0;
  ThreadPool pool(3);
  std::atomic<int> wrong{0};
  std::vector<std::thread> submitters;
  for (unsigned s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        const double total = pool.parallel_reduce(
            0, 1000, 0.0,
            [](std::size_t b, std::size_t e, unsigned) {
              double acc = 0.0;
              for (std::size_t i = b; i < e; ++i) acc += static_cast<double>(i);
              return acc;
            },
            [](double a, double b) { return a + b; });
        if (total != expected) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

// The generation word is the fork's sense: each region changes it and a
// worker waits for it to differ from the value it last saw.  Thousands
// of back-to-back regions re-arm the join countdown and advance the word
// once each, so any lost wakeup or stale count shows up as a hang or a
// wrong total.
TEST(BarrierConformance, SenseReversalSurvivesManyGenerations) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  constexpr int kGenerations = 4000;
  for (int g = 0; g < kGenerations; ++g) {
    pool.parallel_for(0, 4, [&](std::size_t b, std::size_t e, unsigned) {
      total += static_cast<long>(e - b);
    });
  }
  EXPECT_EQ(total.load(), 4L * kGenerations);
}

TEST(Table, AlignedRendering) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "2.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  TextTable t({"a", "b"});
  t.add_row({"x,y", "quo\"te"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quo\"\"te\""), std::string::npos);
}

// Regression: all-zero (and non-finite) values must render zero-width
// bars, not NaN-scaled garbage from the value/max division.
TEST(Table, BarChartAllZeroRendersZeroWidthBars) {
  BarChart chart("zeros", 40);
  chart.add("a", 0.0);
  chart.add("b", 0.0);
  const std::string s = chart.str();
  EXPECT_EQ(s.find('#'), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("0.000"), std::string::npos);
}

TEST(Table, BarChartEmptyIsJustTitle) {
  BarChart chart("nothing", 40);
  EXPECT_EQ(chart.str(), "nothing\n");
}

TEST(Table, BarChartNonFiniteValuesRenderZeroWidth) {
  BarChart chart("mixed", 10);
  chart.add("nan", std::numeric_limits<double>::quiet_NaN());
  chart.add("inf", std::numeric_limits<double>::infinity());
  chart.add("ok", 5.0);
  const std::string s = chart.str();
  // Only the finite entry draws bars, scaled to the chart width.
  EXPECT_NE(s.find(std::string(10, '#')), std::string::npos);
  EXPECT_EQ(s.find(std::string(11, '#')), std::string::npos);
  std::size_t bars = 0;
  for (char c : s) bars += c == '#' ? 1 : 0;
  EXPECT_EQ(bars, 10u);
}

TEST(Table, GroupedSeriesRoundTrip) {
  GroupedSeries g("title", "loop");
  g.set("simple", "fujitsu", 1.5);
  g.set("simple", "gnu", 2.5);
  g.set("gather", "fujitsu", 2.0);
  EXPECT_DOUBLE_EQ(g.get("simple", "gnu"), 2.5);
  EXPECT_TRUE(g.has("gather", "fujitsu"));
  EXPECT_FALSE(g.has("gather", "gnu"));
  EXPECT_THROW(static_cast<void>(g.get("nope", "gnu")), std::out_of_range);
  EXPECT_NE(g.table().find("simple"), std::string::npos);
}

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "pos1", "--n", "42", "--flag", "--x=3.5"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 3.5);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, UnknownNamesEveryOptionOutsideTheKnownSet) {
  const char* argv[] = {"prog", "--resolved", "--tune", "pos", "--n=4"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.unknown({"help", "resolved", "checks"}), (std::vector<std::string>{"n", "tune"}));
  EXPECT_TRUE(cli.unknown({"n", "resolved", "tune"}).empty());
  EXPECT_EQ(cli.unknown({}), (std::vector<std::string>{"n", "resolved", "tune"}));
}

TEST(Cli, SwitchNeverTakesTheNextArgument) {
  const char* argv[] = {"prog", "--strict", "a.json", "b.json", "--threshold", "5", "--json=on"};
  // Not named a switch, --strict takes the first file as its value.
  const Cli plain(7, const_cast<char**>(argv));
  EXPECT_EQ(plain.get("strict", ""), "a.json");
  EXPECT_EQ(plain.positional().size(), 1u);

  const Cli cli(7, const_cast<char**>(argv), {"strict", "json"});
  EXPECT_TRUE(cli.has("strict"));
  EXPECT_EQ(cli.positional(), (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(cli.get_int("threshold", 0), 5);
  EXPECT_EQ(cli.get("json", ""), "on");
  // Switches are known options; everything else must be listed.
  EXPECT_TRUE(cli.unknown({"threshold"}).empty());
  EXPECT_EQ(cli.unknown({}), (std::vector<std::string>{"threshold"}));
}

TEST(Aligned, VectorIsAligned) {
  avec<double> v(100);
  EXPECT_TRUE(is_aligned(v.data(), kDefaultAlignment));
}

TEST(Timer, MeasuresElapsedTime) {
  const auto s = time_repeated([] {
    volatile double x = 0.0;
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  }, 3);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_GT(s.mean(), 0.0);
}

}  // namespace
}  // namespace ookami
