// Tests of the benchmark's own code: the arrival schedule, response
// parsing and metric extraction, the run-condition guard, and the
// agreement between BENCHMARK.json and the metrics the runner emits.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "metrics.hpp"
#include "ookami/common/json.hpp"
#include "serve_client.hpp"
#include "stamp.hpp"

namespace {

using namespace perfbench;

TEST(Schedule, IsAPureFunctionOfTheSeed) {
  const auto mix = serve_mix("small");
  const auto a = make_schedule(42, 2500.0, 5000, mix);
  const auto b = make_schedule(42, 2500.0, 5000, mix);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_s, b[i].t_s);
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
  const auto c = make_schedule(43, 2500.0, 5000, mix);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i].t_s == c[i].t_s ? 1 : 0;
  EXPECT_LT(same, a.size() / 100);
}

TEST(Schedule, FollowsTheRateAndTheMix) {
  const auto mix = serve_mix("small");
  const auto s = make_schedule(7, 2000.0, 20000, mix);
  // Poisson arrivals: the last arrival lands near count / rate.
  EXPECT_NEAR(s.back().t_s, 10.0, 0.3);
  std::vector<double> share(mix.size(), 0.0);
  std::set<std::uint64_t> seeds;
  for (const Arrival& a : s) {
    share[a.kernel] += 1.0 / static_cast<double>(s.size());
    EXPECT_GE(a.seed, 1u);
    EXPECT_LT(a.seed, 1u << 31);
    seeds.insert(a.seed);
    if (a.t_s < 0.0) ADD_FAILURE() << "negative arrival time";
  }
  for (std::size_t k = 0; k < mix.size(); ++k) EXPECT_NEAR(share[k], mix[k].weight, 0.015);
  EXPECT_LE(seeds.size(), mix.size() * kSeedPool);
}

TEST(Extraction, ParsesCannedResponses) {
  const auto mix = serve_mix("small");
  std::vector<Sample> samples(4);
  const std::string bodies[4] = {
      R"({"status":"ok","kernel":"vecmath.exp","n":4096,"seed":5,"backend":"avx512","digest":"00000000000000aa","trace":"0000000000000001","batch":1,"queue_us":10,"run_us":80,"total_us":100})",
      R"({"status":"ok","kernel":"vecmath.exp","n":4096,"seed":6,"backend":"avx512","digest":"00000000000000bb","trace":"0000000000000002","batch":3,"queue_us":30,"run_us":90,"total_us":130})",
      R"({"status":"ok","kernel":"vecmath.exp","n":4096,"seed":7,"backend":"avx512","digest":"00000000000000cc","trace":"0000000000000003","batch":2,"queue_us":20,"run_us":70,"total_us":95})",
      R"({"status":"error","error":"overloaded","message":"admission queue is full"})",
  };
  const int status[4] = {200, 200, 200, 429};
  const double rtt[4] = {150.0, 200.0, 125.0, 50.0};
  for (int i = 0; i < 4; ++i) {
    samples[i].seed = 5 + i;
    samples[i].rtt_us = rtt[i];
    parse_run_response(status[i], bodies[i], mix[0], samples[i]);
  }
  EXPECT_TRUE(samples[0].ok);
  EXPECT_EQ(samples[1].digest, "00000000000000bb");
  EXPECT_FALSE(samples[3].ok);
  EXPECT_EQ(samples[3].error, "overloaded");

  const ServeBreakdown b = extract_breakdown(samples);
  EXPECT_DOUBLE_EQ(b.http_us, 50.0);         // rtt - total: 50, 70, 30
  EXPECT_DOUBLE_EQ(b.queue_us, 20.0);
  EXPECT_DOUBLE_EQ(b.run_us, 80.0);
  EXPECT_DOUBLE_EQ(b.unaccounted_us, 10.0);  // 10, 10, 5
  EXPECT_DOUBLE_EQ(b.batch_mean, 2.0);
  EXPECT_DOUBLE_EQ(b.compatible_share, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.rejected, 1.0);
}

TEST(Extraction, WindowedStatisticsTakeTheQuietestStretch) {
  // 400 requests; the last 100 sit in a burst of host interference.
  std::vector<Sample> open(400);
  for (std::size_t i = 0; i < open.size(); ++i) {
    open[i].ok = true;
    open[i].latency_ms = i >= 300 ? 50.0 : 1.0 + static_cast<double>(i % 100) / 100.0;
  }
  EXPECT_NEAR(quietest_stretch_latency(open, 0.5, 100), 1.495, 1e-9);
  open[10].ok = false;  // a failed request is slower than every success
  EXPECT_NEAR(quietest_stretch_latency(open, 1.0, 100), 1.99, 1e-9);
  for (std::size_t i = 0; i < open.size(); i += 50) open[i].ok = false;
  EXPECT_TRUE(std::isinf(quietest_stretch_latency(open, 1.0, 100)));

  std::vector<Sample> closed(300);
  for (std::size_t i = 0; i < closed.size(); ++i) {
    closed[i].ok = i % 3 != 0;
    closed[i].done_s = static_cast<double>(i) / 100.0;  // 3 s, 100 per second
  }
  const std::vector<double> rps = throughput_windows(closed, 3.0, 3);
  ASSERT_EQ(rps.size(), 3u);
  for (double r : rps) EXPECT_NEAR(r, 66.67, 1.0);
}

TEST(Extraction, RejectsRepliesThatDoNotEchoTheRequest) {
  const auto mix = serve_mix("small");
  Sample s;
  s.seed = 9;
  EXPECT_FALSE(parse_run_response(
      200,
      R"({"status":"ok","kernel":"vecmath.log","n":4096,"seed":9,"backend":"avx2","digest":"01","batch":1,"queue_us":1,"run_us":1,"total_us":2})",
      mix[0], s));
  EXPECT_FALSE(parse_run_response(200, "not json", mix[0], s));
  EXPECT_FALSE(s.ok);
}

TEST(Guard, RefusesOverridesOversubscriptionAndUnoptimisedBuilds) {
  Stamp s;
  s.nproc = 4;
  s.threads = 4;
  s.build_type = "Release";
  s.cxx_flags = "-O3 -DNDEBUG";
  EXPECT_TRUE(guard_problems(s).empty());
  s.ookami_env = {{"OOKAMI_TASKGRAPH", "1"}};
  EXPECT_EQ(guard_problems(s).size(), 1u);
  s.ookami_env.clear();
  s.threads = 8;
  EXPECT_EQ(guard_problems(s).size(), 1u);
  s.threads = 4;
  s.build_type = "Debug";
  s.cxx_flags = "-g";
  EXPECT_EQ(guard_problems(s).size(), 1u);
}

/// BENCHMARK.json lists exactly the metrics the runner emits, with the
/// same units.
TEST(BenchmarkJson, MatchesTheEmittedMetrics) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << "cannot read " << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = ookami::json::Value::parse(text.str());
  auto check = [](const ookami::json::Value& listed, const std::vector<MetricDef>& defs) {
    ASSERT_EQ(listed.size(), defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(listed.at(i).at("name").as_string(), defs[i].name);
      EXPECT_EQ(listed.at(i).at("unit").as_string(), defs[i].unit);
    }
  };
  check(doc.at("end_to_end"), end_to_end_metrics());
  check(doc.at("per_layer"), per_layer_metrics());
}

}  // namespace
