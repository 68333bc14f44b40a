// Unit tests for ookami::harness: the JSON emitter/parser, the Run
// repeat protocol and result document, and the bench_diff regression
// gate (including a full file round trip through the emitter).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "ookami/common/json.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/harness/diff.hpp"
#include "ookami/harness/harness.hpp"
#include "ookami/harness/profile.hpp"
#include "ookami/metrics/metrics.hpp"
#include "ookami/simd/backend.hpp"

namespace ookami::harness {
namespace {

namespace dispatch = ookami::dispatch;
namespace simd = ookami::simd;

// --------------------------------------------------------------- JSON

TEST(Json, DumpParseRoundTrip) {
  json::Value doc = json::Value::object();
  doc.set("name", "bench");
  doc.set("pi", 3.25);
  doc.set("n", 42);
  doc.set("ok", true);
  doc.set("missing", json::Value());
  json::Value arr = json::Value::array();
  arr.push_back(1.0);
  arr.push_back("two");
  arr.push_back(false);
  doc.set("items", std::move(arr));

  for (int indent : {0, 2}) {
    const json::Value back = json::Value::parse(doc.dump(indent));
    EXPECT_EQ(back.at("name").as_string(), "bench");
    EXPECT_DOUBLE_EQ(back.at("pi").as_number(), 3.25);
    EXPECT_DOUBLE_EQ(back.at("n").as_number(), 42.0);
    EXPECT_TRUE(back.at("ok").as_bool());
    EXPECT_TRUE(back.at("missing").is_null());
    EXPECT_EQ(back.at("items").size(), 3u);
    EXPECT_EQ(back.at("items").at(1).as_string(), "two");
  }
}

TEST(Json, StringEscapes) {
  json::Value v = json::Value::object();
  v.set("s", "a\"b\\c\nd\te");
  const json::Value back = json::Value::parse(v.dump(0));
  EXPECT_EQ(back.at("s").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(json::Value::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  json::Value v = json::Value::object();
  v.set("nan", std::numeric_limits<double>::quiet_NaN());
  v.set("inf", std::numeric_limits<double>::infinity());
  const json::Value back = json::Value::parse(v.dump(0));
  EXPECT_TRUE(back.at("nan").is_null());
  EXPECT_TRUE(back.at("inf").is_null());
}

TEST(Json, ObjectPreservesInsertionOrderAndReplaces) {
  json::Value v = json::Value::object();
  v.set("b", 1);
  v.set("a", 2);
  v.set("b", 3);  // replace in place, no duplicate
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_DOUBLE_EQ(v.at("b").as_number(), 3.0);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(json::Value::parse(""), json::ParseError);
  EXPECT_THROW(json::Value::parse("{\"a\": 1,}"), json::ParseError);
  EXPECT_THROW(json::Value::parse("[1, 2] trailing"), json::ParseError);
  EXPECT_THROW(json::Value::parse("{\"a\" 1}"), json::ParseError);
  EXPECT_THROW(json::Value::parse("nul"), json::ParseError);
  EXPECT_THROW(json::Value::parse("1.2.3"), json::ParseError);
}

TEST(Json, ParsesNestedDocuments) {
  const auto v = json::Value::parse(R"({"a": {"b": [1, {"c": null}]}, "d": -1.5e2})");
  EXPECT_TRUE(v.at("a").at("b").at(1).at("c").is_null());
  EXPECT_DOUBLE_EQ(v.at("d").as_number(), -150.0);
  EXPECT_DOUBLE_EQ(v.number_or("nope", 7.0), 7.0);
  EXPECT_EQ(v.string_or("nope", "x"), "x");
}

// ------------------------------------------------------------ Options

TEST(Options, FromCliParsesHarnessFlags) {
  const char* argv[] = {"bench", "--repeats", "9", "--warmup=0", "--min-time", "0.5",
                        "--out-dir", "/tmp/x", "--no-csv", "--strict-claims"};
  const Cli cli(10, const_cast<char**>(argv));
  const Options o = Options::from_cli(cli);
  EXPECT_EQ(o.repeats, 9);
  EXPECT_EQ(o.warmup, 0);
  EXPECT_DOUBLE_EQ(o.min_time_s, 0.5);
  EXPECT_EQ(o.out_dir, "/tmp/x");
  EXPECT_TRUE(o.emit_json);
  EXPECT_FALSE(o.emit_csv);
  EXPECT_TRUE(o.strict_claims);
}

TEST(Options, MetricsFlagImpliesTraceAndParsesBackend) {
  {
    const char* argv[] = {"bench", "--metrics"};
    const Cli cli(2, const_cast<char**>(argv));
    const Options o = Options::from_cli(cli);
    EXPECT_TRUE(o.metrics);
    EXPECT_TRUE(o.trace);  // region attribution needs regions
    EXPECT_EQ(o.metrics_backend, "auto");
  }
  {
    const char* argv[] = {"bench", "--metrics", "--metrics-backend", "software"};
    const Cli cli(4, const_cast<char**>(argv));
    EXPECT_EQ(Options::from_cli(cli).metrics_backend, "software");
  }
  {
    ::setenv("OOKAMI_METRICS", "1", 1);
    const char* argv[] = {"bench"};
    const Cli cli(1, const_cast<char**>(argv));
    const Options o = Options::from_cli(cli);
    ::unsetenv("OOKAMI_METRICS");
    EXPECT_TRUE(o.metrics);
    EXPECT_TRUE(o.trace);
  }
  {
    const char* argv[] = {"bench"};
    const Cli cli(1, const_cast<char**>(argv));
    const Options o = Options::from_cli(cli);
    EXPECT_FALSE(o.metrics);
    EXPECT_FALSE(o.trace);
  }
}

// ---------------------------------------------------------------- Run

Options quiet_options() {
  Options o;
  o.repeats = 3;
  o.warmup = 1;
  o.emit_json = false;
  o.emit_csv = false;
  return o;
}

TEST(Run, TimedSeriesHonoursRepeatCount) {
  harness::Run run("unit", quiet_options());
  int calls = 0;
  const Summary& s = run.time("work", [&] { ++calls; });
  EXPECT_EQ(calls, 4);  // 1 warmup + 3 measured
  EXPECT_EQ(s.count(), 3u);
  EXPECT_GE(s.min(), 0.0);
  ASSERT_EQ(run.series().size(), 1u);
  EXPECT_EQ(run.series()[0].kind, "timed");
}

TEST(Run, MinTimeKeepsRepeatingUntilBudget) {
  Options o = quiet_options();
  o.repeats = 1;
  o.min_time_s = 0.02;
  o.warmup = 0;
  harness::Run run("unit", o);
  const Summary& s = run.time("spin", [] {
    volatile double x = 0.0;
    for (int i = 0; i < 200000; ++i) x = x + 1.0;
  });
  double total = 0.0;
  for (double v : s.samples()) total += v;
  EXPECT_GE(total, 0.02);
}

TEST(Run, DocumentShapeAndEmptySummaryNulls) {
  harness::Run run("unit", quiet_options());
  run.record("model/x", 2.5, "s");
  run.record("rate/y", 10.0, "GF/s", Direction::kHigherIsBetter);
  run.record_summary("never-ran", Summary{}, "s");
  run.note("class", "S");

  const json::Value doc = run.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "ookami-bench-1");
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("notes").at("class").as_string(), "S");
  EXPECT_FALSE(doc.at("environment").at("compiler").as_string().empty());
  EXPECT_FALSE(doc.at("environment").at("timestamp_utc").as_string().empty());

  const auto& series = doc.at("series");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series.at(1).at("better").as_string(), "higher");
  // The empty Summary must emit nulls, never a plausible 0.0.
  const auto& empty = series.at(2);
  EXPECT_DOUBLE_EQ(empty.at("count").as_number(), 0.0);
  EXPECT_TRUE(empty.at("median").is_null());
  EXPECT_TRUE(empty.at("min").is_null());
  EXPECT_TRUE(empty.at("max").is_null());
}

TEST(Run, RecordGroupedFlattensPopulatedCells) {
  GroupedSeries g("t", "app");
  g.set("EP", "gnu", 1.0);
  g.set("CG", "gnu", 2.0);
  g.set("EP", "fujitsu", 3.0);
  harness::Run run("unit", quiet_options());
  run.record_grouped(g, "s");
  ASSERT_EQ(run.series().size(), 3u);
  EXPECT_EQ(run.series()[0].name, "EP/gnu");
  EXPECT_EQ(run.series()[1].name, "EP/fujitsu");
  EXPECT_EQ(run.series()[2].name, "CG/gnu");
}

TEST(Run, CsvListsEverySeries) {
  harness::Run run("unit", quiet_options());
  run.record("a", 1.0, "s");
  run.record_summary("empty", Summary{}, "s");
  const std::string csv = run.to_csv();
  EXPECT_NE(csv.find("series,unit,kind,count"), std::string::npos);
  EXPECT_NE(csv.find("\na,s,recorded,1,"), std::string::npos);
  EXPECT_NE(csv.find("\nempty,s,timed,0,,"), std::string::npos);
}

TEST(Run, MetricsModeFeedsLatencyHistogramsAndMetricsBlock) {
  Options o = quiet_options();
  o.metrics = true;
  harness::Run run("unit", o);
  run.time("work", [] {
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  });

  // Every measured repeat lands in a per-series latency histogram.
  const metrics::Histogram* h = run.metrics_registry().find_histogram("latency/work");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);  // repeats, warmup excluded
  EXPECT_GT(h->max(), 0.0);

  // The attached metrics document becomes the result's "metrics" block.
  const metrics::CounterSampler sampler(metrics::SamplerConfig{.allow_perf = false});
  const metrics::CounterSet totals = sampler.read();
  run.attach_metrics(metrics_to_json(sampler, totals, run.metrics_registry()));
  const json::Value doc = run.to_json();
  const json::Value* m = doc.find("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->string_or("backend", ""), "software");
  ASSERT_NE(m->find("totals"), nullptr);
  const json::Value* hists = m->find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->size(), 1u);
  const auto& hj = hists->items()[0];
  EXPECT_EQ(hj.string_or("name", ""), "latency/work");
  EXPECT_DOUBLE_EQ(hj.number_or("count", 0.0), 3.0);
  EXPECT_TRUE(hj.contains("p50"));
  EXPECT_TRUE(hj.contains("p99"));
  ASSERT_NE(hj.find("buckets"), nullptr);
  EXPECT_GT(hj.find("buckets")->size(), 0u);

  // The environment block records that metrics were on.
  EXPECT_TRUE(doc.at("environment").at("metrics").as_bool());

  // The Prometheus artifact names the backend and the histogram.
  const std::string prom = metrics_to_prometheus(sampler, totals, run.metrics_registry());
  EXPECT_NE(prom.find("ookami_metrics_backend{backend=\"software\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("ookami_latency_work_count 3"), std::string::npos);
}

TEST(Run, MetricsOffKeepsRegistryAndJsonClean) {
  harness::Run run("unit", quiet_options());
  run.time("work", [] {});
  EXPECT_EQ(run.metrics_registry().find_histogram("latency/work"), nullptr);
  const json::Value doc = run.to_json();
  EXPECT_EQ(doc.find("metrics"), nullptr);
  EXPECT_FALSE(doc.at("environment").at("metrics").as_bool());
}

TEST(Environment, RecordsHarnessStartAnchor) {
  const std::string& start = harness_start_utc();
  // ISO-8601 UTC: "YYYY-MM-DDThh:mm:ssZ".
  ASSERT_EQ(start.size(), 20u);
  EXPECT_EQ(start[4], '-');
  EXPECT_EQ(start[10], 'T');
  EXPECT_EQ(start.back(), 'Z');
  EXPECT_EQ(harness_start_utc(), start);  // stable for the process
  EXPECT_GE(harness_uptime_s(), 0.0);

  const json::Value j = capture_environment().to_json();
  EXPECT_EQ(j.at("harness_start_utc").as_string(), start);
  EXPECT_TRUE(j.at("harness_duration_s").is_number());
}

// --------------------------------------------------------------- diff

json::Value make_doc(const std::string& name,
                     std::initializer_list<std::pair<const char*, double>> series,
                     const char* better = "lower") {
  json::Value doc = json::Value::object();
  doc.set("schema", "ookami-bench-1");
  doc.set("name", name);
  json::Value arr = json::Value::array();
  for (const auto& [sname, median] : series) {
    json::Value s = json::Value::object();
    s.set("name", sname);
    s.set("unit", "s");
    s.set("kind", "recorded");
    s.set("better", better);
    s.set("count", 1);
    s.set("median", median);
    s.set("mean", median);
    arr.push_back(std::move(s));
  }
  doc.set("series", std::move(arr));
  return doc;
}

TEST(Diff, DetectsMedianRegressionBeyondThreshold) {
  const auto before = make_doc("b", {{"k1", 1.0}, {"k2", 1.0}});
  const auto after = make_doc("b", {{"k1", 1.2}, {"k2", 1.05}});  // +20%, +5%
  DiffOptions opts;
  opts.threshold = 0.10;
  const DiffReport r = diff(before, after, opts);
  EXPECT_EQ(r.regressions, 1);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.deltas.size(), 2u);
  EXPECT_EQ(r.deltas[0].status, SeriesDelta::Status::kRegression);
  EXPECT_EQ(r.deltas[1].status, SeriesDelta::Status::kOk);
  EXPECT_NE(render_diff(r).find("REGRESSED"), std::string::npos);
}

TEST(Diff, HigherIsBetterFlipsTheGate) {
  const auto before = make_doc("b", {{"gf", 10.0}}, "higher");
  const auto faster = make_doc("b", {{"gf", 12.0}}, "higher");
  const auto slower = make_doc("b", {{"gf", 8.0}}, "higher");
  DiffOptions opts;
  opts.threshold = 0.10;
  EXPECT_EQ(diff(before, faster, opts).regressions, 0);
  EXPECT_EQ(diff(before, faster, opts).deltas[0].status, SeriesDelta::Status::kImprovement);
  EXPECT_EQ(diff(before, slower, opts).regressions, 1);
}

TEST(Diff, MissingAndNoDataSeries) {
  const auto before = make_doc("b", {{"gone", 1.0}, {"null-after", 1.0}});
  auto after = make_doc("b", {{"fresh", 1.0}});
  {
    json::Value s = json::Value::object();
    s.set("name", "null-after");
    s.set("unit", "s");
    s.set("better", "lower");
    s.set("count", 0);
    s.set("median", json::Value());
    json::Value arr = after.at("series");
    arr.push_back(std::move(s));
    after.set("series", std::move(arr));
  }
  DiffOptions opts;
  const DiffReport r = diff(before, after, opts);
  EXPECT_EQ(r.regressions, 0);  // neither missing nor no-data gates by default
  ASSERT_EQ(r.deltas.size(), 3u);
  EXPECT_EQ(r.deltas[0].status, SeriesDelta::Status::kMissingAfter);
  EXPECT_EQ(r.deltas[1].status, SeriesDelta::Status::kNoData);
  EXPECT_EQ(r.deltas[2].status, SeriesDelta::Status::kMissingBefore);
  EXPECT_EQ(r.added, 1);
  EXPECT_EQ(r.removed, 1);
  const std::string rendered = render_diff(r);
  EXPECT_NE(rendered.find("added"), std::string::npos);
  EXPECT_NE(rendered.find("REMOVED"), std::string::npos);
  EXPECT_NE(rendered.find("1 added (informational), 1 removed"), std::string::npos);

  opts.fail_on_missing = true;
  EXPECT_EQ(diff(before, after, opts).regressions, 1);
}

TEST(Diff, JsonModeEmitsMachineReadableDeltas) {
  const auto before = make_doc("base", {{"slow", 1.0}, {"gone", 2.0}});
  const auto after = make_doc("cand", {{"slow", 1.5}, {"fresh", 3.0}});
  DiffOptions opts;
  opts.threshold = 0.10;
  const DiffReport r = diff(before, after, opts);

  const json::Value doc = diff_to_json(r);
  EXPECT_EQ(doc.at("schema").as_string(), "ookami-diff-1");
  EXPECT_EQ(doc.at("before").as_string(), "base");
  EXPECT_EQ(doc.at("after").as_string(), "cand");
  EXPECT_EQ(doc.at("metric").as_string(), "median");
  EXPECT_DOUBLE_EQ(doc.at("threshold").as_number(), 0.10);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("regressions").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("added").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(doc.at("removed").as_number(), 1.0);

  const json::Value& deltas = doc.at("deltas");
  ASSERT_EQ(deltas.size(), 3u);
  auto find = [&](const std::string& name) -> const json::Value& {
    for (const auto& d : deltas.items()) {
      if (d.string_or("name", "") == name) return d;
    }
    static const json::Value null;
    return null;
  };
  const json::Value& slow = find("slow");
  EXPECT_EQ(slow.at("status").as_string(), "regressed");
  EXPECT_DOUBLE_EQ(slow.at("before").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(slow.at("after").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(slow.at("ratio").as_number(), 1.5);
  // Non-compared deltas carry nulls, never fabricated numbers.
  const json::Value& gone = find("gone");
  EXPECT_EQ(gone.at("status").as_string(), "removed");
  EXPECT_TRUE(gone.at("before").is_null());
  EXPECT_TRUE(gone.at("ratio").is_null());
  const json::Value& fresh = find("fresh");
  EXPECT_EQ(fresh.at("status").as_string(), "added");
  EXPECT_DOUBLE_EQ(fresh.at("after").as_number(), 3.0);

  // The document round-trips through the parser (what CI consumes).
  const json::Value back = json::Value::parse(doc.dump());
  EXPECT_EQ(back.at("deltas").size(), 3u);
}

TEST(Diff, BackendChangeWarnsButNeverGates) {
  // Same numbers, but one shared series changed its recorded backend:
  // the diff must surface that (text footer + JSON fields) while the
  // gate stays green — a backend move is a lead, not a regression.
  auto with_backends = [](json::Value doc,
                          std::initializer_list<std::pair<const char*, const char*>> backends) {
    json::Value arr = json::Value::array();
    std::size_t i = 0;
    for (const auto& s : doc.at("series").items()) {
      json::Value copy = s;
      copy.set("backend", std::string(std::data(backends)[i++].second));
      arr.push_back(std::move(copy));
    }
    doc.set("series", std::move(arr));
    return doc;
  };
  const auto before =
      with_backends(make_doc("b", {{"k1", 1.0}, {"k2", 1.0}}), {{"k1", "avx2"}, {"k2", "avx2"}});
  const auto after =
      with_backends(make_doc("b", {{"k1", 1.0}, {"k2", 1.0}}), {{"k1", "scalar"}, {"k2", "avx2"}});
  DiffOptions opts;
  const DiffReport r = diff(before, after, opts);
  EXPECT_TRUE(r.ok());  // warning only, never a gate failure
  EXPECT_EQ(r.backend_changes, 1);
  ASSERT_EQ(r.deltas.size(), 2u);
  EXPECT_TRUE(r.deltas[0].backend_changed);
  EXPECT_EQ(r.deltas[0].backend_before, "avx2");
  EXPECT_EQ(r.deltas[0].backend_after, "scalar");
  EXPECT_FALSE(r.deltas[1].backend_changed);

  const std::string rendered = render_diff(r);
  EXPECT_NE(rendered.find("WARNING: 1 series changed backend"), std::string::npos);
  EXPECT_NE(rendered.find("k1: avx2 -> scalar"), std::string::npos);

  const json::Value doc = diff_to_json(r);
  EXPECT_DOUBLE_EQ(doc.at("backend_changes").as_number(), 1.0);
  const json::Value& d0 = doc.at("deltas").at(0);
  EXPECT_TRUE(d0.at("backend_changed").as_bool());
  EXPECT_EQ(d0.at("backend_before").as_string(), "avx2");
  EXPECT_EQ(d0.at("backend_after").as_string(), "scalar");

  // Series without a recorded backend (or matching ones) never warn.
  const DiffReport clean = diff(before, before, opts);
  EXPECT_EQ(clean.backend_changes, 0);
  EXPECT_EQ(render_diff(clean).find("WARNING"), std::string::npos);
  const DiffReport no_field = diff(make_doc("b", {{"k1", 1.0}}), make_doc("b", {{"k1", 1.0}}), opts);
  EXPECT_EQ(no_field.backend_changes, 0);
}

TEST(Run, TimedSeriesArchivesObservedKernelBackends) {
  // A timed series brackets its body with the registry observation API;
  // kernels resolved inside the body land in kernel_backends and fold
  // into the series' backend label.
  using TestFn = int();
  static const dispatch::kernel_table<TestFn> table("test.harness.obs");
  harness::Run run("obs", quiet_options());
  {
    simd::ScopedBackend force(simd::Backend::kScalar);
    run.time("scalar-series", [&] { (void)table.resolve(); });
  }
  const json::Value doc = run.to_json();
  const json::Value& s = doc.at("series").at(0);
  EXPECT_EQ(s.at("backend").as_string(), "scalar");
  const json::Value& kb = s.at("kernel_backends");
  EXPECT_EQ(kb.at("test.harness.obs").as_string(), "scalar");
}

TEST(Environment, CapturesRelevantRuntimeEnv) {
  ::setenv("OOKAMI_THREADS", "8", 1);
  ::setenv("OOKAMI_TRACE", "1", 1);  // recorded only; does not toggle tracing mid-run
  const Environment env = capture_environment();
  auto lookup = [&env](const std::string& key) -> const std::string* {
    for (const auto& kv : env.runtime_env) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  };
  ASSERT_NE(lookup("OOKAMI_THREADS"), nullptr);
  EXPECT_EQ(*lookup("OOKAMI_THREADS"), "8");
  ASSERT_NE(lookup("OOKAMI_TRACE"), nullptr);
  EXPECT_EQ(*lookup("OOKAMI_TRACE"), "1");

  const json::Value j = env.to_json();
  const json::Value* e = j.find("env");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->at("OOKAMI_THREADS").as_string(), "8");
  EXPECT_EQ(e->at("OOKAMI_TRACE").as_string(), "1");

  ::unsetenv("OOKAMI_THREADS");
  ::unsetenv("OOKAMI_TRACE");
  const Environment env2 = capture_environment();
  for (const auto& kv : env2.runtime_env) {
    EXPECT_NE(kv.first, "OOKAMI_THREADS");
    EXPECT_NE(kv.first, "OOKAMI_TRACE");
  }
}

TEST(Diff, RejectsForeignSchemaAndBadMetric) {
  json::Value doc = json::Value::object();
  doc.set("schema", "something-else");
  const auto good = make_doc("b", {{"k", 1.0}});
  EXPECT_THROW(diff(doc, good, DiffOptions{}), std::runtime_error);
  DiffOptions opts;
  opts.metric = "p99";
  EXPECT_THROW(diff(good, good, opts), std::runtime_error);
}

// Round trip: a Run emitted through finish() is readable by diff_files
// and an injected 20% median slowdown trips the gate.
TEST(Diff, FileRoundTripWithInjectedRegression) {
  const auto dir = std::filesystem::temp_directory_path() / "ookami_harness_test";
  std::filesystem::remove_all(dir);

  Options o;
  o.repeats = 2;
  o.out_dir = dir.string();
  o.emit_csv = true;
  harness::Run run("roundtrip", o);
  run.record("model/a", 10.0, "s");
  run.time("host/spin", [] {
    volatile double x = 0.0;
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  });
  EXPECT_EQ(run.finish(), 0);

  const std::string base = (dir / "BENCH_roundtrip.json").string();
  ASSERT_TRUE(std::filesystem::exists(base));
  ASSERT_TRUE(std::filesystem::exists(dir / "BENCH_roundtrip.csv"));

  // Re-emit with the recorded series 20% slower.
  json::Value doc;
  {
    std::ifstream in(base);
    std::ostringstream os;
    os << in.rdbuf();
    doc = json::Value::parse(os.str());
  }
  json::Value series = json::Value::array();
  for (const auto& s : doc.at("series").items()) {
    json::Value copy = s;
    if (copy.at("name").as_string() == "model/a") {
      copy.set("median", copy.at("median").as_number() * 1.2);
    }
    series.push_back(std::move(copy));
  }
  doc.set("series", std::move(series));
  const std::string cand = (dir / "BENCH_candidate.json").string();
  {
    std::ofstream out(cand);
    out << doc.dump();
  }

  DiffOptions opts;
  opts.threshold = 0.10;
  const DiffReport r = diff_files(base, cand, opts);
  EXPECT_EQ(r.regressions, 1);

  opts.threshold = 0.25;
  EXPECT_TRUE(diff_files(base, cand, opts).ok());

  EXPECT_THROW(diff_files(base, (dir / "nope.json").string(), opts), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- registry

TEST(Registry, MacroRegistrationIsVisible) {
  const auto names = registered_benches();
  bool found = false;
  for (const auto& n : names) found = found || n == "harness_selftest";
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ookami::harness

// Outside the anonymous namespace: exercise the registration macro the
// bench binaries use (the test main never invokes run_main, so the body
// is compiled but not executed).
OOKAMI_BENCH(harness_selftest) {
  run.record("noop", 1.0);
  return 0;
}
