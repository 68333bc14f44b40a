#include "ookami/harness/harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "ookami/common/timer.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/harness/profile.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/trace/export.hpp"
#include "ookami/trace/trace.hpp"

namespace ookami::harness {

Options Options::from_cli(const Cli& cli) {
  Options o;
  o.repeats = static_cast<int>(cli.get_int("repeats", o.repeats));
  o.warmup = static_cast<int>(cli.get_int("warmup", o.warmup));
  o.min_time_s = cli.get_double("min-time", o.min_time_s);
  o.max_repeats = static_cast<int>(cli.get_int("max-repeats", o.max_repeats));
  o.out_dir = cli.get("out-dir", o.out_dir);
  if (cli.has("no-json")) o.emit_json = false;
  if (cli.has("no-csv")) o.emit_csv = false;
  if (cli.has("strict-claims")) o.strict_claims = true;
  if (cli.has("no-samples")) o.keep_samples = false;
  // --trace or the OOKAMI_TRACE environment variable (which trace
  // reads at load time) turns region tracing on.
  if (cli.has("trace") || trace::enabled()) o.trace = true;
  o.trace_top = static_cast<int>(cli.get_int("trace-top", o.trace_top));
  o.trace_machine = cli.get("trace-machine", o.trace_machine);
  // --metrics (or OOKAMI_METRICS=1) samples hardware counters; region
  // attribution needs trace regions, so metrics implies trace.
  if (const char* v = std::getenv("OOKAMI_METRICS");
      cli.has("metrics") || (v != nullptr && (std::string(v) == "1" || std::string(v) == "true" ||
                                              std::string(v) == "on"))) {
    o.metrics = true;
    o.trace = true;
  }
  if (const char* v = std::getenv("OOKAMI_METRICS_BACKEND"); v != nullptr) o.metrics_backend = v;
  o.metrics_backend = cli.get("metrics-backend", o.metrics_backend);
  if (o.trace_top < 1) o.trace_top = 1;
  if (o.repeats < 1) o.repeats = 1;
  if (o.warmup < 0) o.warmup = 0;
  if (o.max_repeats < 1) o.max_repeats = 1;
  return o;
}

std::string Options::usage() {
  return "harness options:\n"
         "  --repeats N       measured runs per timed series (default 5)\n"
         "  --warmup N        untimed runs before measuring (default 1)\n"
         "  --min-time SEC    time-based repeats: measure until SEC seconds of\n"
         "                    samples are collected (overrides --repeats upward)\n"
         "  --max-repeats N   cap for time-based repeats (default 1000)\n"
         "  --out-dir DIR     artifact directory (default bench_results)\n"
         "  --no-json         skip the BENCH_<name>.json artifact\n"
         "  --no-csv          skip the BENCH_<name>.csv artifact\n"
         "  --no-samples      omit raw per-repeat samples from the JSON\n"
         "  --strict-claims   exit nonzero when a paper-claim check fails\n"
         "  --trace           record OOKAMI_TRACE_SCOPE regions (also OOKAMI_TRACE=1):\n"
         "                    embeds a per-region roofline profile in the JSON and\n"
         "                    writes a Chrome trace to TRACE_<name>.json\n"
         "  --trace-top N     rows in the printed trace summary (default 15)\n"
         "  --trace-machine M roofline model for verdicts: a64fx (default),\n"
         "                    skylake, knl or zen2\n"
         "  --metrics         sample hardware counters (also OOKAMI_METRICS=1):\n"
         "                    per-region measured IPC/miss-rate attribution, per-repeat\n"
         "                    latency histograms, a \"metrics\" JSON block and a\n"
         "                    METRICS_<name>.prom artifact; implies --trace.  Falls back\n"
         "                    to software sources where perf_event_open is denied\n"
         "  --metrics-backend B  auto (default) or software (skip perf_event_open;\n"
         "                    also OOKAMI_METRICS_BACKEND=software)\n"
         "  --filter SUBSTR   only run benches whose name contains SUBSTR\n"
         "  --list            print registered bench names and exit\n"
         "  --list-kernels    print the kernel registry manifest and exit: one\n"
         "                    'name<TAB>scalar[,avx2[,avx512]]' line per registered\n"
         "                    kernel; each runs its widest variant the CPU supports,\n"
         "                    capped by OOKAMI_SIMD_BACKEND\n"
         "  --help            this message\n";
}

std::vector<std::string> Options::switches() {
  return {"no-json", "no-csv", "no-samples", "strict-claims", "trace",
          "metrics", "list", "list-kernels", "help"};
}

std::vector<std::string> Options::options() {
  return {"repeats", "warmup", "min-time", "max-repeats", "out-dir",
          "trace-top", "trace-machine", "metrics-backend", "filter"};
}

json::Value Environment::to_json() const {
  json::Value v = json::Value::object();
  v.set("host", host);
  v.set("os", os);
  v.set("arch", arch);
  v.set("compiler", compiler);
  v.set("cxx_flags", cxx_flags);
  v.set("build_type", build_type);
  v.set("git_rev", git_rev);
  v.set("timestamp_utc", timestamp_utc);
  v.set("simd_backend", simd_backend);
  // Process-level wall clock: when this harness invocation started and
  // how long it had been running when this document was built, so
  // archived results correlate with external monitoring timelines.
  v.set("harness_start_utc", harness_start_utc());
  v.set("harness_duration_s", harness_uptime_s());
  v.set("hardware_threads", static_cast<double>(hardware_threads));
  if (!runtime_env.empty()) {
    json::Value e = json::Value::object();
    for (const auto& [k, val] : runtime_env) e.set(k, val);
    v.set("env", std::move(e));
  }
  return v;
}

json::Value Series::to_json(bool keep_samples) const {
  json::Value v = json::Value::object();
  v.set("name", name);
  v.set("unit", unit);
  v.set("kind", kind);
  v.set("better", direction == Direction::kLowerIsBetter ? "lower" : "higher");
  v.set("backend", backend);
  if (!kernel_backends.empty()) {
    json::Value kb = json::Value::object();
    for (const auto& [kernel, b] : kernel_backends) kb.set(kernel, b);
    v.set("kernel_backends", std::move(kb));
  }
  v.set("count", static_cast<double>(stats.count()));
  // An empty Summary has no measurements; emit explicit nulls rather
  // than a plausible-looking 0.0 (non-finite doubles also serialize as
  // null, so a NaN sentinel can never masquerade as data).
  if (stats.count() == 0) {
    v.set("mean", json::Value());
    v.set("median", json::Value());
    v.set("stddev", json::Value());
    v.set("min", json::Value());
    v.set("max", json::Value());
  } else {
    v.set("mean", stats.mean());
    v.set("median", stats.median());
    v.set("stddev", stats.stddev());
    v.set("min", stats.min());
    v.set("max", stats.max());
  }
  if (keep_samples && kind == std::string("timed")) {
    json::Value samples = json::Value::array();
    for (double s : stats.samples()) samples.push_back(s);
    v.set("samples", std::move(samples));
  }
  return v;
}

Run::Run(std::string name, Options opts)
    : name_(std::move(name)), opts_(std::move(opts)), env_(capture_environment()) {}

const Summary& Run::time(const std::string& series, const std::function<void()>& fn,
                         const std::string& unit) {
  // Observe which registry kernels resolve (and to which post-clamp
  // variant) while this series runs, so the archived JSON records what
  // the series actually exercised.
  dispatch::begin_observation();
  for (int i = 0; i < opts_.warmup; ++i) fn();
  // Under --metrics every repeat also lands in a log-bucketed latency
  // histogram so run-to-run variability survives into the archive
  // (1e-7 s lower edge, x1.5 buckets: ~100 ns to ~10^7 s in 80 buckets).
  metrics::Histogram* hist = nullptr;
  if (opts_.metrics) {
    hist = &metrics_.histogram("latency/" + series, metrics::HistogramOptions{1e-7, 1.5, 80});
  }
  Summary s;
  double accumulated = 0.0;
  const int target = opts_.min_time_s > 0.0 ? opts_.max_repeats : opts_.repeats;
  for (int i = 0; i < target; ++i) {
    WallTimer t;
    fn();
    const double dt = t.elapsed();
    s.add(dt);
    if (hist != nullptr) hist->observe(dt);
    accumulated += dt;
    if (opts_.min_time_s > 0.0 && accumulated >= opts_.min_time_s &&
        i + 1 >= std::min(opts_.repeats, opts_.max_repeats)) {
      break;
    }
  }
  Series out{series, unit, "timed", Direction::kLowerIsBetter, std::move(s),
             simd::backend_name(simd::active_backend()), {}};
  const auto observed = dispatch::take_observation();
  if (!observed.empty()) {
    bool uniform = true;
    for (const dispatch::Observation& o : observed) {
      out.kernel_backends.emplace_back(o.kernel, simd::backend_name(o.backend));
      if (o.backend != observed.front().backend) uniform = false;
    }
    out.backend = uniform ? simd::backend_name(observed.front().backend) : "mixed";
  }
  series_.push_back(std::move(out));
  return series_.back().stats;
}

void Run::record(const std::string& series, double value, const std::string& unit,
                 Direction direction) {
  Summary s;
  s.add(value);
  series_.push_back({series, unit, "recorded", direction, std::move(s),
                     simd::backend_name(simd::active_backend()), {}});
}

void Run::record_summary(const std::string& series, const Summary& stats,
                         const std::string& unit, const char* kind, Direction direction) {
  series_.push_back({series, unit, kind, direction, stats,
                     simd::backend_name(simd::active_backend()), {}});
}

void Run::record_grouped(const GroupedSeries& g, const std::string& unit, Direction direction) {
  for (const auto& group : g.groups()) {
    for (const auto& series : g.series()) {
      if (g.has(group, series)) record(group + "/" + series, g.get(group, series), unit, direction);
    }
  }
}

void Run::note(const std::string& key, const std::string& value) {
  for (auto& [k, v] : notes_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  notes_.emplace_back(key, value);
}

void Run::check(const std::string& title, const std::vector<report::ClaimCheck>& claims) {
  std::printf("\n%s", report::render_claims(title, claims).c_str());
  claims_.insert(claims_.end(), claims.begin(), claims.end());
  claims_failed_ += report::failed(claims);
}

json::Value Run::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", "ookami-bench-1");
  doc.set("name", name_);
  {
    // The trace/metrics on/off states are part of the execution
    // environment: an instrumented archive must be identifiable even
    // when the environment variables were not set (e.g. --trace).
    json::Value env = env_.to_json();
    env.set("trace", opts_.trace);
    env.set("metrics", opts_.metrics);
    doc.set("environment", std::move(env));
  }
  {
    json::Value o = json::Value::object();
    o.set("repeats", opts_.repeats);
    o.set("warmup", opts_.warmup);
    o.set("min_time_s", opts_.min_time_s);
    doc.set("options", std::move(o));
  }
  if (!notes_.empty()) {
    json::Value n = json::Value::object();
    for (const auto& [k, v] : notes_) n.set(k, v);
    doc.set("notes", std::move(n));
  }
  {
    json::Value arr = json::Value::array();
    for (const auto& s : series_) arr.push_back(s.to_json(opts_.keep_samples));
    doc.set("series", std::move(arr));
  }
  if (!claims_.empty()) {
    json::Value arr = json::Value::array();
    for (const auto& c : claims_) {
      json::Value v = json::Value::object();
      v.set("id", c.id);
      v.set("description", c.description);
      v.set("paper", c.paper_value);
      v.set("measured", c.measured_value);
      v.set("ratio", c.ratio());
      v.set("tolerance", c.tolerance_factor);
      v.set("pass", c.pass());
      arr.push_back(std::move(v));
    }
    doc.set("claims", std::move(arr));
    doc.set("claims_failed", claims_failed_);
  }
  if (!profile_.is_null()) doc.set("profile", profile_);
  if (!metrics_doc_.is_null()) doc.set("metrics", metrics_doc_);
  return doc;
}

std::string Run::to_csv() const {
  TextTable t({"series", "unit", "kind", "count", "mean", "median", "stddev", "min", "max"});
  for (const auto& s : series_) {
    const bool empty = s.stats.count() == 0;
    auto cell = [&](double v) { return empty ? std::string() : TextTable::num(v, 9); };
    t.add_row({s.name, s.unit, s.kind, std::to_string(s.stats.count()), cell(s.stats.mean()),
               cell(s.stats.median()), cell(s.stats.stddev()), cell(s.stats.min()),
               cell(s.stats.max())});
  }
  return t.csv();
}

int Run::finish() {
  if (opts_.emit_json) {
    const std::string path = opts_.out_dir + "/BENCH_" + name_ + ".json";
    if (write_file(path, to_json().dump())) {
      std::printf("\nharness: wrote %s (%zu series)\n", path.c_str(), series_.size());
    } else {
      std::fprintf(stderr, "harness: FAILED to write %s\n", path.c_str());
      return 1;
    }
  }
  if (opts_.emit_csv) {
    const std::string path = opts_.out_dir + "/BENCH_" + name_ + ".csv";
    if (!write_file(path, to_csv())) {
      std::fprintf(stderr, "harness: FAILED to write %s\n", path.c_str());
      return 1;
    }
  }
  if (claims_failed_ > 0) {
    std::printf("harness: %d paper-claim check(s) failed%s\n", claims_failed_,
                opts_.strict_claims ? "" : " (informational; use --strict-claims to gate)");
    if (opts_.strict_claims) return 1;
  }
  return 0;
}

namespace {

struct Registration {
  std::string name;
  BenchFn fn;
};

std::vector<Registration>& registry() {
  static std::vector<Registration> r;
  return r;
}

}  // namespace

int register_bench(const char* name, BenchFn fn) {
  registry().push_back({name, fn});
  return static_cast<int>(registry().size());
}

std::vector<std::string> registered_benches() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& r : registry()) names.push_back(r.name);
  return names;
}

int run_main(int argc, char** argv) {
  const Cli cli(argc, argv, Options::switches());
  if (cli.has("help")) {
    std::printf("%s", Options::usage().c_str());
    return 0;
  }
  if (cli.has("list")) {
    for (const auto& r : registry()) std::printf("%s\n", r.name.c_str());
    return 0;
  }
  if (cli.has("list-kernels")) {
    // The registered kernels are a property of the linked modules, not
    // of any bench: print the manifest and exit without running one.
    std::printf("%s", dispatch::manifest().c_str());
    return 0;
  }
  const Options opts = Options::from_cli(cli);
  const std::string filter = cli.get("filter", "");
  harness_start_utc();  // anchor the process start clock before any work
  harness_uptime_s();
  if (opts.trace) trace::set_enabled(true);

  // One sampler for the whole process: with inherit=1 the worker
  // threads benches spawn later are aggregated into its counts.
  std::unique_ptr<metrics::CounterSampler> sampler;
  if (opts.metrics) {
    metrics::SamplerConfig cfg;
    if (opts.metrics_backend == "software") cfg.allow_perf = false;
    sampler = std::make_unique<metrics::CounterSampler>(cfg);
    std::printf("harness: metrics backend %s (%s)\n",
                metrics::backend_name(sampler->backend()), sampler->backend_reason().c_str());
  }

  int status = 0;
  int executed = 0;
  for (const auto& r : registry()) {
    if (!filter.empty() && r.name.find(filter) == std::string::npos) continue;
    ++executed;
    if (opts.trace) trace::clear();  // each bench gets its own trace
    Run run(r.name, opts);
    std::unique_ptr<metrics::RegionProfiler> profiler;
    metrics::CounterSet before;
    if (sampler) {
      profiler = std::make_unique<metrics::RegionProfiler>(*sampler);
      profiler->attach();
      sampler->read(before);
    }
    const int body = r.fn(run);
    metrics::CounterSet totals;
    if (sampler) {
      totals = sampler->read().delta(before);
      profiler->detach();
    }
    if (opts.trace) {
      const trace::Report profile = collect_report(opts.trace_machine);
      std::printf("\n%s", trace::render(profile, static_cast<std::size_t>(opts.trace_top)).c_str());
      if (sampler) {
        MeasuredProfile measured;
        measured.backend = sampler->backend();
        measured.backend_reason = sampler->backend_reason();
        measured.regions = profiler->collect();
        run.attach_profile(profile_to_json(profile, &measured));
      } else {
        run.attach_profile(profile_to_json(profile));
      }
      const std::string trace_path = opts.out_dir + "/TRACE_" + r.name + ".json";
      if (write_file(trace_path, trace::to_chrome_json(trace::collect()))) {
        std::printf("harness: wrote %s (chrome://tracing)\n", trace_path.c_str());
      } else {
        std::fprintf(stderr, "harness: FAILED to write %s\n", trace_path.c_str());
      }
    }
    if (sampler) {
      const double ipc = totals.ipc();
      const double miss = totals.cache_miss_rate();
      std::printf("metrics: %s backend, %.3fs cpu", metrics::backend_name(sampler->backend()),
                  totals.cpu_s);
      if (std::isfinite(ipc)) std::printf(", %.0f Minstr, IPC %.2f", totals.get(metrics::CounterId::kInstructions) / 1e6, ipc);
      if (std::isfinite(miss)) std::printf(", cache miss %.1f%%", miss * 100.0);
      std::printf("\n");
      run.attach_metrics(metrics_to_json(*sampler, totals, run.metrics_registry()));
      const std::string prom_path = opts.out_dir + "/METRICS_" + r.name + ".prom";
      if (write_file(prom_path,
                     metrics_to_prometheus(*sampler, totals, run.metrics_registry()))) {
        std::printf("harness: wrote %s (prometheus text)\n", prom_path.c_str());
      } else {
        std::fprintf(stderr, "harness: FAILED to write %s\n", prom_path.c_str());
      }
    }
    const int emit = run.finish();
    status = std::max({status, body, emit});
  }
  if (executed == 0) {
    std::fprintf(stderr, "harness: no registered bench matches filter '%s'\n", filter.c_str());
    return 2;
  }
  return status;
}

}  // namespace ookami::harness
