// perfbench: the repository benchmark runner.
//
//   perfbench --workload small|large --seed N --seconds S --trace 0|1
//
// One run measures a workload end to end (--trace 0) or layer by layer
// (--trace 1) and prints, as its last line, one JSON object
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// Every output the program produces during the run is checked; a failed
// check makes the run exit 1.  perfbench/run.py builds this binary from
// the repository sources and is the command to run (see README.md).

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine.hpp"
#include "metrics.hpp"
#include "ookami/common/cli.hpp"
#include "ookami/dispatch/autotune.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/lulesh/lulesh.hpp"
#include "ookami/npb/cg.hpp"
#include "ookami/serve/protocol.hpp"
#include "ookami/serve/queue.hpp"
#include "ookami/taskgraph/taskgraph.hpp"
#include "ookami/trace/aggregate.hpp"
#include "ookami/trace/trace.hpp"
#include "ookami/vecmath/exp.hpp"
#include "serve_client.hpp"
#include "solve.hpp"
#include "stamp.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;
using ookami::taskgraph::Exec;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id;
  std::string ookamid = PERFBENCH_OOKAMID;
};

using Metrics = std::map<std::string, double>;

/// Rounds of an untraced run (see run()).
constexpr int kRounds = 3;

// --- Setup ---------------------------------------------------------------

/// Fork/exec this binary in --warm-probe mode and wait; returns the wall
/// time from spawn to exit, or a negative value if the probe failed.
double time_warm_probe(const Args& args) {
  const std::string self = "/proc/self/exe";
  const std::string seed = std::to_string(args.seed);
  std::vector<std::string> words = {"perfbench", "--warm-probe", "1", "--workload",
                                    args.workload, "--seed", seed};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::execv(self.c_str(), argv.data());
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  const double s = seconds_since(t0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1.0;
}

/// One request per mix kernel on a fresh connection; returns the samples.
std::vector<Sample> warm_daemon(int port, const std::vector<MixEntry>& mix, std::uint64_t seed) {
  std::vector<Arrival> one;
  for (std::uint32_t k = 0; k < mix.size(); ++k) one.push_back({0.0, k, 1 + (seed + k) % 997});
  return run_open_loop(port, one, mix, 1);
}

// --- Solve half ----------------------------------------------------------

struct SolveSummary {
  double lulesh_s = 0.0, cg_s = 0.0, sp_s = 0.0, dgemm_s = 0.0, exp_s = 0.0;
  std::array<double, 6> loop_s{};
  double loops_total_s = 0.0;
};

/// Append timed passes until `budget_s` has elapsed (at least `min_passes`).
void collect_passes(SolveSuite& suite, double budget_s, int min_passes, Checks& checks,
                    std::vector<PassTimes>& passes) {
  const auto t0 = Clock::now();
  for (int done = 0; done < min_passes || seconds_since(t0) < budget_s; ++done) {
    passes.push_back(suite.run_pass(checks));
    const PassTimes& p = passes.back();
    std::fprintf(stderr, "  pass %zu: lulesh %.5f cg %.5f sp %.5f dgemm %.7f exp %.8f loops %.8f\n",
                 passes.size(), p.lulesh_s, p.cg_s, p.sp_s, p.dgemm_s, p.exp_s,
                 p.loop_s[0] + p.loop_s[1] + p.loop_s[2] + p.loop_s[3] + p.loop_s[4] + p.loop_s[5]);
  }
}

/// Per-app quantile `q` over the passes.  The gated figures use the
/// lower quartile: host CPU steal only ever adds time, in bursts, so the
/// faster quarter of passes is the run's interference-free cost while
/// still being a statistic of many passes.
SolveSummary summarize(const std::vector<PassTimes>& passes, double q = 0.25) {
  auto stat = [&](auto field) {
    std::vector<double> v;
    for (const PassTimes& p : passes) v.push_back(field(p));
    return quantile(std::move(v), q);
  };
  SolveSummary m;
  m.lulesh_s = stat([](const PassTimes& p) { return p.lulesh_s; });
  m.cg_s = stat([](const PassTimes& p) { return p.cg_s; });
  m.sp_s = stat([](const PassTimes& p) { return p.sp_s; });
  m.dgemm_s = stat([](const PassTimes& p) { return p.dgemm_s; });
  m.exp_s = stat([](const PassTimes& p) { return p.exp_s; });
  for (std::size_t k = 0; k < m.loop_s.size(); ++k) {
    m.loop_s[k] = stat([k](const PassTimes& p) { return p.loop_s[k]; });
  }
  m.loops_total_s = stat([](const PassTimes& p) {
    double s = 0.0;
    for (double x : p.loop_s) s += x;
    return s;
  });
  return m;
}

SolveSummary solve_passes(SolveSuite& suite, double budget_s, int min_passes, Checks& checks) {
  std::vector<PassTimes> passes;
  collect_passes(suite, budget_s, min_passes, checks, passes);
  return summarize(passes);
}

void solve_end_to_end(const SolveSummary& m, const SolveSizes& sz, Metrics& out) {
  const double n = static_cast<double>(sz.dgemm_n);
  out["lulesh_s"] = m.lulesh_s;
  out["cg_s"] = m.cg_s;
  out["sp_s"] = m.sp_s;
  out["dgemm_gflops"] = 2.0 * n * n * n / m.dgemm_s * 1e-9;
  out["exp_gelem_s"] = static_cast<double>(sz.exp_n) / m.exp_s * 1e-9;
  out["loops_gelem_s"] = 6.0 * static_cast<double>(sz.loops_n) / m.loops_total_s * 1e-9;
}

// --- Serve half ----------------------------------------------------------

/// What the daemon half of a run collected, over one or more daemons.
struct ServeRun {
  std::vector<double> warm_s;   ///< per daemon: spawn until the warm replies arrived
  std::vector<Sample> all;      ///< every request sent, warm-up included
  std::vector<Sample> open;     ///< open-loop samples, in schedule order
  std::vector<Sample> closed;   ///< closed-loop samples
  std::vector<double> rps_windows;  ///< closed-loop OK/s per window
  double daemon_rss_mb = 0.0;   ///< largest VmHWM over the daemons
};

/// One daemon lifetime: spawn, one request per mix kernel, the open-loop
/// `arrivals`, `closed_s` of closed loop, drain.  Checks the warm replies
/// and that the daemon drained exactly the requests sent.
void serve_round(const Args& args, const std::vector<MixEntry>& mix, unsigned connections,
                 const std::vector<Arrival>& arrivals, double closed_s, std::size_t windows,
                 const std::vector<std::string>& env, ServeRun& run, Checks& checks) {
  const auto t0 = Clock::now();
  Daemon daemon(args.ookamid, env);
  const std::vector<Sample> warm = warm_daemon(daemon.port(), mix, args.seed + run.warm_s.size());
  run.warm_s.push_back(seconds_since(t0));
  std::size_t warm_ok = 0;
  for (const Sample& s : warm) warm_ok += s.ok ? 1 : 0;
  checks.record(warm_ok == mix.size(), "daemon warm-up request failed");

  const std::vector<Sample> open = run_open_loop(daemon.port(), arrivals, mix, connections);
  const ClosedLoopResult closed = run_closed_loop(
      daemon.port(), (args.seed ^ 0xc1053dull) + run.warm_s.size(), mix, connections, closed_s);
  const std::vector<double> rps = throughput_windows(closed.samples, closed.elapsed_s, windows);
  run.rps_windows.insert(run.rps_windows.end(), rps.begin(), rps.end());
  run.daemon_rss_mb = std::max(run.daemon_rss_mb, daemon.peak_rss_mb());
  const long long drained = daemon.stop();
  const std::size_t sent = warm.size() + open.size() + closed.samples.size();
  checks.record(drained == static_cast<long long>(sent),
                "ookamid drained " + std::to_string(drained) + " requests, " +
                    std::to_string(sent) + " were sent");
  run.all.insert(run.all.end(), warm.begin(), warm.end());
  run.all.insert(run.all.end(), open.begin(), open.end());
  run.all.insert(run.all.end(), closed.samples.begin(), closed.samples.end());
  run.open.insert(run.open.end(), open.begin(), open.end());
  run.closed.insert(run.closed.end(), closed.samples.begin(), closed.samples.end());
}

/// Arrivals [lo, hi) of `schedule`, re-based to start at time zero.
std::vector<Arrival> schedule_slice(const std::vector<Arrival>& schedule, std::size_t lo,
                                    std::size_t hi) {
  std::vector<Arrival> out(schedule.begin() + static_cast<std::ptrdiff_t>(lo),
                           schedule.begin() + static_cast<std::ptrdiff_t>(hi));
  const double t0 = lo == 0 ? 0.0 : schedule[lo - 1].t_s;
  for (Arrival& a : out) a.t_s -= t0;
  return out;
}

/// Open-loop latency quantile over the quietest stretch, capped to a
/// finite value when failed requests push it to infinity.  A stretch
/// holds at least 1000 requests and 20 beyond the quantile, so a
/// stretch's p99 is not set by a handful of samples.
double latency_quantile(const std::vector<Sample>& open, double q) {
  const auto span = std::max(kLatencySpan, static_cast<std::size_t>(std::ceil(20.0 / (1.0 - q))));
  const double x = quietest_stretch_latency(open, q, span);
  return std::isfinite(x) ? x : 1e9;
}

// --- Traced run: per-layer metrics ---------------------------------------

template <class Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(seconds_since(t0));
  }
  return median(v);
}

/// Count and duration of the pool's fork/join regions during one call.
struct RegionCount {
  double regions = 0.0;
  double forkjoin_s = 0.0;  ///< summed pool/parallel_for inclusive time
  double worker_s = 0.0;    ///< summed pool/worker inclusive time
};

template <class Fn>
RegionCount traced_regions(Fn&& fn) {
  ookami::trace::clear();
  ookami::trace::set_enabled(true);
  fn();
  ookami::trace::set_enabled(false);
  const auto report = ookami::trace::aggregate(ookami::trace::collect(), ookami::trace::Roofline{});
  ookami::trace::clear();
  RegionCount rc;
  for (const auto& r : report.regions) {
    if (r.name == "pool/parallel_for") {
      rc.regions = static_cast<double>(r.count);
      rc.forkjoin_s = r.inclusive_s;
    } else if (r.name == "pool/worker") {
      rc.worker_s = r.inclusive_s;
    }
  }
  return rc;
}

void common_layers(SolveSuite& suite, Checks& checks, Metrics& out) {
  const unsigned threads = suite.threads();
  out["common.pool_spawn_us"] =
      median_time(30, [&] { ookami::ThreadPool pool(threads); }) * 1e6;
  ookami::ThreadPool& pool = suite.pool();
  std::vector<double> fj;
  for (int rep = 0; rep < 50; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 100; ++i) {
      pool.parallel_for(0, threads, [](std::size_t, std::size_t, unsigned) {});
    }
    fj.push_back(seconds_since(t0) / 100.0);
  }
  out["common.forkjoin_us"] = median(fj) * 1e6;

  const Exec exec = ookami::taskgraph::default_exec();
  const RegionCount lu = traced_regions([&] { suite.lulesh(threads, exec, checks); });
  const RegionCount cg = traced_regions([&] { suite.cg(threads, checks); });
  const RegionCount sp = traced_regions([&] { suite.sp(threads, exec, checks); });
  out["common.regions.lulesh"] = lu.regions;
  out["common.regions.cg"] = cg.regions;
  out["common.regions.sp"] = sp.regions;
  const double fork_s = lu.forkjoin_s + cg.forkjoin_s + sp.forkjoin_s;
  const double work_s = lu.worker_s + cg.worker_s + sp.worker_s;
  out["common.join_wait_frac"] = fork_s > 0.0 ? 1.0 - work_s / (fork_s * threads) : 0.0;

  // One-thread and task-graph runs, each interleaved with a default run
  // so every ratio compares neighbours in time.
  const SolveSizes& sz = suite.sizes();
  const int reps = sz.lulesh_edge >= 32 ? 1 : 5;
  std::vector<double> lu_n, lu_1, lu_g, cg_n, cg_1, sp_n, sp_1, sp_g, dg_n, dg_1;
  ookami::ThreadPool one(1);
  for (int r = 0; r < reps; ++r) {
    lu_n.push_back(suite.lulesh(threads, exec, checks));
    lu_1.push_back(suite.lulesh(1, exec, checks));
    lu_g.push_back(suite.lulesh(threads, Exec::kGraph, checks));
    cg_n.push_back(suite.cg(threads, checks));
    cg_1.push_back(suite.cg(1, checks));
    sp_n.push_back(suite.sp(threads, exec, checks));
    sp_1.push_back(suite.sp(1, exec, checks));
    sp_g.push_back(suite.sp(threads, Exec::kGraph, checks));
    ookami::ThreadPool many(threads);
    dg_n.push_back(suite.dgemm(many, checks));
    dg_1.push_back(suite.dgemm(one, checks));
  }
  const double n = static_cast<double>(sz.dgemm_n);
  const double edge = sz.lulesh_edge;
  out["lulesh.t1_s"] = median(lu_1);
  out["lulesh.zone_ns"] =
      median(lu_1) / (edge * edge * edge * ookami::lulesh::Options{}.max_steps) * 1e9;
  out["npb.cg_t1_s"] = median(cg_1);
  out["npb.sp_t1_s"] = median(sp_1);
  out["hpcc.dgemm_t1_gflops"] = 2.0 * n * n * n / median(dg_1) * 1e-9;
  out["common.speedup.lulesh"] = median(lu_1) / median(lu_n);
  out["common.speedup.cg"] = median(cg_1) / median(cg_n);
  out["common.speedup.sp"] = median(sp_1) / median(sp_n);
  out["common.speedup.dgemm"] = median(dg_1) / median(dg_n);
  out["taskgraph.lulesh_ratio"] = median(lu_g) / median(lu_n);
  out["taskgraph.sp_ratio"] = median(sp_g) / median(sp_n);

  // Per-task cost of the executor: a chain of phases of empty tasks.
  constexpr int kPhases = 16;
  const std::size_t chunks = ookami::taskgraph::default_chunks(threads);
  std::vector<double> per_task;
  for (int rep = 0; rep < 50; ++rep) {
    ookami::taskgraph::TaskGraph g("perfbench/chain");
    ookami::taskgraph::TaskGraph::Phase prev;
    for (int p = 0; p < kPhases; ++p) {
      auto phase = g.add_phase("perfbench/empty", 0, chunks, chunks, [](std::size_t, std::size_t) {});
      if (p > 0) g.depend_1to1(prev, phase);
      prev = std::move(phase);
    }
    const auto t0 = Clock::now();
    g.run(pool);
    per_task.push_back(seconds_since(t0) / static_cast<double>(g.tasks()));
  }
  out["taskgraph.task_us"] = median(per_task) * 1e6;
}

void kernel_layers(SolveSuite& suite, const SolveSummary& untraced, double triad_gbs,
                   double fma_gflops, Metrics& out) {
  const SolveSizes& sz = suite.sizes();
  out["vecmath.exp_ns"] = untraced.exp_s / static_cast<double>(sz.exp_n) * 1e9;
  static const char* const kLoopNames[6] = {"loops.simple_ns",       "loops.predicate_ns",
                                            "loops.gather_ns",       "loops.scatter_ns",
                                            "loops.short_gather_ns", "loops.short_scatter_ns"};
  for (std::size_t k = 0; k < 6; ++k) {
    out[kLoopNames[k]] = untraced.loop_s[k] / static_cast<double>(sz.loops_n) * 1e9;
  }

  const ookami::npb::CgSpec spec = ookami::npb::cg_spec(sz.cg_cls);
  ookami::npb::CsrMatrix a;
  out["npb.makea_s"] = median_time(3, [&] { a = ookami::npb::cg_makea(spec.na, spec.nonzer, spec.shift); });
  std::vector<double> x(static_cast<std::size_t>(a.n), 1.0), y(static_cast<std::size_t>(a.n));
  const double spmv_s = median_time(20, [&] { ookami::npb::spmv(a, x, y, suite.pool()); });
  // Algorithmic traffic: values and column indices once, row offsets,
  // the source vector once and the result written once.
  const double bytes = static_cast<double>(a.nnz()) * 12.0 + (a.n + 1) * 4.0 + a.n * 16.0;
  out["npb.spmv_gbs"] = bytes / spmv_s * 1e-9;
  out["npb.spmv_bw_frac"] = out["npb.spmv_gbs"] / triad_gbs;

  const double gflops = 2.0 * std::pow(static_cast<double>(sz.dgemm_n), 3) / untraced.dgemm_s * 1e-9;
  out["hpcc.dgemm_peak_frac"] = gflops / (suite.threads() * fma_gflops);
}

void serve_inprocess_layers(const std::vector<MixEntry>& mix, ookami::ThreadPool& pool,
                            Metrics& out) {
  namespace serve = ookami::serve;
  double exp_catalog_s = 0.0;
  for (const MixEntry& e : mix) {
    const serve::ServableKernel* k = serve::Catalog::global().find(e.kernel);
    if (k == nullptr) throw std::runtime_error(e.kernel + " is not in the catalog");
    std::uint64_t seed = 1;
    const double s = median_time(50, [&] {
      serve::BatchItem item{e.n, seed++, 0};
      k->run({&item, 1}, pool);
    });
    out["serve.catalog_us." + e.kernel] = s * 1e6;
    if (e.kernel == "vecmath.exp") exp_catalog_s = s;
  }
  const std::size_t n = mix.front().n;  // the exp entry
  std::vector<double> x(n), y(n);
  SeedStream rng(3);
  for (double& v : x) v = 16.0 * rng.uniform() - 8.0;
  out["serve.digest_us"] =
      median_time(50, [&] { volatile auto d = serve::digest_doubles(y.data(), n); (void)d; }) * 1e6;
  const double direct_s = median_time(50, [&] { ookami::vecmath::exp_array(x, y); });
  out["serve.catalog_kernel_frac"] = direct_s / exp_catalog_s;

  serve::AdmissionQueue queue(64);
  auto pending = std::make_shared<serve::Pending>();
  std::vector<double> q;
  for (int rep = 0; rep < 50; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 1000; ++i) {
      queue.try_push(pending);
      (void)queue.pop_batch(16);
    }
    q.push_back(seconds_since(t0) / 1000.0);
  }
  out["serve.queue_ns"] = median(q) * 1e9;

  const std::string body = run_body(mix.front(), 12345);
  serve::Response resp;
  resp.kernel = mix.front().kernel;
  resp.n = n;
  resp.backend = "avx512";
  resp.digest = serve::digest_hex(0x0123456789abcdefull);
  resp.trace = "00000000000000ff";
  std::vector<double> pr;
  for (int rep = 0; rep < 50; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 200; ++i) {
      serve::Request req;
      std::string err;
      serve::parse_request(body, req, err);
      volatile std::size_t len = serve::ok_body(resp).size();
      (void)len;
    }
    pr.push_back(seconds_since(t0) / 200.0);
  }
  out["serve.protocol_us"] = median(pr) * 1e6;
}

/// Calibration cost and warm resolution cost of every (kernel, size
/// class) the workload resolved.  Runs last: it re-calibrates.
void dispatch_layers(Metrics& out) {
  const auto rows = ookami::dispatch::tuning_table();
  out["dispatch.calibrations"] = static_cast<double>(ookami::dispatch::calibration_count());
  ookami::dispatch::reset_autotune_for_testing();
  double calibrate_s = 0.0;
  std::vector<double> resolve;
  for (const auto& row : rows) {
    const std::size_t n = std::size_t{1} << row.size_class;
    const auto t0 = Clock::now();
    (void)ookami::dispatch::resolved_backend(row.kernel, n);
    calibrate_s += seconds_since(t0);
    const auto t1 = Clock::now();
    for (int i = 0; i < 10000; ++i) (void)ookami::dispatch::resolved_backend(row.kernel, n);
    resolve.push_back(seconds_since(t1) / 10000.0);
  }
  out["dispatch.calibrate_ms"] = calibrate_s * 1e3;
  out["dispatch.resolve_ns"] = median(resolve) * 1e9;
}

// --- Output --------------------------------------------------------------

const char* unit_of(const std::string& name) {
  for (const auto* defs : {&end_to_end_metrics(), &printed_only_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

/// Human-readable table, then the result line.  Returns the exit code.
int report(const std::vector<MetricDef>& wanted, const Metrics& got, const Checks& checks,
           const Stamp& stamp) {
  std::printf("run conditions: %s\n", stamp.to_json().dump(0).c_str());
  for (const auto& [name, value] : got) {
    std::printf("  %-34s %16.6g %s\n", name.c_str(), value, unit_of(name));
  }
  const double ratio = static_cast<double>(checks.failed) / static_cast<double>(checks.attempted);
  std::printf("  %-34s %16.6g ratio  (%zu of %zu checks failed)\n", "failed_ratio", ratio,
              checks.failed, checks.attempted);
  for (std::size_t i = 0; i < checks.failures.size() && i < 20; ++i) {
    std::printf("  FAILED: %s\n", checks.failures[i].c_str());
  }
  std::string line = "{\"correct\": " + std::string(checks.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  bool missing = false;
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    const auto it = got.find(wanted[i].name);
    if (it == got.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", wanted[i].name);
      missing = true;
      continue;
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", it->second);
    line += std::string(i == 0 ? "" : ", ") + "\"" + wanted[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + wanted[i].unit + "\"}";
  }
  line += "}}";
  if (missing) return 3;
  std::printf("%s\n", line.c_str());
  return checks.failed == 0 ? 0 : 1;
}

int warm_probe(const Args& args) {
  Checks checks;
  SolveSuite suite(solve_sizes(args.workload), available_threads(), args.seed,
                   /*reference_checks=*/false);
  suite.run_pass(checks);
  return checks.failed == 0 ? 0 : 1;
}

int run(const Args& args) {
  const SolveSizes sizes = solve_sizes(args.workload);
  const std::vector<MixEntry> mix = serve_mix(args.workload);
  const unsigned threads = available_threads();
  Stamp stamp = capture_stamp(threads, args.source_id);
  const std::vector<std::string> problems = guard_problems(stamp);
  if (!problems.empty()) {
    for (const auto& p : problems) std::fprintf(stderr, "perfbench: refusing to run: %s\n", p.c_str());
    return 2;
  }
  std::printf("perfbench: workload %s, seed %llu, %g s, %s run, %u threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced" : "untraced", threads);
  std::fflush(stdout);

  Checks checks;
  Metrics m;
  const double T = args.seconds;
  const double rate = open_loop_rate(args.workload);
  if (!args.trace) {
    SolveSuite suite(sizes, threads, args.seed);
    suite.run_pass(checks);  // warm: first touch and calibration, untimed
    // Every app has run once: this is the solve half's peak, before the
    // benchmark's own request records grow.
    const double solve_rss_mb = peak_rss_mb("self");
    // The run is kRounds rounds of [set-up trial, solve passes, one
    // daemon's serve phases], so host interference at any one time hits
    // a minority of every metric's samples.  Every round makes at least
    // one solve pass, which already outlasts a large round's solve share
    // (SP class W alone takes seconds), so there the serve half gets the
    // larger share of the measured time.
    const bool large = args.workload == "large";
    const double solve_s = (large ? 0.3 : 0.4) * T / kRounds;
    const double open_s = (large ? 0.5 : 0.4) * T;
    const double closed_s = 0.2 * T / kRounds;
    const auto schedule =
        make_schedule(args.seed, rate, static_cast<std::size_t>(rate * open_s), mix);
    std::vector<PassTimes> passes;
    std::vector<double> probes;
    ServeRun sr;
    for (int r = 0; r < kRounds; ++r) {
      probes.push_back(time_warm_probe(args));
      checks.record(probes.back() >= 0.0, "set-up process failed");
      collect_passes(suite, solve_s, 1, checks, passes);
      serve_round(args, mix, threads,
                  schedule_slice(schedule, schedule.size() * r / kRounds,
                                 schedule.size() * (r + 1) / kRounds),
                  closed_s, kWindows / kRounds, {}, sr, checks);
    }
    verify_digests(sr.all, mix, suite.pool(), checks);
    std::vector<double> setups;
    for (int r = 0; r < kRounds; ++r) setups.push_back(std::max(probes[r], 0.0) + sr.warm_s[r]);
    m["setup_s"] = median(setups);
    solve_end_to_end(summarize(passes), sizes, m);
    m["p50_ms"] = latency_quantile(sr.open, 0.50);
    m["p99_ms"] = latency_quantile(sr.open, 0.99);
    m["capacity_rps"] = *std::max_element(sr.rps_windows.begin(), sr.rps_windows.end());
    m["peak_rss_mb"] = solve_rss_mb + sr.daemon_rss_mb;
    // The gated figures are lower quartiles (see summarize); medians over
    // the same samples, and pooled latency percentiles, for reference.
    const SolveSummary mid = summarize(passes, 0.5);
    std::vector<double> latency, late;
    for (const Sample& s : sr.open) {
      latency.push_back(s.ok ? s.latency_ms : 1e9);
      late.push_back(s.late_ms);
    }
    std::fprintf(stderr, "  generator lateness p50 %.4f ms, p99 %.4f ms\n", quantile(late, 0.5),
                 quantile(late, 0.99));
    std::printf("  solve passes %zu; medians: lulesh %.6g s, cg %.6g s, sp %.6g s, dgemm %.6g s, "
                "exp %.6g s, loops %.6g s\n",
                passes.size(), mid.lulesh_s, mid.cg_s, mid.sp_s, mid.dgemm_s, mid.exp_s,
                mid.loops_total_s);
    std::printf("  open loop: %zu requests at %g req/s, pooled p50 %.6g ms, p99 %.6g ms; "
                "closed loop: %zu requests\n",
                sr.open.size(), rate, quantile(latency, 0.5), quantile(latency, 0.99),
                sr.closed.size());
    refresh_dispatch(stamp);
    return report(end_to_end_metrics(), m, checks, stamp);
  }

  SolveSuite suite(sizes, threads, args.seed);
  suite.run_pass(checks);
  const SolveSummary untraced = solve_passes(suite, 0.15 * T, 2, checks);
  ookami::trace::set_enabled(true);
  const SolveSummary traced = solve_passes(suite, 0.15 * T, 2, checks);
  ookami::trace::set_enabled(false);
  ookami::trace::clear();
  const std::vector<double> overhead = {
      traced.lulesh_s / untraced.lulesh_s - 1.0, traced.cg_s / untraced.cg_s - 1.0,
      traced.sp_s / untraced.sp_s - 1.0,         traced.dgemm_s / untraced.dgemm_s - 1.0,
      traced.exp_s / untraced.exp_s - 1.0,       traced.loops_total_s / untraced.loops_total_s - 1.0};
  m["trace.overhead_frac"] = median(overhead);

  const TriadResult triad_r = triad(threads);
  m["machine.triad_gbs"] = triad_r.gbs;
  m["machine.fma_gflops"] = fma_gflops();
  std::printf("  triad arrays %.0f MiB each (last-level cache %.0f MiB)\n",
              static_cast<double>(triad_r.array_bytes) / (1 << 20),
              static_cast<double>(llc_bytes()) / (1 << 20));

  common_layers(suite, checks, m);
  kernel_layers(suite, untraced, m["machine.triad_gbs"], m["machine.fma_gflops"], m);
  serve_inprocess_layers(mix, suite.pool(), m);

  ServeRun sr;
  serve_round(args, mix, threads,
              make_schedule(args.seed, rate, static_cast<std::size_t>(rate * 0.2 * T), mix),
              0.1 * T, kWindows, {"OOKAMI_TRACE=1"}, sr, checks);
  verify_digests(sr.all, mix, suite.pool(), checks);
  std::vector<Sample> all = sr.open;
  all.insert(all.end(), sr.closed.begin(), sr.closed.end());
  const ServeBreakdown b = extract_breakdown(all);
  m["serve.http_us"] = b.http_us;
  m["serve.queue_us"] = b.queue_us;
  m["serve.queue_p99_us"] = b.queue_p99_us;
  m["serve.run_us"] = b.run_us;
  m["serve.unaccounted_us"] = b.unaccounted_us;
  m["serve.batch_mean"] = b.batch_mean;
  m["serve.compatible_share"] = b.compatible_share;
  m["serve.rejected"] = b.rejected;
  std::vector<double> late;
  for (const Sample& s : sr.open) late.push_back(s.late_ms);
  m["serve.gen_late_ms"] = quantile(late, 0.99);

  refresh_dispatch(stamp);
  dispatch_layers(m);
  return report(per_layer_metrics(), m, checks, stamp);
}

}  // namespace

int main(int argc, char** argv) {
  ookami::Cli cli(argc, argv);
  Args args;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", 10.0);
  args.trace = cli.get_int("trace", 0) != 0;
  args.source_id = cli.get("source-id", "unknown");
  args.ookamid = cli.get("ookamid", args.ookamid);
  try {
    solve_sizes(args.workload);  // validates the name
    if (cli.has("warm-probe")) return warm_probe(args);
    if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
