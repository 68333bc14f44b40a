// loadgen — open-loop load generator for ookamid.
//
//   loadgen --port P [--host 127.0.0.1] [--arrivals poisson|bursty]
//           [--rate 200] [--requests 400] [--senders 4] [--seed 42]
//           [--kernel vecmath.exp] [--n 65536]
//           [--compare-batch "1,16"] [--netsim hdr200-fujitsu]
//           [--sample-log FILE] [harness flags: --out-dir ...]
//
// Replays a seeded arrival trace against a running daemon and archives
// the observed latency distribution as an ookami-bench-1 result
// (BENCH_serve_loadgen.json) that tools/bench_diff can gate.
//
// Open loop: arrival times are precomputed from the seed (Poisson, or
// a bursty on/off modulation of the same rate) and each request's
// latency is measured from its *scheduled* arrival, not from when the
// sender thread got around to the send — so daemon-side queueing under
// saturation shows up as latency instead of silently stretching the
// trace (no coordinated omission).  Senders partition arrivals
// round-robin; request i keeps deterministic inputs (kernel, n,
// seed*i) regardless of sender count.
//
// --compare-batch "A,B" replays the same trace twice against the same
// daemon, setting the coalescing limit via POST /config between
// phases — the A/B evidence for the batching-under-saturation claim.
//
// --netsim <profile> adds a deterministic simulated fabric transit
// (netsim::DelaySampler, counter-indexed by request) to each measured
// latency, for studying how the serving distribution composes with a
// cluster interconnect.
//
// Every /run response carries the daemon's per-request trace id; the
// slowest requests are printed with their ids so a tail sample can be
// looked up live via GET /trace/<id>, and --sample-log FILE archives
// every (phase, index, latency, trace) row as CSV.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ookami/common/cli.hpp"
#include "ookami/common/json.hpp"
#include "ookami/common/rng.hpp"
#include "ookami/common/stats.hpp"
#include "ookami/harness/harness.hpp"
#include "ookami/netsim/netsim.hpp"
#include "ookami/report/report.hpp"
#include "ookami/serve/http.hpp"
#include "ookami/serve/protocol.hpp"

namespace {

using namespace ookami;

/// Seeded arrival schedule in seconds from phase start.
std::vector<double> make_arrivals(const std::string& kind, std::size_t count, double rate,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> at;
  at.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    double local = rate;
    if (kind == "bursty") {
      // 200 ms period: a 100 ms burst at 3x followed by a 100 ms lull
      // at x/3 — same average order, very different queue pressure.
      local = std::fmod(t, 0.2) < 0.1 ? 3.0 * rate : rate / 3.0;
    }
    t += -std::log(1.0 - rng.uniform()) / local;
    at.push_back(t);
  }
  return at;
}

/// One completed request: latency plus the daemon's trace id.
struct Sample {
  std::size_t index = 0;  ///< position in the arrival trace
  double latency_s = 0.0;
  std::string trace;      ///< 16-hex id from the response ("" pre-upgrade)
};

struct PhaseResult {
  std::vector<double> latency_s;  ///< completed requests only
  std::vector<Sample> samples;    ///< same requests, with trace ids
  std::size_t ok = 0;
  std::size_t rejected = 0;  ///< typed `overloaded` responses
  std::size_t failed = 0;    ///< transport errors / other statuses
  double wall_s = 0.0;
  double server_queue_us_sum = 0.0;
  double server_run_us_sum = 0.0;
};

double exact_quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto idx = static_cast<std::size_t>(
      std::min(q * static_cast<double>(sorted.size() - 1) + 0.5,
               static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

struct Config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string arrivals = "poisson";
  double rate = 200.0;
  std::size_t requests = 400;
  unsigned senders = 4;
  std::uint64_t seed = 42;
  std::string kernel = "vecmath.exp";
  std::size_t n = 65536;
  const netsim::DelaySampler* netsim = nullptr;
};

PhaseResult replay(const Config& cfg, const std::vector<double>& arrivals) {
  PhaseResult out;
  std::vector<std::vector<double>> lat(cfg.senders);
  std::vector<std::vector<Sample>> samples(cfg.senders);
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::uint64_t> queue_ns{0};
  std::atomic<std::uint64_t> run_ns{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.senders);
  for (unsigned s = 0; s < cfg.senders; ++s) {
    threads.emplace_back([&, s] {
      serve::HttpClient client(cfg.host, cfg.port);
      for (std::size_t i = s; i < arrivals.size(); i += cfg.senders) {
        const auto scheduled =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(arrivals[i]));
        std::this_thread::sleep_until(scheduled);  // no-op once overdue
        json::Value body = json::Value::object();
        body.set("kernel", cfg.kernel);
        body.set("n", static_cast<unsigned long long>(cfg.n));
        body.set("seed", static_cast<unsigned long long>(cfg.seed * 1000003ull + i));
        try {
          const serve::HttpClient::Result r = client.post("/run", body.dump(0));
          const auto done = std::chrono::steady_clock::now();
          if (r.status == 200) {
            double l = std::chrono::duration<double>(done - scheduled).count();
            if (cfg.netsim != nullptr) {
              l += cfg.netsim->sample_seconds(body.dump(0).size() + r.body.size(), i);
            }
            lat[s].push_back(l);
            ok.fetch_add(1, std::memory_order_relaxed);
            const json::Value doc = json::Value::parse(r.body);
            samples[s].push_back(Sample{i, l, doc.string_or("trace", "")});
            if (const json::Value* q = doc.find("queue_us"); q != nullptr && q->is_number()) {
              queue_ns.fetch_add(static_cast<std::uint64_t>(q->as_number() * 1e3),
                                 std::memory_order_relaxed);
            }
            if (const json::Value* rr = doc.find("run_us"); rr != nullptr && rr->is_number()) {
              run_ns.fetch_add(static_cast<std::uint64_t>(rr->as_number() * 1e3),
                               std::memory_order_relaxed);
            }
          } else if (r.status == 429) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (auto& v : lat) out.latency_s.insert(out.latency_s.end(), v.begin(), v.end());
  std::sort(out.latency_s.begin(), out.latency_s.end());
  for (auto& v : samples) {
    out.samples.insert(out.samples.end(), std::make_move_iterator(v.begin()),
                       std::make_move_iterator(v.end()));
  }
  out.ok = ok.load();
  out.rejected = rejected.load();
  out.failed = failed.load();
  out.server_queue_us_sum = static_cast<double>(queue_ns.load()) * 1e-3;
  out.server_run_us_sum = static_cast<double>(run_ns.load()) * 1e-3;
  return out;
}

void record_phase(harness::Run& run, const std::string& prefix, const PhaseResult& r) {
  Summary stats;
  for (double l : r.latency_s) stats.add(l);
  run.record_summary(prefix + "/latency", stats, "s", "recorded");
  run.record(prefix + "/p50", exact_quantile(r.latency_s, 0.50), "s");
  run.record(prefix + "/p95", exact_quantile(r.latency_s, 0.95), "s");
  run.record(prefix + "/p99", exact_quantile(r.latency_s, 0.99), "s");
  run.record(prefix + "/throughput", static_cast<double>(r.ok) / r.wall_s, "req/s",
             harness::Direction::kHigherIsBetter);
  run.record(prefix + "/rejected", static_cast<double>(r.rejected), "req");
  if (r.ok > 0) {
    run.record(prefix + "/server_queue_mean",
               r.server_queue_us_sum / static_cast<double>(r.ok) * 1e-6, "s");
    run.record(prefix + "/server_run_mean",
               r.server_run_us_sum / static_cast<double>(r.ok) * 1e-6, "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: loadgen --port P [--host H] [--arrivals poisson|bursty] [--rate R]\n"
        "               [--requests N] [--senders K] [--seed S] [--kernel NAME]\n"
        "               [--n SIZE] [--compare-batch \"1,16\"] [--netsim PROFILE]\n"
        "               [--sample-log FILE] [harness flags]\n%s",
        harness::Options::usage().c_str());
    return 0;
  }

  Config cfg;
  cfg.host = cli.get("host", cfg.host);
  cfg.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  cfg.arrivals = cli.get("arrivals", cfg.arrivals);
  cfg.rate = cli.get_double("rate", cfg.rate);
  cfg.requests = static_cast<std::size_t>(cli.get_int("requests", static_cast<long>(cfg.requests)));
  cfg.senders = static_cast<unsigned>(cli.get_int("senders", cfg.senders));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", static_cast<long>(cfg.seed)));
  cfg.kernel = cli.get("kernel", cfg.kernel);
  cfg.n = static_cast<std::size_t>(cli.get_int("n", static_cast<long>(cfg.n)));
  if (cfg.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required (the daemon prints its bound port)\n");
    return 2;
  }
  if (cfg.arrivals != "poisson" && cfg.arrivals != "bursty") {
    std::fprintf(stderr, "loadgen: --arrivals must be poisson or bursty\n");
    return 2;
  }
  // --trace is the harness's tracing switch; an arrival shape after it
  // is a command line from before --arrivals, refused rather than
  // silently replayed as a traced Poisson run.
  if (const std::string shape = cli.get("trace", ""); shape == "poisson" || shape == "bursty") {
    std::fprintf(stderr, "loadgen: the arrival shape is --arrivals %s (--trace turns on tracing)\n",
                 shape.c_str());
    return 2;
  }
  if (cfg.senders == 0) cfg.senders = 1;

  std::unique_ptr<netsim::DelaySampler> sampler;
  if (const std::string profile = cli.get("netsim", ""); !profile.empty()) {
    try {
      sampler = std::make_unique<netsim::DelaySampler>(netsim::delay_profile(profile, cfg.seed));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: %s\n", e.what());
      return 2;
    }
    cfg.netsim = sampler.get();
  }

  harness::Run run("serve_loadgen", harness::Options::from_cli(cli));
  run.note("arrivals", cfg.arrivals);
  run.note("rate", std::to_string(cfg.rate));
  run.note("requests", std::to_string(cfg.requests));
  run.note("senders", std::to_string(cfg.senders));
  run.note("kernel", cfg.kernel);
  run.note("n", std::to_string(cfg.n));
  run.note("seed", std::to_string(cfg.seed));
  if (cfg.netsim != nullptr) run.note("netsim", cli.get("netsim", ""));

  const std::vector<double> arrivals =
      make_arrivals(cfg.arrivals, cfg.requests, cfg.rate, cfg.seed);

  // Batch limits to sweep: "--compare-batch A,B" replays the trace once
  // per limit via POST /config; default is one phase at the daemon's
  // current setting.
  std::vector<long> batches;
  if (const std::string spec = cli.get("compare-batch", ""); !spec.empty()) {
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      batches.push_back(std::stol(spec.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }

  serve::HttpClient control(cfg.host, cfg.port);
  std::vector<std::pair<std::string, PhaseResult>> phases;
  try {
    if (batches.empty()) {
      phases.emplace_back(cfg.arrivals, replay(cfg, arrivals));
    } else {
      for (long b : batches) {
        json::Value req = json::Value::object();
        req.set("batch", static_cast<long long>(b));
        const auto r = control.post("/config", req.dump(0));
        if (r.status != 200) {
          std::fprintf(stderr, "loadgen: POST /config batch=%ld failed (%d)\n", b, r.status);
          return 1;
        }
        phases.emplace_back(cfg.arrivals + "/batch" + std::to_string(b), replay(cfg, arrivals));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }

  for (const auto& [prefix, result] : phases) {
    record_phase(run, prefix, result);
    std::printf("loadgen %-24s ok=%zu rejected=%zu failed=%zu p50=%.3fms p99=%.3fms\n",
                prefix.c_str(), result.ok, result.rejected, result.failed,
                exact_quantile(result.latency_s, 0.50) * 1e3,
                exact_quantile(result.latency_s, 0.99) * 1e3);
    // Tail forensics: the slowest requests with their trace ids, ready
    // for `curl /trace/<id>` while the daemon's flight ring still holds
    // them.
    std::vector<Sample> slow = result.samples;
    std::sort(slow.begin(), slow.end(),
              [](const Sample& a, const Sample& b) { return a.latency_s > b.latency_s; });
    for (std::size_t i = 0; i < slow.size() && i < 3; ++i) {
      std::printf("loadgen %-24s   slow[%zu] req#%zu %.3fms trace=%s\n", prefix.c_str(), i,
                  slow[i].index, slow[i].latency_s * 1e3,
                  slow[i].trace.empty() ? "-" : slow[i].trace.c_str());
    }
  }

  if (const std::string sample_log = cli.get("sample-log", ""); !sample_log.empty()) {
    std::FILE* f = std::fopen(sample_log.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write --sample-log %s\n", sample_log.c_str());
      return 1;
    }
    std::fprintf(f, "phase,index,latency_s,trace\n");
    for (const auto& [prefix, result] : phases) {
      for (const Sample& s : result.samples) {
        std::fprintf(f, "%s,%zu,%.9f,%s\n", prefix.c_str(), s.index, s.latency_s,
                     s.trace.c_str());
      }
    }
    std::fclose(f);
  }

  // With a two-point batch sweep, archive the batching-win claim: the
  // paper-adjacent expectation is that coalescing keeps tail latency
  // bounded under saturation (roughly 2x better p99, with a generous
  // factor because CI latency is noisy).
  if (phases.size() == 2) {
    const double p99_a = exact_quantile(phases[0].second.latency_s, 0.99);
    const double p99_b = exact_quantile(phases[1].second.latency_s, 0.99);
    if (std::isfinite(p99_a) && std::isfinite(p99_b) && p99_b > 0.0) {
      run.check("Serving saturation",
                {{"serve/batching/p99", "p99 ratio " + phases[0].first + " vs " +
                                            phases[1].first + " under saturation",
                  2.0, p99_a / p99_b, 10.0}});
    }
  }
  return run.finish();
}
