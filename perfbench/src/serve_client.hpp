#pragma once
// The daemon half of a workload: spawn the real `ookamid`, drive it
// over keep-alive HTTP connections with a seeded request mix (an
// open-loop Poisson phase, then a closed-loop phase), and turn the
// responses into metrics.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ookami/common/threadpool.hpp"
#include "solve.hpp"

namespace perfbench {

struct MixEntry {
  std::string kernel;
  std::size_t n = 0;
  double weight = 0.0;  ///< share of requests
};

/// Request mix of workload "small" or "large".
std::vector<MixEntry> serve_mix(const std::string& workload);

/// Fixed open-loop arrival rate of the workload, requests per second
/// (about a fifth of the mix's closed-loop capacity on the reference
/// host, so a burst of host CPU steal does not build a lasting backlog).
double open_loop_rate(const std::string& workload);

/// Distinct request seeds drawn per kernel.  Requests repeat seeds so
/// every response can be checked against a cached in-process digest.
inline constexpr std::uint64_t kSeedPool = 64;

struct Arrival {
  double t_s = 0.0;         ///< scheduled send, seconds from phase start
  std::uint32_t kernel = 0; ///< index into the mix
  std::uint64_t seed = 1;   ///< request seed
};

/// `count` requests drawn from `mix` with Poisson arrivals at `rate`
/// per second; a pure function of its arguments.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate, std::size_t count,
                                   const std::vector<MixEntry>& mix);

/// JSON body of POST /run for one arrival.
std::string run_body(const MixEntry& entry, std::uint64_t seed);

/// One request as the client saw it.
struct Sample {
  bool ok = false;       ///< 200 with a well-formed success body
  std::string error;     ///< error token or transport failure reason
  std::uint32_t kernel = 0;
  std::uint64_t seed = 1;
  std::string backend;
  std::string digest;
  double batch = 0.0;
  double queue_us = 0.0;
  double run_us = 0.0;
  double total_us = 0.0;
  double rtt_us = 0.0;      ///< client send -> full response
  double latency_ms = 0.0;  ///< scheduled send -> full response (open loop)
  double late_ms = 0.0;     ///< actual send - scheduled send (open loop)
  double done_s = 0.0;      ///< full response, seconds from phase start
};

/// Host CPU steal comes in bursts of seconds to minutes, so the serving
/// figures are taken over the run's quietest stretch: the best of many
/// windows.  Closed-loop phases are cut into this many time windows.
inline constexpr std::size_t kWindows = 15;

/// Fewest open-loop requests in a latency stretch.
inline constexpr std::size_t kLatencySpan = 1000;

/// Latency quantile `q` of every run of `span` consecutive open-loop
/// samples (schedule order, stepping span/10), and the lowest of those:
/// the quantile over the quietest stretch.  A failed request counts as
/// slower than any successful one.
double quietest_stretch_latency(const std::vector<Sample>& open, double q, std::size_t span);

/// OK responses per second within each of `windows` equal time slices
/// of a phase lasting `elapsed_s` (by completion time).
std::vector<double> throughput_windows(const std::vector<Sample>& samples, double elapsed_s,
                                       std::size_t windows);

/// Fill the response fields of `s` from a /run reply; false when the
/// reply is not a well-formed success for the request that was sent.
bool parse_run_response(int status, const std::string& body, const MixEntry& sent, Sample& s);

/// Per-layer serving metrics from the response fields of a set of
/// requests (successful ones; `rejected` counts the rest).
struct ServeBreakdown {
  double http_us = 0.0;         ///< median of rtt - total_us
  double queue_us = 0.0;        ///< median queue_us
  double queue_p99_us = 0.0;
  double run_us = 0.0;          ///< median run_us
  double unaccounted_us = 0.0;  ///< median of total - queue - run
  double batch_mean = 0.0;
  double compatible_share = 0.0;  ///< share served in a batch > 1
  double rejected = 0.0;          ///< non-200 or transport-failed requests
};
ServeBreakdown extract_breakdown(const std::vector<Sample>& samples);

/// A keep-alive HTTP/1.1 client connection to 127.0.0.1.
class HttpConn {
 public:
  explicit HttpConn(int port);
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// POST `body` to /run and read the full reply.  Returns false on a
  /// transport failure (the reason lands in `error`).
  bool post_run(const std::string& body, int& status, std::string& reply, std::string& error);

 private:
  bool read_reply(int& status, std::string& reply, std::string& error);
  int fd_ = -1;
  std::string buf_;
};

/// A spawned `ookamid --port 0`; everything else at its defaults.
class Daemon {
 public:
  /// `extra_env` entries are added to the daemon's environment only.
  Daemon(const std::string& path, const std::vector<std::string>& extra_env);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// VmHWM of the daemon process so far, MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, wait for exit; returns N of "drained cleanly after N
  /// requests", or -1 when the line or a clean exit is missing.
  long long stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string output_;
};

/// Send the schedule over `connections` keep-alive connections, each
/// request at its scheduled time (or as soon as a connection is free);
/// one sample per arrival, in schedule order.
std::vector<Sample> run_open_loop(int port, const std::vector<Arrival>& schedule,
                                  const std::vector<MixEntry>& mix, unsigned connections);

struct ClosedLoopResult {
  std::vector<Sample> samples;
  double elapsed_s = 0.0;
};

/// `connections` clients, each sending its next request as soon as the
/// previous reply arrived, for `seconds`.
ClosedLoopResult run_closed_loop(int port, std::uint64_t seed, const std::vector<MixEntry>& mix,
                                 unsigned connections, double seconds);

/// Check every successful response's digest against the in-process
/// catalog run under the backend the response names.
void verify_digests(const std::vector<Sample>& samples, const std::vector<MixEntry>& mix,
                    ookami::ThreadPool& pool, Checks& checks);

}  // namespace perfbench
