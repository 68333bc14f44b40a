#pragma once
// ookamid's serving core: a long-running local HTTP daemon executing
// catalog kernels from the dispatch registry under admission control.
//
// Architecture (three thread roles, composed from existing substrate):
//
//   accept thread ──► connection threads ──► AdmissionQueue ──► executor
//                        (one per client,       (bounded,          (one,
//                         parse + respond)       backpressure)      batches
//                                                                   onto the
//                                                                   ThreadPool)
//
//   * The accept loop only accepts; a full queue is a typed 429 from
//     the connection thread, never a blocked accept().
//   * The executor pops batches of compatible requests (same kernel,
//     same backend constraint) and runs each batch as ONE blocked
//     parallel_for on the pool — the coalescing mechanism that keeps
//     p99 bounded under saturation (one fork/join amortized over the
//     batch, batch members spread across workers).
//   * Every request is instrumented in the flight ring, once per span:
//     "serve/queue" (admission -> dequeue) and "serve/kernel" (batch
//     execution), so GET /trace/<id> shows time-in-queue vs
//     time-in-kernel; the metrics registry keeps request/rejection
//     counters, a queue-depth gauge and per-kernel latency histograms
//     exposed live on GET /metrics.
//
// Endpoints:
//   POST /run           execute a kernel (protocol.hpp); the response
//                       carries the request's 16-hex trace id
//   GET  /metrics       Prometheus text exposition of the live registry
//                       (histogram buckets carry OpenMetrics exemplars
//                       pointing at trace ids)
//   GET  /kernels       servable kernel names + size caps (JSON)
//   GET  /healthz       uptime, build info, pool geometry, serve config
//   GET  /trace/<id>    span tree of one request (queue wait + kernel
//                       run) recovered from the flight-recorder ring;
//                       404 not_found once the ring has overwritten it
//   GET  /debug/flight  live flight-recorder dump (ookami-flight-1)
//   POST /config        {"batch": B} — the runtime coalescing limit
//
// Degradation trigger: when a request is refused because the admission
// queue is full, the server automatically takes a flight-recorder dump
// (reason "queue_depth", rate-limited to one per 5 s) — to a file when
// `flight_dump_path` is set, and always counted + marked in the ring.
// The refusal is in the ring before the dump, so every automatic dump
// holds the request that set it off.
//
// Shutdown: drain() (or SIGTERM in ookamid) stops accepting, fails new
// admissions with `draining`, finishes everything already queued,
// answers the waiting clients, then joins all threads.  Clients never
// observe a dropped in-flight request.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ookami/common/threadpool.hpp"
#include "ookami/metrics/registry.hpp"
#include "ookami/serve/catalog.hpp"
#include "ookami/serve/queue.hpp"

namespace ookami::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral; read back via Server::port()
  std::size_t queue_depth = 64;  ///< admission bound (OOKAMI_SERVE_QUEUE_DEPTH)
  std::size_t max_batch = 16;    ///< coalescing limit (OOKAMI_SERVE_BATCH)
  unsigned threads = 0;          ///< pool size, 0 = hardware concurrency
  std::string flight_dump_path;  ///< auto-dump file (OOKAMI_SERVE_FLIGHT_DUMP)

  /// Defaults overlaid with OOKAMI_SERVE_PORT / OOKAMI_SERVE_QUEUE_DEPTH /
  /// OOKAMI_SERVE_BATCH / OOKAMI_SERVE_THREADS / OOKAMI_SERVE_FLIGHT_DUMP.
  static ServerOptions from_env();
};

class Server {
 public:
  explicit Server(ServerOptions opts = ServerOptions{});
  ~Server();  ///< drains if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the accept + executor threads; throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// Stop accepting, finish the queue, answer in-flight clients, join
  /// every thread.  Idempotent.
  void drain();

  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

  [[nodiscard]] metrics::Registry& registry() { return registry_; }
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Current coalescing limit (mutable at runtime via POST /config).
  [[nodiscard]] std::size_t max_batch() const {
    return max_batch_.load(std::memory_order_relaxed);
  }

  /// Take a flight-recorder dump now: serialize the ring + metrics
  /// snapshot, bump serve/flight_dumps_total, and (when
  /// flight_dump_path is set) write the file.  Returns the JSON.
  /// `reason` must be a string literal (it is marked into the ring).
  std::string dump_flight(const char* reason);

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  void connection_loop(Connection* conn);
  void executor_loop();
  void handle_request(int fd, const struct HttpRequest& req);
  void handle_run(int fd, const std::string& body);
  void handle_healthz(int fd);
  void handle_trace(int fd, const std::string& target);
  void handle_config(int fd, const std::string& body);
  void process_batch(const std::vector<std::shared_ptr<Pending>>& batch);
  void reap_connections(bool join_all);
  [[nodiscard]] std::uint64_t new_trace_id();
  /// The automatic "queue_depth" dump, rate-limited to one per 5 s.
  void maybe_dump_flight();

  ServerOptions opts_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  ThreadPool pool_;
  AdmissionQueue queue_;
  Catalog const* catalog_;
  metrics::Registry registry_;

  std::atomic<std::size_t> max_batch_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> last_dump_ns_{0};
  std::uint64_t start_ns_ = 0;

  std::thread accept_thread_;
  std::thread executor_thread_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

/// Install SIGTERM/SIGINT handlers that set a process-wide stop flag
/// (async-signal-safe: the handler only stores an atomic).  ookamid's
/// main loop polls stop_requested() and then drains; tests raise(3) the
/// signal and assert the same path.
void install_stop_signal_handlers();
[[nodiscard]] bool stop_requested();
void reset_stop_flag();  ///< tests only

/// Same pattern for SIGQUIT: the handler only sets a flag; ookamid's
/// main loop polls dump_requested() and takes a flight-recorder dump
/// without shutting down (kill -QUIT = "show me what you're doing").
void install_dump_signal_handler();
[[nodiscard]] bool dump_requested();
void reset_dump_flag();

}  // namespace ookami::serve
