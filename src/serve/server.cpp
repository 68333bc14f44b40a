#include "ookami/serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ookami/common/json.hpp"
#include "ookami/dispatch/registry.hpp"
#include "ookami/serve/flight.hpp"
#include "ookami/serve/http.hpp"
#include "ookami/serve/protocol.hpp"
#include "ookami/simd/backend.hpp"
#include "ookami/trace/flight.hpp"
#include "ookami/trace/trace.hpp"

namespace ookami::serve {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

/// splitmix64 finalizer: turns the sequential request counter into
/// well-spread 64-bit trace ids (distinct inputs -> distinct outputs,
/// so ids never collide within a server's lifetime).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string trace_hex(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

/// Parse exactly 1..16 hex digits; 0 on malformed input (0 is never a
/// valid trace id, so the sentinel is unambiguous).
std::uint64_t parse_trace_hex(const std::string& s) {
  if (s.empty() || s.size() > 16) return 0;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return 0;
  }
  return v;
}

// Metric-name constants.  Latency histograms are per kernel and built
// on demand ("serve/latency/<kernel>"); prometheus_name() sanitizes the
// dots and slashes for the exposition format.
constexpr const char* kQueueWaitHist = "serve/queue_wait";
constexpr const char* kBatchSizeHist = "serve/batch_size";

metrics::HistogramOptions batch_size_buckets() {
  metrics::HistogramOptions opts;
  opts.min_value = 1.0;  // batch of 1 = underflow bucket, growth 2 upward
  opts.growth = 2.0;
  opts.max_buckets = 12;
  return opts;
}

}  // namespace

ServerOptions ServerOptions::from_env() {
  ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(env_size("OOKAMI_SERVE_PORT", 34127));
  opts.queue_depth = env_size("OOKAMI_SERVE_QUEUE_DEPTH", opts.queue_depth);
  opts.max_batch = env_size("OOKAMI_SERVE_BATCH", opts.max_batch);
  opts.threads = static_cast<unsigned>(env_size("OOKAMI_SERVE_THREADS", 0));
  if (const char* v = std::getenv("OOKAMI_SERVE_FLIGHT_DUMP"); v != nullptr && *v != '\0') {
    opts.flight_dump_path = v;
  }
  return opts;
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.threads),
      queue_(opts_.queue_depth),
      catalog_(&Catalog::global()),
      max_batch_(opts_.max_batch == 0 ? 1 : opts_.max_batch) {}

Server::~Server() { drain(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: bad IPv4 host '" + opts_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + opts_.host + ":" +
                             std::to_string(opts_.port) + " (" + reason + ")");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  start_ns_ = trace::now_ns();
  running_.store(true, std::memory_order_release);
  executor_thread_ = std::thread(&Server::executor_loop, this);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::drain() {
  if (!running_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // A concurrent drain is in progress; wait for it by joining on the
    // running_ flag flip (cheap spin — drain is a shutdown-path rarity).
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  // 1. No new admissions: pushes fail from here on (typed `draining`).
  queue_.close();
  // 2. Stop accepting; shutdown() unblocks the accept(2) call.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // 3. The executor finishes everything already admitted, then exits —
  //    every in-flight client's promise is fulfilled before this join.
  if (executor_thread_.joinable()) executor_thread_.join();
  // 4. Kick idle keep-alive connections out of recv() and join them;
  //    SHUT_RD leaves in-progress response writes intact.
  {
    std::lock_guard lk(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  reap_connections(/*join_all=*/true);
  registry_.gauge("serve/queue_depth").set(0.0);
  running_.store(false, std::memory_order_release);
}

void Server::reap_connections(bool join_all) {
  std::vector<std::unique_ptr<Connection>> done;
  {
    std::lock_guard lk(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (join_all || (*it)->finished.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : done) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down: drain in progress
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard lk(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(&Server::connection_loop, this, raw);
    reap_connections(/*join_all=*/false);
  }
}

void Server::connection_loop(Connection* conn) {
  SocketReader reader(conn->fd);
  while (true) {
    HttpRequest req;
    const ReadStatus st = reader.read_request(req);
    if (st == ReadStatus::kClosed) break;
    if (st == ReadStatus::kMalformed) {
      write_http_response(conn->fd, 400,
                          error_body(ErrorCode::kBadRequest, "malformed HTTP request"));
      break;
    }
    handle_request(conn->fd, req);
  }
  // Clear the fd under the lock so drain()'s SHUT_RD sweep either sees
  // the socket still open (and shuts it down before we close) or sees
  // -1 and skips — it can never touch a closed-and-reused fd number.
  int fd = -1;
  {
    std::lock_guard lk(conns_mu_);
    std::swap(fd, conn->fd);
  }
  if (fd >= 0) ::close(fd);
  conn->finished.store(true, std::memory_order_release);
}

void Server::handle_request(int fd, const HttpRequest& req) {
  if (req.method == "POST" && req.target == "/run") {
    handle_run(fd, req.body);
    return;
  }
  if (req.method == "GET" && req.target == "/metrics") {
    write_http_response(fd, 200, registry_.to_prometheus("ookami"),
                        "text/plain; version=0.0.4");
    return;
  }
  if (req.method == "GET" && req.target == "/kernels") {
    json::Value arr = json::Value::array();
    for (const auto& k : catalog_->kernels()) {
      json::Value entry = json::Value::object();
      entry.set("kernel", k.name);
      entry.set("max_n", static_cast<unsigned long long>(k.max_n));
      // Static resolution (the widest variant the CPU supports, capped
      // by OOKAMI_SIMD_BACKEND): what a request with no backend
      // constraint runs.
      entry.set("backend", simd::backend_name(dispatch::resolved_backend(k.name)));
      arr.push_back(std::move(entry));
    }
    write_http_response(fd, 200, arr.dump(0));
    return;
  }
  if (req.method == "GET" && req.target == "/healthz") {
    handle_healthz(fd);
    return;
  }
  if (req.method == "GET" && req.target.rfind("/trace/", 0) == 0) {
    handle_trace(fd, req.target);
    return;
  }
  if (req.method == "GET" && req.target == "/debug/flight") {
    write_http_response(fd, 200, dump_flight("endpoint"), "application/json");
    return;
  }
  if (req.method == "POST" && req.target == "/config") {
    handle_config(fd, req.body);
    return;
  }
  write_http_response(fd, 404,
                      error_body(ErrorCode::kBadRequest, "no such endpoint: " + req.target));
}

void Server::handle_healthz(int fd) {
  json::Value doc = json::Value::object();
  doc.set("status", "ok");
  doc.set("uptime_s", static_cast<double>(trace::now_ns() - start_ns_) * 1e-9);
  doc.set("requests", static_cast<unsigned long long>(served_.load(std::memory_order_relaxed)));

  json::Value build = json::Value::object();
  build.set("compiler", __VERSION__);
  build.set("cxx_standard", static_cast<long long>(__cplusplus));
  doc.set("build", std::move(build));

  // Resolved backend per servable kernel (static resolution; see the
  // /kernels handler for why this stays unsized).
  json::Value kernels = json::Value::object();
  for (const auto& k : catalog_->kernels()) {
    kernels.set(k.name, simd::backend_name(dispatch::resolved_backend(k.name)));
  }
  doc.set("kernels", std::move(kernels));

  json::Value pool = json::Value::object();
  pool.set("threads", static_cast<unsigned long long>(pool_.size()));
  doc.set("pool", std::move(pool));

  json::Value serve = json::Value::object();
  serve.set("queue_capacity", static_cast<unsigned long long>(queue_.capacity()));
  serve.set("queue_depth", static_cast<unsigned long long>(queue_.depth()));
  serve.set("batch", static_cast<unsigned long long>(max_batch_.load(std::memory_order_relaxed)));
  serve.set("draining", draining_.load(std::memory_order_acquire));
  const trace::FlightRecorder& fr = trace::FlightRecorder::global();
  serve.set("flight_capacity", static_cast<unsigned long long>(fr.capacity()));
  serve.set("flight_enabled", fr.enabled());
  doc.set("serve", std::move(serve));

  write_http_response(fd, 200, doc.dump(0), "application/json");
}

void Server::handle_trace(int fd, const std::string& target) {
  const std::uint64_t id = parse_trace_hex(target.substr(7));
  if (id == 0) {
    write_http_response(fd, 400,
                        error_body(ErrorCode::kBadRequest, "trace id must be 1-16 hex digits"));
    return;
  }
  std::vector<trace::FlightEvent> mine;
  for (const trace::FlightEvent& e : trace::FlightRecorder::global().snapshot()) {
    if (e.req == id) mine.push_back(e);
  }
  if (mine.empty()) {
    write_http_response(fd, http_status(ErrorCode::kNotFound),
                        error_body(ErrorCode::kNotFound,
                                   "trace " + trace_hex(id) +
                                       " not in the flight ring (expired or never existed)"));
    return;
  }
  std::sort(mine.begin(), mine.end(),
            [](const trace::FlightEvent& a, const trace::FlightEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.end_ns < b.end_ns;
            });
  const std::uint64_t t0 = mine.front().start_ns;
  json::Value doc = json::Value::object();
  doc.set("schema", "ookami-trace-request-1");
  doc.set("trace", trace_hex(id));
  json::Value spans = json::Value::array();
  for (const trace::FlightEvent& e : mine) {
    json::Value span = json::Value::object();
    span.set("kind", trace::flight_kind_name(e.kind));
    span.set("name", e.name != nullptr ? e.name : "?");
    // Offsets from the request's first event: small, human-readable
    // numbers that reconstruct the tree without absolute clocks.
    span.set("offset_us", static_cast<double>(e.start_ns - t0) * 1e-3);
    span.set("dur_us", static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
    if (e.value != 0.0) span.set("value", e.value);
    spans.push_back(std::move(span));
  }
  doc.set("spans", std::move(spans));
  write_http_response(fd, 200, doc.dump(0), "application/json");
}

void Server::handle_config(int fd, const std::string& body) {
  json::Value doc;
  try {
    doc = json::Value::parse(body);
  } catch (const json::ParseError&) {
    write_http_response(fd, 400, error_body(ErrorCode::kBadRequest, "malformed JSON"));
    return;
  }
  const json::Value* batch = doc.is_object() ? doc.find("batch") : nullptr;
  if (batch == nullptr || !batch->is_number() || !(batch->as_number() >= 1.0)) {
    write_http_response(fd, 400,
                        error_body(ErrorCode::kBadRequest, "'batch' must be >= 1"));
    return;
  }
  const auto value = static_cast<std::size_t>(batch->as_number());
  max_batch_.store(value, std::memory_order_relaxed);
  json::Value ok = json::Value::object();
  ok.set("status", "ok");
  ok.set("batch", static_cast<unsigned long long>(value));
  write_http_response(fd, 200, ok.dump(0));
}

void Server::handle_run(int fd, const std::string& body) {
  registry_.counter("serve/requests_total").add();
  Request req;
  std::string reason;
  ErrorCode code = parse_request(body, req, reason);
  if (code != ErrorCode::kNone) {
    registry_.counter("serve/errors_bad_request").add();
    write_http_response(fd, http_status(code), error_body(code, reason));
    return;
  }
  const ServableKernel* servable = catalog_->find(req.kernel);
  if (servable == nullptr) {
    registry_.counter("serve/errors_unknown_kernel").add();
    write_http_response(fd, http_status(ErrorCode::kUnknownKernel),
                        error_body(ErrorCode::kUnknownKernel,
                                   "kernel '" + req.kernel + "' is not servable"));
    return;
  }
  if (req.n > servable->max_n) {
    registry_.counter("serve/errors_bad_request").add();
    write_http_response(fd, http_status(ErrorCode::kBadRequest),
                        error_body(ErrorCode::kBadRequest,
                                   "n exceeds " + req.kernel + " cap of " +
                                       std::to_string(servable->max_n)));
    return;
  }

  auto pending = std::make_shared<Pending>();
  pending->servable = servable;
  pending->n = req.n;
  pending->seed = req.seed;
  pending->backend_constraint = req.has_backend ? static_cast<int>(req.backend) : -1;
  pending->enq_ns = trace::now_ns();
  pending->trace_id = new_trace_id();
  std::future<void> done = pending->done.get_future();
  trace::FlightRecorder& flight = trace::FlightRecorder::global();

  if (!queue_.try_push(pending)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    const ErrorCode reject = draining ? ErrorCode::kDraining : ErrorCode::kOverloaded;
    registry_.counter(draining ? "serve/rejected_draining" : "serve/rejected_overloaded").add();
    flight.record(trace::FlightKind::kRequest, "serve/rejected", pending->trace_id,
                  pending->enq_ns, trace::now_ns(), static_cast<double>(queue_.depth()));
    if (!draining) maybe_dump_flight();
    write_http_response(fd, http_status(reject),
                        error_body(reject, draining ? "daemon is draining"
                                                    : "admission queue is full"));
    return;
  }
  const std::size_t depth = queue_.depth();
  registry_.gauge("serve/queue_depth").set(static_cast<double>(depth));
  flight.record(trace::FlightKind::kRequest, "serve/admitted", pending->trace_id,
                pending->enq_ns, pending->enq_ns, static_cast<double>(depth));

  done.wait();

  if (pending->failed) {
    registry_.counter("serve/errors_internal").add();
    write_http_response(fd, http_status(ErrorCode::kInternal),
                        error_body(ErrorCode::kInternal, pending->fail_reason));
    return;
  }
  Response resp;
  resp.kernel = req.kernel;
  resp.n = req.n;
  resp.seed = req.seed;
  resp.backend = pending->backend_used;
  resp.digest = digest_hex(pending->digest);
  resp.trace = trace_hex(pending->trace_id);
  resp.batch = pending->batch;
  resp.queue_us = pending->queue_s * 1e6;
  resp.run_us = pending->run_s * 1e6;
  resp.total_us = static_cast<double>(trace::now_ns() - pending->enq_ns) * 1e-3;
  registry_.counter("serve/responses_ok").add();
  served_.fetch_add(1, std::memory_order_relaxed);
  write_http_response(fd, 200, ok_body(resp));
}

std::uint64_t Server::new_trace_id() {
  // mix64 is a bijection, so distinct counters give distinct nonzero-ish
  // ids; skip the single counter value that maps to 0.
  std::uint64_t id = 0;
  while (id == 0) id = mix64(next_trace_.fetch_add(1, std::memory_order_relaxed));
  return id;
}

std::string Server::dump_flight(const char* reason) {
  registry_.counter("serve/flight_dumps_total").add();
  const std::uint64_t now = trace::now_ns();
  trace::FlightRecorder::global().record(trace::FlightKind::kMark, reason, 0, now, now);
  const std::string body = flight_json(trace::FlightRecorder::global(), &registry_, reason);
  if (!opts_.flight_dump_path.empty()) write_flight_dump(opts_.flight_dump_path, body);
  return body;
}

void Server::maybe_dump_flight() {
  // One automatic dump per 5 s: a sustained overload must not turn the
  // recorder into a disk-write loop on the request path.
  constexpr std::uint64_t kCooldownNs = 5'000'000'000ull;
  // now_ns() counts from process start, so 0 reliably means "never
  // dumped" — without that case a trigger in the first 5 s of life
  // (exactly when an undersized queue first overflows) would be
  // swallowed.
  const std::uint64_t now = std::max<std::uint64_t>(trace::now_ns(), 1);
  std::uint64_t last = last_dump_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < kCooldownNs) return;
  if (!last_dump_ns_.compare_exchange_strong(last, now, std::memory_order_relaxed)) return;
  dump_flight("queue_depth");
}

void Server::executor_loop() {
  while (true) {
    const std::vector<std::shared_ptr<Pending>> batch =
        queue_.pop_batch(max_batch_.load(std::memory_order_relaxed));
    if (batch.empty()) break;  // queue closed and drained
    registry_.gauge("serve/queue_depth").set(static_cast<double>(queue_.depth()));
    process_batch(batch);
  }
}

void Server::process_batch(const std::vector<std::shared_ptr<Pending>>& batch) {
  const ServableKernel* servable = batch.front()->servable;
  const std::uint64_t deq_ns = trace::now_ns();
  trace::FlightRecorder& flight = trace::FlightRecorder::global();
  metrics::Histogram& queue_wait = registry_.histogram(kQueueWaitHist);
  for (const auto& p : batch) {
    p->queue_s = static_cast<double>(deq_ns - p->enq_ns) * 1e-9;
    flight.record(trace::FlightKind::kSpan, "serve/queue", p->trace_id, p->enq_ns, deq_ns);
    queue_wait.observe(p->queue_s, p->trace_id);
  }

  // Backend constraint: same semantics as OOKAMI_SIMD_BACKEND, scoped
  // to this batch (compatibility includes the constraint, so the whole
  // batch shares it).
  std::optional<simd::ScopedBackend> scoped;
  if (batch.front()->backend_constraint >= 0) {
    scoped.emplace(static_cast<simd::Backend>(batch.front()->backend_constraint));
  }
  std::vector<BatchItem> items(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    items[i].n = batch[i]->n;
    items[i].seed = batch[i]->seed;
  }
  // The variant the kernel's call site resolves to under the same
  // constraint: resolution does not depend on n.
  const std::string backend_used = simd::backend_name(dispatch::resolved_backend(servable->name));

  bool failed = false;
  std::string fail_reason;
  const std::uint64_t run_begin = trace::now_ns();
  try {
    servable->run(items, pool_);
  } catch (const std::exception& e) {
    failed = true;
    fail_reason = e.what();
  } catch (...) {
    failed = true;
    fail_reason = "unknown kernel failure";
  }
  const std::uint64_t run_end = trace::now_ns();
  const double run_s = static_cast<double>(run_end - run_begin) * 1e-9;

  registry_.counter("serve/batches_total").add();
  registry_.histogram(kBatchSizeHist, batch_size_buckets())
      .observe(static_cast<double>(batch.size()));
  metrics::Histogram& latency = registry_.histogram("serve/latency/" + servable->name);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = *batch[i];
    p.digest = items[i].digest;
    p.backend_used = backend_used;
    p.run_s = run_s;
    p.batch = batch.size();
    p.failed = failed;
    p.fail_reason = fail_reason;
    const double total_s = p.queue_s + p.run_s;
    flight.record(trace::FlightKind::kSpan, "serve/kernel", p.trace_id, run_begin, run_end,
                  static_cast<double>(batch.size()));
    flight.record(trace::FlightKind::kRequest, failed ? "serve/failed" : "serve/done",
                  p.trace_id, run_end, run_end, total_s);
    latency.observe(total_s, p.trace_id);
    p.done.set_value();
  }
}

// --- SIGTERM/SIGINT wiring ------------------------------------------------

namespace {
std::atomic<int> g_stop_signal{0};
std::atomic<int> g_dump_signal{0};
void on_stop_signal(int sig) { g_stop_signal.store(sig, std::memory_order_relaxed); }
void on_dump_signal(int sig) { g_dump_signal.store(sig, std::memory_order_relaxed); }
}  // namespace

void install_stop_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = &on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

bool stop_requested() { return g_stop_signal.load(std::memory_order_relaxed) != 0; }

void reset_stop_flag() { g_stop_signal.store(0, std::memory_order_relaxed); }

void install_dump_signal_handler() {
  struct sigaction sa{};
  sa.sa_handler = &on_dump_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGQUIT, &sa, nullptr);
}

bool dump_requested() { return g_dump_signal.load(std::memory_order_relaxed) != 0; }

void reset_dump_flag() { g_dump_signal.store(0, std::memory_order_relaxed); }

}  // namespace ookami::serve
