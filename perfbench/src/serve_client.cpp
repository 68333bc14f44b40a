#include "serve_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "ookami/common/json.hpp"
#include "ookami/serve/catalog.hpp"
#include "ookami/serve/protocol.hpp"
#include "ookami/simd/backend.hpp"
#include "stats.hpp"

extern char** environ;

namespace perfbench {

std::vector<MixEntry> serve_mix(const std::string& workload) {
  // 60% exp, 5% each of log/sin/tanh/sqrt, 10% dgemm, 10% spmv.
  std::size_t elem = 4096, dgemm_n = 128, spmv_n = 16384;
  if (workload == "large") {
    elem = std::size_t{1} << 15;
    dgemm_n = 192;
    spmv_n = std::size_t{1} << 15;
  } else if (workload != "small") {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return {
      {"vecmath.exp", elem, 0.60},  {"vecmath.log", elem, 0.05},
      {"vecmath.sin", elem, 0.05},  {"vecmath.tanh", elem, 0.05},
      {"vecmath.sqrt", elem, 0.05}, {"hpcc.dgemm", dgemm_n, 0.10},
      {"npb.cg.spmv", spmv_n, 0.10},
  };
}

double open_loop_rate(const std::string& workload) {
  return workload == "large" ? 300.0 : 700.0;
}

namespace {

/// Draw the next request of the mix from `rng`.
std::pair<std::uint32_t, std::uint64_t> draw_request(SeedStream& rng, std::uint64_t base_seed,
                                                     const std::vector<MixEntry>& mix) {
  double u = rng.uniform();
  std::uint32_t k = 0;
  while (k + 1 < mix.size() && u >= mix[k].weight) {
    u -= mix[k].weight;
    ++k;
  }
  const std::uint64_t slot = rng.next() % kSeedPool;
  SeedStream derive(base_seed * 0x9e3779b97f4a7c15ull + (std::uint64_t{k} << 32) + slot);
  // Below 2^31 so the seed survives the protocol's JSON number exactly.
  return {k, 1 + derive.next() % 0x7fffffffull};
}

double now_us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

}  // namespace

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate, std::size_t count,
                                   const std::vector<MixEntry>& mix) {
  SeedStream rng(seed);
  std::vector<Arrival> out;
  out.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.uniform()) / rate;
    const auto [k, s] = draw_request(rng, seed, mix);
    out.push_back({t, k, s});
  }
  return out;
}

std::string run_body(const MixEntry& entry, std::uint64_t seed) {
  return "{\"kernel\":\"" + entry.kernel + "\",\"n\":" + std::to_string(entry.n) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

bool parse_run_response(int status, const std::string& body, const MixEntry& sent, Sample& s) {
  s.ok = false;
  ookami::json::Value doc;
  try {
    doc = ookami::json::Value::parse(body);
  } catch (const std::exception&) {
    s.error = "unparseable reply";
    return false;
  }
  if (!doc.is_object()) {
    s.error = "reply is not an object";
    return false;
  }
  if (status != 200 || doc.string_or("status", "") != "ok") {
    s.error = doc.string_or("error", "http_" + std::to_string(status));
    return false;
  }
  s.backend = doc.string_or("backend", "");
  s.digest = doc.string_or("digest", "");
  s.batch = doc.number_or("batch", 0.0);
  s.queue_us = doc.number_or("queue_us", -1.0);
  s.run_us = doc.number_or("run_us", -1.0);
  s.total_us = doc.number_or("total_us", -1.0);
  const bool echoes = doc.string_or("kernel", "") == sent.kernel &&
                      doc.number_or("n", -1.0) == static_cast<double>(sent.n) &&
                      doc.number_or("seed", -1.0) == static_cast<double>(s.seed);
  if (!echoes || s.digest.empty() || s.backend.empty() || s.batch < 1.0 || s.queue_us < 0.0 ||
      s.run_us < 0.0 || s.total_us < 0.0) {
    s.error = "malformed success reply";
    return false;
  }
  s.ok = true;
  return true;
}

ServeBreakdown extract_breakdown(const std::vector<Sample>& samples) {
  ServeBreakdown b;
  std::vector<double> http, queue, run, unaccounted, batch;
  std::size_t shared = 0;
  for (const Sample& s : samples) {
    if (!s.ok) {
      b.rejected += 1.0;
      continue;
    }
    http.push_back(s.rtt_us - s.total_us);
    queue.push_back(s.queue_us);
    run.push_back(s.run_us);
    unaccounted.push_back(s.total_us - s.queue_us - s.run_us);
    batch.push_back(s.batch);
    if (s.batch > 1.0) ++shared;
  }
  b.http_us = median(http);
  b.queue_us = median(queue);
  b.queue_p99_us = quantile(queue, 0.99);
  b.run_us = median(run);
  b.unaccounted_us = median(unaccounted);
  b.batch_mean = mean(batch);
  b.compatible_share =
      batch.empty() ? 0.0 : static_cast<double>(shared) / static_cast<double>(batch.size());
  return b;
}

double quietest_stretch_latency(const std::vector<Sample>& open, double q, std::size_t span) {
  std::vector<double> latency;
  for (const Sample& s : open) {
    latency.push_back(s.ok ? s.latency_ms : std::numeric_limits<double>::infinity());
  }
  span = std::min(span, latency.size());
  const std::size_t stride = std::max<std::size_t>(1, span / 10);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t lo = 0; lo + span <= latency.size(); lo += stride) {
    const auto first = latency.begin() + static_cast<std::ptrdiff_t>(lo);
    best = std::min(best, quantile({first, first + static_cast<std::ptrdiff_t>(span)}, q));
  }
  return best;
}

std::vector<double> throughput_windows(const std::vector<Sample>& samples, double elapsed_s,
                                       std::size_t windows) {
  std::vector<double> ok(windows, 0.0);
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    const auto w = static_cast<std::size_t>(s.done_s / elapsed_s * static_cast<double>(windows));
    ok[std::min(w, windows - 1)] += 1.0;
  }
  for (double& x : ok) x /= elapsed_s / static_cast<double>(windows);
  return ok;
}

// --- HTTP client ---------------------------------------------------------

HttpConn::HttpConn(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to ookamid failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A daemon that stops answering fails the request instead of hanging the run.
  const timeval limit{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
}

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConn::post_run(const std::string& body, int& status, std::string& reply,
                        std::string& error) {
  const std::string msg =
      "POST /run HTTP/1.1\r\nHost: ookamid\r\nContent-Type: application/json\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t w = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      error = "send failed";
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return read_reply(status, reply, error);
}

bool HttpConn::read_reply(int& status, std::string& reply, std::string& error) {
  char chunk[16384];
  auto fill = [&]() {
    const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
    if (r <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(r));
    return true;
  };
  std::size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      error = "connection closed before reply";
      return false;
    }
  }
  const std::string head = buf_.substr(0, head_end);
  if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) {
    error = "malformed status line";
    return false;
  }
  status = std::atoi(head.c_str() + 9);
  std::size_t length = 0;
  std::string lower = head;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const std::size_t cl = lower.find("\r\ncontent-length:");
  if (cl == std::string::npos) {
    error = "reply without content-length";
    return false;
  }
  length = std::strtoull(head.c_str() + cl + 17, nullptr, 10);
  const std::size_t total = head_end + 4 + length;
  while (buf_.size() < total) {
    if (!fill()) {
      error = "connection closed mid-body";
      return false;
    }
  }
  reply.assign(buf_, head_end + 4, length);
  buf_.erase(0, total);
  return true;
}

// --- Daemon --------------------------------------------------------------

Daemon::Daemon(const std::string& path, const std::vector<std::string>& extra_env) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) env_store.emplace_back(*e);
  for (const auto& e : extra_env) env_store.push_back(e);
  std::vector<char*> envp;
  for (auto& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::string port_arg = "0";
  std::vector<char*> argv = {const_cast<char*>(path.c_str()), const_cast<char*>("--port"),
                             port_arg.data(), nullptr};
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Never outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execve(path.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  // Wait (bounded) for "ookamid: listening on HOST:PORT".
  const auto t0 = Clock::now();
  while (port_ == 0) {
    pollfd p{out_fd_, POLLIN, 0};
    const double left_ms = 30000.0 - seconds_since(t0) * 1e3;
    if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) break;
    char chunk[4096];
    const ssize_t r = ::read(out_fd_, chunk, sizeof chunk);
    if (r <= 0) break;
    output_.append(chunk, static_cast<std::size_t>(r));
    const std::size_t at = output_.find("listening on ");
    const std::size_t eol = at == std::string::npos ? at : output_.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = output_.rfind(':', output_.find(' ', at + 13));
      port_ = std::atoi(output_.c_str() + colon + 1);
    }
  }
  if (port_ == 0) {
    stop();
    throw std::runtime_error("ookamid did not report a listening port");
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) stop();
}

double Daemon::peak_rss_mb() const { return perfbench::peak_rss_mb(std::to_string(pid_)); }

long long Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  // Read its output to EOF; a drain that takes over 30 s is a hang.
  const auto t0 = Clock::now();
  while (true) {
    pollfd p{out_fd_, POLLIN, 0};
    const double left_ms = 30000.0 - seconds_since(t0) * 1e3;
    if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      ::kill(pid_, SIGKILL);
      break;
    }
    char chunk[4096];
    const ssize_t r = ::read(out_fd_, chunk, sizeof chunk);
    if (r <= 0) break;
    output_.append(chunk, static_cast<std::size_t>(r));
  }
  ::close(out_fd_);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  const std::string key = "drained cleanly after ";
  const std::size_t at = output_.find(key);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || at == std::string::npos) return -1;
  return std::atoll(output_.c_str() + at + key.size());
}

// --- Load phases ---------------------------------------------------------

namespace {

/// One request on `conn`; fills the client-side fields of `s`.
void send_one(HttpConn& conn, const MixEntry& entry, Sample& s) {
  int status = 0;
  std::string reply, error;
  const auto t0 = Clock::now();
  const bool sent = conn.post_run(run_body(entry, s.seed), status, reply, error);
  s.rtt_us = now_us_since(t0);
  if (!sent) {
    s.ok = false;
    s.error = error;
    return;
  }
  parse_run_response(status, reply, entry, s);
}

}  // namespace

std::vector<Sample> run_open_loop(int port, const std::vector<Arrival>& schedule,
                                  const std::vector<MixEntry>& mix, unsigned connections) {
  std::vector<Sample> out(schedule.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      std::unique_ptr<HttpConn> conn;
      try {
        conn = std::make_unique<HttpConn>(port);
      } catch (const std::exception&) {
      }
      for (std::size_t i = next++; i < schedule.size(); i = next++) {
        const Arrival& a = schedule[i];
        Sample& s = out[i];
        s.kernel = a.kernel;
        s.seed = a.seed;
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(a.t_s));
        std::this_thread::sleep_until(due);
        const auto sent_at = Clock::now();
        if (conn) {
          send_one(*conn, mix[a.kernel], s);
        } else {
          s.error = "connect failed";
        }
        const auto done = Clock::now();
        s.late_ms = std::chrono::duration<double, std::milli>(sent_at - due).count();
        s.latency_ms = std::chrono::duration<double, std::milli>(done - due).count();
        s.done_s = std::chrono::duration<double>(done - start).count();
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

ClosedLoopResult run_closed_loop(int port, std::uint64_t seed, const std::vector<MixEntry>& mix,
                                 unsigned connections, double seconds) {
  ClosedLoopResult out;
  std::vector<std::vector<Sample>> per(connections);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      SeedStream rng(seed + 0x51ed27ull * (c + 1));
      std::unique_ptr<HttpConn> conn;
      try {
        conn = std::make_unique<HttpConn>(port);
      } catch (const std::exception&) {
      }
      while (seconds_since(start) < seconds) {
        const auto [k, s_seed] = draw_request(rng, seed, mix);
        Sample s;
        s.kernel = k;
        s.seed = s_seed;
        if (conn) {
          send_one(*conn, mix[k], s);
        } else {
          s.error = "connect failed";
        }
        s.done_s = seconds_since(start);
        per[c].push_back(std::move(s));
        if (!conn) break;
      }
    });
  }
  for (auto& t : threads) t.join();
  out.elapsed_s = seconds_since(start);
  for (auto& v : per) {
    for (auto& s : v) out.samples.push_back(std::move(s));
  }
  return out;
}

void verify_digests(const std::vector<Sample>& samples, const std::vector<MixEntry>& mix,
                    ookami::ThreadPool& pool, Checks& checks) {
  using Key = std::tuple<std::uint32_t, std::string, std::uint64_t>;  // kernel, backend, seed
  std::map<Key, std::string> expected;
  for (const Sample& s : samples) {
    if (s.ok) expected.emplace(Key{s.kernel, s.backend, s.seed}, "");
  }
  // One catalog batch per (kernel, backend): the catalog runs the items
  // across the pool exactly as the daemon's executor does.
  std::map<std::pair<std::uint32_t, std::string>, std::vector<ookami::serve::BatchItem>> batches;
  for (const auto& [key, digest] : expected) {
    const auto& [k, backend, seed] = key;
    batches[{k, backend}].push_back({mix[k].n, seed, 0});
  }
  for (auto& [kb, items] : batches) {
    std::fprintf(stderr, "  served %s under %s\n", mix[kb.first].kernel.c_str(), kb.second.c_str());
    ookami::simd::Backend b;
    if (!ookami::simd::parse_backend(kb.second, b)) {
      checks.record(false, "response names unknown backend '" + kb.second + "'");
      continue;
    }
    const ookami::serve::ServableKernel* servable =
        ookami::serve::Catalog::global().find(mix[kb.first].kernel);
    if (servable == nullptr) {
      checks.record(false, mix[kb.first].kernel + " missing from the in-process catalog");
      continue;
    }
    ookami::simd::ScopedBackend scoped(b);
    servable->run(items, pool);
    for (const auto& item : items) {
      expected[Key{kb.first, kb.second, item.seed}] = ookami::serve::digest_hex(item.digest);
    }
  }
  for (const Sample& s : samples) {
    if (!s.ok) {
      checks.record(false, mix[s.kernel].kernel + " request failed: " + s.error);
      continue;
    }
    const std::string& want = expected[Key{s.kernel, s.backend, s.seed}];
    checks.record(want == s.digest, mix[s.kernel].kernel + " seed " + std::to_string(s.seed) +
                                        " digest " + s.digest + " != in-process " + want +
                                        " under " + s.backend);
  }
}

}  // namespace perfbench
