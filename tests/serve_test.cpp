// Tests for the src/serve subsystem: catalog digest determinism, the
// batching bit-identity invariant and the shared spmv operator, the
// digest's contract, admission-queue backpressure and coalescing order,
// the typed request/error protocol, and the full daemon over live
// sockets — burst rejection, drain-on-SIGTERM, the /metrics exposition,
// and a multi-client hammer (the TSan target).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ookami/common/json.hpp"
#include "ookami/common/threadpool.hpp"
#include "ookami/serve/catalog.hpp"
#include "ookami/serve/http.hpp"
#include "ookami/serve/protocol.hpp"
#include "ookami/serve/queue.hpp"
#include "ookami/serve/server.hpp"

namespace ookami::serve {
namespace {

// --------------------------------------------------------- catalog

TEST(Catalog, ListsServableKernelsWithCaps) {
  const Catalog& cat = Catalog::global();
  ASSERT_NE(cat.find("vecmath.exp"), nullptr);
  ASSERT_NE(cat.find("npb.cg.spmv"), nullptr);
  ASSERT_NE(cat.find("hpcc.dgemm"), nullptr);
  EXPECT_EQ(cat.find("no.such.kernel"), nullptr);
  for (const auto& k : cat.kernels()) {
    EXPECT_GT(k.max_n, 0u);
    EXPECT_NE(k.run, nullptr);
  }
}

TEST(Catalog, DigestIsDeterministicAndSeedSensitive) {
  ThreadPool pool(2);
  for (const ServableKernel& k : Catalog::global().kernels()) {
    const std::size_t n = k.name == "hpcc.dgemm" ? 64 : 4096;
    auto digest_of = [&](std::uint64_t seed) {
      std::vector<BatchItem> items(1);
      items[0].n = n;
      items[0].seed = seed;
      k.run(items, pool);
      return items[0].digest;
    };
    EXPECT_EQ(digest_of(7), digest_of(7)) << k.name;
    // npb.cg.spmv shares one operator per n: the seed still picks x.
    EXPECT_NE(digest_of(7), digest_of(8)) << k.name;
  }
}

TEST(Catalog, BatchedResultsBitIdenticalToSolo) {
  // The coalescing invariant: a request's digest must not depend on
  // what it was batched with.  Run 5 jobs solo, then as one batch, on a
  // pool whose chunking would split them across workers.
  ThreadPool pool(4);
  const struct {
    const char* kernel;
    std::size_t n;
  } cases[] = {{"vecmath.exp", 1024}, {"vecmath.sqrt", 513}, {"npb.cg.spmv", 1024},
               {"hpcc.dgemm", 64}};
  for (const auto& c : cases) {
    const ServableKernel* k = Catalog::global().find(c.kernel);
    ASSERT_NE(k, nullptr) << c.kernel;
    std::vector<std::uint64_t> solo;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      std::vector<BatchItem> one(1);
      one[0].n = c.n;
      one[0].seed = seed;
      k->run(one, pool);
      solo.push_back(one[0].digest);
    }
    std::vector<BatchItem> batch(5);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      batch[seed - 1].n = c.n;
      batch[seed - 1].seed = seed;
    }
    k->run(batch, pool);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].digest, solo[i]) << c.kernel << " item " << i;
    }
  }
}

std::uint64_t spmv_digest(std::size_t n, std::uint64_t seed, ThreadPool& pool) {
  std::vector<BatchItem> one{{n, seed, 0}};
  Catalog::global().find("npb.cg.spmv")->run(one, pool);
  return one[0].digest;
}

TEST(Catalog, SpmvBatchInterleavingSizesMatchesSolo) {
  // One batch alternates two sizes with the same seeds at both, so
  // each item must pick up the operator of its own n.
  ThreadPool pool(4);
  std::vector<BatchItem> batch;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    batch.push_back({1024, seed, 0});
    batch.push_back({2048, seed, 0});
  }
  Catalog::global().find("npb.cg.spmv")->run(batch, pool);
  for (const BatchItem& item : batch) {
    EXPECT_EQ(item.digest, spmv_digest(item.n, item.seed, pool))
        << "n " << item.n << " seed " << item.seed;
  }
}

TEST(Catalog, ConcurrentSpmvBatchesOverAlternatingSizesMatchSolo) {
  // Four submitters, each with its own pool, keep replacing the shared
  // operator while the others compute with it (the TSan target).
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> solo;
  {
    ThreadPool pool(2);
    for (const std::size_t n : {1024u, 2048u}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) solo[{n, seed}] = spmv_digest(n, seed, pool);
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      ThreadPool pool(2);
      for (int round = 0; round < 20; ++round) {
        std::vector<BatchItem> batch;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          batch.push_back({(round + t) % 2 == 0 ? 1024u : 2048u, seed, 0});
        }
        Catalog::global().find("npb.cg.spmv")->run(batch, pool);
        for (const BatchItem& item : batch) {
          if (item.digest != solo.at({item.n, item.seed})) ++mismatches;
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------- digest

/// Doubles built from integer bit patterns, so the input is exact and
/// independent of floating-point formatting.
std::vector<double> from_bits(const std::vector<std::uint64_t>& bits) {
  std::vector<double> out(bits.size());
  std::memcpy(out.data(), bits.data(), bits.size() * sizeof(double));
  return out;
}

/// 13 words: not a multiple of the lane count, so a partial last round
/// is covered.
std::vector<double> thirteen_words() {
  std::vector<std::uint64_t> bits(13);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (i + 1) * 0x0101010101010101ull;
  return from_bits(bits);
}

std::uint64_t digest_of(const std::vector<double>& v) { return digest_doubles(v.data(), v.size()); }

TEST(Digest, KnownAnswerPinsTheWireFormat) {
  // Any change to these values changes every digest ookamid reports.
  EXPECT_EQ(digest_of(thirteen_words()), 0x09e7f8142c03dce6ull);
  EXPECT_EQ(digest_of({}), 0x632142215a1d4939ull);
}

TEST(Digest, EverySingleBitFlipChangesTheDigest) {
  const std::vector<double> base = thirteen_words();
  const std::uint64_t want = digest_of(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> v = base;
      std::uint64_t w;
      std::memcpy(&w, &v[i], sizeof w);
      w ^= std::uint64_t{1} << bit;
      std::memcpy(&v[i], &w, sizeof w);
      EXPECT_NE(digest_of(v), want) << "word " << i << " bit " << bit;
    }
  }
}

TEST(Digest, OrderLengthSignAndNaNPayloadChangeTheDigest) {
  const std::vector<double> base = thirteen_words();
  const std::uint64_t want = digest_of(base);
  for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{0, 1}, {0, 4}, {3, 12}}) {
    std::vector<double> v = base;
    std::swap(v[i], v[j]);
    EXPECT_NE(digest_of(v), want) << "swap " << i << " and " << j;
  }
  std::vector<double> longer = base;
  longer.push_back(0.0);
  EXPECT_NE(digest_of(longer), want);
  EXPECT_NE(digest_of({0.0}), digest_of({-0.0}));
  EXPECT_NE(digest_of(from_bits({0x7ff8000000000001ull})), digest_of(from_bits({0x7ff8000000000002ull})));
}

// --------------------------------------------------- admission queue

std::shared_ptr<Pending> make_pending(const ServableKernel* k, int backend = -1) {
  auto p = std::make_shared<Pending>();
  p->servable = k;
  p->n = 16;
  p->backend_constraint = backend;
  return p;
}

TEST(AdmissionQueue, TryPushRejectsWhenFullWithoutBlocking) {
  const ServableKernel* k = Catalog::global().find("vecmath.exp");
  AdmissionQueue q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(make_pending(k)));
  EXPECT_TRUE(q.try_push(make_pending(k)));
  EXPECT_EQ(q.depth(), 2u);
  // Full: the reject is immediate — this call would deadlock the test
  // if it blocked, since nothing is popping.
  EXPECT_FALSE(q.try_push(make_pending(k)));
  EXPECT_EQ(q.depth(), 2u);
}

TEST(AdmissionQueue, PopBatchCoalescesCompatibleInQueueOrder) {
  const Catalog& cat = Catalog::global();
  const ServableKernel* ka = cat.find("vecmath.exp");
  const ServableKernel* kb = cat.find("vecmath.sin");
  AdmissionQueue q(8);
  auto a1 = make_pending(ka);
  auto b1 = make_pending(kb);
  auto a2 = make_pending(ka);
  auto a3 = make_pending(ka, /*backend=*/0);  // same kernel, pinned backend
  ASSERT_TRUE(q.try_push(a1));
  ASSERT_TRUE(q.try_push(b1));
  ASSERT_TRUE(q.try_push(a2));
  ASSERT_TRUE(q.try_push(a3));

  // Head is a1; a2 coalesces (same kernel, same no-constraint), b1 and
  // a3 do not.  Queue order within the batch is preserved.
  auto batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], a1);
  EXPECT_EQ(batch[1], a2);
  // Skipped-over requests keep FIFO order.
  batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], b1);
  batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], a3);
}

TEST(AdmissionQueue, PopBatchHonorsMax) {
  const ServableKernel* k = Catalog::global().find("vecmath.exp");
  AdmissionQueue q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(make_pending(k)));
  EXPECT_EQ(q.pop_batch(2).size(), 2u);
  EXPECT_EQ(q.pop_batch(2).size(), 2u);
  EXPECT_EQ(q.pop_batch(2).size(), 1u);
}

TEST(AdmissionQueue, CloseDrainsRemainingThenReturnsEmpty) {
  const ServableKernel* k = Catalog::global().find("vecmath.exp");
  AdmissionQueue q(4);
  ASSERT_TRUE(q.try_push(make_pending(k)));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(make_pending(k)));  // drain mode: no admissions
  EXPECT_EQ(q.pop_batch(4).size(), 1u);       // already-admitted work drains
  EXPECT_TRUE(q.pop_batch(4).empty());        // then the executor's exit signal
}

TEST(AdmissionQueue, PopBlocksUntilPushArrives) {
  const ServableKernel* k = Catalog::global().find("vecmath.exp");
  AdmissionQueue q(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto batch = q.pop_batch(4);
    got.store(batch.size() == 1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  ASSERT_TRUE(q.try_push(make_pending(k)));
  consumer.join();
  EXPECT_TRUE(got.load());
}

// --------------------------------------------------------- protocol

TEST(Protocol, ParseRequestReportsTypedErrors) {
  Request req;
  std::string err;
  EXPECT_EQ(parse_request("{not json", req, err), ErrorCode::kBadRequest);
  EXPECT_NE(err.find("malformed"), std::string::npos);
  EXPECT_EQ(parse_request("[1,2]", req, err), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_request("{\"n\": 16}", req, err), ErrorCode::kBadRequest);  // no kernel
  EXPECT_EQ(parse_request("{\"kernel\": \"x\"}", req, err), ErrorCode::kBadRequest);  // no n
  EXPECT_EQ(parse_request("{\"kernel\": \"x\", \"n\": 0}", req, err), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_request("{\"kernel\": \"x\", \"n\": 2.5}", req, err), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_request("{\"kernel\": \"x\", \"n\": 4, \"seed\": -1}", req, err),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_request("{\"kernel\": \"x\", \"n\": 4, \"backend\": \"neon\"}", req, err),
            ErrorCode::kBadRequest);
  // A removed backend is rejected with an error that lists the current ones.
  EXPECT_EQ(parse_request("{\"kernel\": \"x\", \"n\": 4, \"backend\": \"sse2\"}", req, err),
            ErrorCode::kBadRequest);
  EXPECT_NE(err.find("avx512"), std::string::npos) << err;
  ASSERT_EQ(parse_request("{\"kernel\": \"x\", \"n\": 4, \"backend\": \"avx512\"}", req, err),
            ErrorCode::kNone);
  EXPECT_EQ(req.backend, simd::Backend::kAvx512);

  ASSERT_EQ(parse_request("{\"kernel\": \"vecmath.exp\", \"n\": 64, \"seed\": 9, "
                          "\"backend\": \"scalar\"}",
                          req, err),
            ErrorCode::kNone);
  EXPECT_EQ(req.kernel, "vecmath.exp");
  EXPECT_EQ(req.n, 64u);
  EXPECT_EQ(req.seed, 9u);
  EXPECT_TRUE(req.has_backend);
  EXPECT_EQ(req.backend, simd::Backend::kScalar);
}

TEST(Protocol, ErrorTaxonomyMapsToHttpStatus) {
  EXPECT_EQ(http_status(ErrorCode::kNone), 200);
  EXPECT_EQ(http_status(ErrorCode::kBadRequest), 400);
  EXPECT_EQ(http_status(ErrorCode::kUnknownKernel), 404);
  EXPECT_EQ(http_status(ErrorCode::kNotFound), 404);
  EXPECT_EQ(http_status(ErrorCode::kOverloaded), 429);
  EXPECT_EQ(http_status(ErrorCode::kDraining), 503);
  EXPECT_EQ(http_status(ErrorCode::kInternal), 500);
  const std::string body = error_body(ErrorCode::kOverloaded, "queue full");
  EXPECT_NE(body.find("\"overloaded\""), std::string::npos);
  EXPECT_NE(body.find("queue full"), std::string::npos);
  EXPECT_NE(error_body(ErrorCode::kNotFound, "x").find("\"not_found\""), std::string::npos);
  EXPECT_EQ(digest_hex(0xdeadbeefull).size(), 16u);
  EXPECT_EQ(digest_hex(0xdeadbeefull), "00000000deadbeef");
}

// ------------------------------------------------- live server tests

struct RunReply {
  int status = 0;
  json::Value doc;
};

RunReply run_request(HttpClient& client, const std::string& kernel, std::size_t n,
                     std::uint64_t seed) {
  json::Value body = json::Value::object();
  body.set("kernel", kernel);
  body.set("n", static_cast<unsigned long long>(n));
  body.set("seed", static_cast<unsigned long long>(seed));
  const HttpClient::Result r = client.post("/run", body.dump(0));
  return {r.status, json::Value::parse(r.body)};
}

ServerOptions test_options(std::size_t queue_depth = 32, std::size_t max_batch = 8,
                           unsigned threads = 2) {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.queue_depth = queue_depth;
  opts.max_batch = max_batch;
  opts.threads = threads;
  return opts;
}

TEST(Server, HealthKernelsAndConfigEndpoints) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  EXPECT_EQ(client.get("/healthz").status, 200);
  const auto kernels = client.get("/kernels");
  EXPECT_EQ(kernels.status, 200);
  EXPECT_NE(kernels.body.find("vecmath.exp"), std::string::npos);
  EXPECT_EQ(client.get("/nope").status, 404);

  EXPECT_EQ(client.post("/config", "{\"batch\": 4}").status, 200);
  EXPECT_EQ(server.max_batch(), 4u);
  EXPECT_EQ(client.post("/config", "{\"batch\": 0}").status, 400);
  EXPECT_EQ(client.post("/config", "{oops").status, 400);
  EXPECT_EQ(server.max_batch(), 4u);
  server.drain();
  EXPECT_FALSE(server.running());
}

TEST(Server, RunIsDeterministicAndReportsTimings) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const RunReply a = run_request(client, "vecmath.exp", 4096, 7);
  const RunReply b = run_request(client, "vecmath.exp", 4096, 7);
  ASSERT_EQ(a.status, 200);
  ASSERT_EQ(b.status, 200);
  EXPECT_EQ(a.doc.at("digest").as_string(), b.doc.at("digest").as_string());
  EXPECT_FALSE(a.doc.at("backend").as_string().empty());
  EXPECT_GE(a.doc.at("queue_us").as_number(), 0.0);
  EXPECT_GT(a.doc.at("run_us").as_number(), 0.0);
  EXPECT_GE(a.doc.at("total_us").as_number(), a.doc.at("run_us").as_number());

  const RunReply c = run_request(client, "vecmath.exp", 4096, 8);
  EXPECT_NE(a.doc.at("digest").as_string(), c.doc.at("digest").as_string());
  server.drain();
}

TEST(Server, TypedErrorsOverHttp) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const RunReply unknown = run_request(client, "no.such.kernel", 64, 1);
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.doc.at("error").as_string(), "unknown_kernel");

  const HttpClient::Result malformed = client.post("/run", "{this is not json");
  EXPECT_EQ(malformed.status, 400);
  EXPECT_NE(malformed.body.find("bad_request"), std::string::npos);

  // Oversized n is rejected up front, before admission.
  const RunReply too_big = run_request(client, "hpcc.dgemm", 100000, 1);
  EXPECT_EQ(too_big.status, 400);
  EXPECT_EQ(too_big.doc.at("error").as_string(), "bad_request");

  // The connection survives typed errors (keep-alive, not dropped).
  EXPECT_EQ(run_request(client, "vecmath.sin", 256, 1).status, 200);
  server.drain();
}

TEST(Server, BatchedDigestsMatchUnbatched) {
  // Server-level coalescing correctness: digests collected with
  // batching disabled must reproduce exactly under concurrent load
  // with batching enabled.
  Server server(test_options(/*queue_depth=*/64, /*max_batch=*/1, /*threads=*/4));
  server.start();

  std::map<std::uint64_t, std::string> unbatched;
  {
    HttpClient client("127.0.0.1", server.port());
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const RunReply r = run_request(client, "vecmath.tanh", 2048, seed);
      ASSERT_EQ(r.status, 200);
      EXPECT_EQ(r.doc.at("batch").as_number(), 1.0);
      unbatched[seed] = r.doc.at("digest").as_string();
    }
    ASSERT_EQ(client.post("/config", "{\"batch\": 16}").status, 200);
  }

  std::vector<std::thread> clients;
  std::mutex mu;
  std::map<std::uint64_t, std::string> batched;
  double max_batch_seen = 0.0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    clients.emplace_back([&, seed] {
      HttpClient client("127.0.0.1", server.port());
      const RunReply r = run_request(client, "vecmath.tanh", 2048, seed);
      ASSERT_EQ(r.status, 200);
      std::lock_guard lk(mu);
      batched[seed] = r.doc.at("digest").as_string();
      max_batch_seen = std::max(max_batch_seen, r.doc.at("batch").as_number());
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(batched, unbatched);
  // Not asserting a specific batch size (timing-dependent), but the
  // response must report a sane one.
  EXPECT_GE(max_batch_seen, 1.0);
  EXPECT_LE(max_batch_seen, 16.0);
  server.drain();
}

TEST(Server, QueueFullBurstGetsTypedOverloadedRejection) {
  // Tiny queue + slow kernel: a 12-request burst must split into some
  // completions and some *immediate* typed rejections — never a
  // blocked accept loop (the rejections come back while the first
  // request is still running).
  Server server(test_options(/*queue_depth=*/1, /*max_batch=*/1, /*threads=*/2));
  server.start();

  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 12; ++i) {
    clients.emplace_back([&, i] {
      HttpClient client("127.0.0.1", server.port());
      const RunReply r = run_request(client, "hpcc.dgemm", 512, static_cast<std::uint64_t>(i));
      if (r.status == 200) {
        ++ok;
      } else if (r.status == 429) {
        EXPECT_EQ(r.doc.at("error").as_string(), "overloaded");
        ++overloaded;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok + overloaded + other, 12);
  EXPECT_EQ(other, 0);
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  server.drain();
}

TEST(Server, DrainCompletesInFlightWorkThenStops) {
  Server server(test_options(/*queue_depth=*/32, /*max_batch=*/4, /*threads=*/2));
  server.start();

  std::atomic<int> ok{0};
  std::atomic<int> draining{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      HttpClient client("127.0.0.1", server.port());
      try {
        const RunReply r = run_request(client, "hpcc.dgemm", 256, static_cast<std::uint64_t>(i));
        if (r.status == 200) {
          ++ok;
        } else if (r.status == 503) {
          ++draining;
        } else {
          ++other;
        }
      } catch (const std::exception&) {
        // Connection refused after the listen socket closed.
        ++draining;
      }
    });
  }
  // Let some requests land, then drain while work is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.drain();
  for (auto& t : clients) t.join();

  // Every admitted request completed; late arrivals got the typed
  // draining signal (or found the socket closed) — nothing hung and
  // nothing got a broken connection mid-response.
  EXPECT_EQ(ok + draining + other, 8);
  EXPECT_EQ(other, 0);
  EXPECT_GE(ok, 1);
  EXPECT_EQ(static_cast<int>(server.requests_served()), ok.load());
  EXPECT_FALSE(server.running());
}

TEST(Server, SigtermSetsStopFlagForTheDaemonLoop) {
  // ookamid's shutdown path: the handler only flips an atomic; the
  // main loop polls it and calls drain().  raise(3) exercises the same
  // handler a real `kill -TERM` hits.
  install_stop_signal_handlers();
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
  std::raise(SIGTERM);
  EXPECT_TRUE(stop_requested());
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
}

TEST(Server, MetricsEndpointExposesServingSeries) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());
  ASSERT_EQ(run_request(client, "vecmath.exp", 1024, 3).status, 200);
  ASSERT_EQ(run_request(client, "no.such.kernel", 8, 1).status, 404);

  const HttpClient::Result metrics = client.get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("ookami_serve_requests_total 2"), std::string::npos);
  EXPECT_NE(metrics.body.find("ookami_serve_responses_ok 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("ookami_serve_errors_unknown_kernel 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE ookami_serve_queue_depth gauge"), std::string::npos);
  // Per-kernel latency histogram with cumulative buckets and count.
  EXPECT_NE(metrics.body.find("# TYPE ookami_serve_latency_vecmath_exp histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ookami_serve_latency_vecmath_exp_count 1"), std::string::npos);
  EXPECT_NE(metrics.body.find("ookami_serve_queue_wait_count 1"), std::string::npos);
  server.drain();
}

TEST(Server, HammerManyClientsMixedRequests) {
  // The TSan target: concurrent clients mixing valid kernels, typed
  // errors and /metrics scrapes, all over keep-alive connections.
  Server server(test_options(/*queue_depth=*/128, /*max_batch=*/8, /*threads=*/4));
  server.start();

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::atomic<int> ok{0};
  std::atomic<int> typed_errors{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        const int kind = (c + i) % 5;
        try {
          if (kind == 0) {
            const auto r = run_request(client, "vecmath.exp", 4096, static_cast<std::uint64_t>(i));
            r.status == 200 ? ++ok : ++unexpected;
          } else if (kind == 1) {
            const auto r = run_request(client, "vecmath.sin", 2048, static_cast<std::uint64_t>(i));
            r.status == 200 ? ++ok : ++unexpected;
          } else if (kind == 2) {
            const auto r = run_request(client, "npb.cg.spmv", 512, static_cast<std::uint64_t>(i));
            r.status == 200 ? ++ok : ++unexpected;
          } else if (kind == 3) {
            const auto r = run_request(client, "no.such.kernel", 64, 1);
            r.status == 404 ? ++typed_errors : ++unexpected;
          } else {
            const auto r = client.post("/run", "{broken");
            r.status == 400 ? ++typed_errors : ++unexpected;
          }
          if (i % 10 == 0) {
            const auto m = client.get("/metrics");
            if (m.status != 200) ++unexpected;
          }
        } catch (const std::exception&) {
          ++unexpected;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(unexpected, 0);
  EXPECT_EQ(ok + typed_errors, kClients * kPerClient);
  server.drain();
  EXPECT_EQ(static_cast<int>(server.requests_served()), ok.load());
}

// ------------------------------------------ tracing / flight / SLO

TEST(Server, HealthzReportsBuildPoolAndServeState) {
  Server server(test_options(/*queue_depth=*/16, /*max_batch=*/4, /*threads=*/2));
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const HttpClient::Result r = client.get("/healthz");
  ASSERT_EQ(r.status, 200);
  const json::Value doc = json::Value::parse(r.body);
  EXPECT_EQ(doc.string_or("status", ""), "ok");
  EXPECT_GE(doc.number_or("uptime_s", -1.0), 0.0);
  ASSERT_NE(doc.find("build"), nullptr);
  EXPECT_FALSE(doc.find("build")->string_or("compiler", "").empty());
  ASSERT_NE(doc.find("pool"), nullptr);
  EXPECT_EQ(doc.find("pool")->number_or("threads", 0.0), 2.0);
  // The pool has one fork/join protocol, so there is no mode to report.
  EXPECT_FALSE(doc.find("pool")->contains("barrier"));
  ASSERT_NE(doc.find("serve"), nullptr);
  const json::Value& serve = *doc.find("serve");
  EXPECT_EQ(serve.number_or("queue_capacity", 0.0), 16.0);
  EXPECT_EQ(serve.number_or("batch", 0.0), 4.0);
  ASSERT_NE(serve.find("slo"), nullptr);
  EXPECT_GT(serve.find("slo")->number_or("target_ms", 0.0), 0.0);
  server.drain();
}

TEST(Server, RunResponseCarriesRetrievableTraceId) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  const RunReply r = run_request(client, "vecmath.exp", 2048, 11);
  ASSERT_EQ(r.status, 200);
  const std::string trace = r.doc.string_or("trace", "");
  ASSERT_EQ(trace.size(), 16u);

  // The span tree is retrievable by that id: queue + kernel spans and
  // the terminal request event, with non-negative offsets.
  const HttpClient::Result t = client.get("/trace/" + trace);
  ASSERT_EQ(t.status, 200);
  const json::Value doc = json::Value::parse(t.body);
  EXPECT_EQ(doc.string_or("schema", ""), "ookami-trace-request-1");
  EXPECT_EQ(doc.string_or("trace", ""), trace);
  ASSERT_NE(doc.find("spans"), nullptr);
  bool saw_queue = false;
  bool saw_kernel = false;
  bool saw_done = false;
  for (const json::Value& s : doc.find("spans")->items()) {
    const std::string name = s.string_or("name", "");
    if (name == "serve/queue") saw_queue = true;
    if (name == "serve/kernel") saw_kernel = true;
    if (name == "serve/done") saw_done = true;
    EXPECT_GE(s.number_or("offset_us", -1.0), 0.0);
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_done);

  // Unknown-but-well-formed ids get the typed not_found; junk gets 400.
  const HttpClient::Result missing = client.get("/trace/0123456789abcdef");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("not_found"), std::string::npos);
  EXPECT_EQ(client.get("/trace/not-hex").status, 400);
  server.drain();
}

TEST(Server, MetricsExemplarsLinkBucketsToTraceIds) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const RunReply r = run_request(client, "vecmath.sqrt", 1024, 5);
  ASSERT_EQ(r.status, 200);
  const std::string trace = r.doc.string_or("trace", "");
  ASSERT_EQ(trace.size(), 16u);

  // The latency histogram's occupied bucket carries this request's id
  // as an OpenMetrics exemplar, and /metrics now exports SLO series.
  const HttpClient::Result m = client.get("/metrics");
  ASSERT_EQ(m.status, 200);
  EXPECT_NE(m.body.find("# {trace_id=\"" + trace + "\"}"), std::string::npos);
  EXPECT_NE(m.body.find("ookami_serve_slo_vecmath_sqrt_burn_1m"), std::string::npos);
  EXPECT_NE(m.body.find("ookami_serve_slo_vecmath_sqrt_total 1"), std::string::npos);
  server.drain();
}

TEST(Server, DebugFlightEndpointDumpsRing) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const RunReply r = run_request(client, "vecmath.exp", 512, 2);
  ASSERT_EQ(r.status, 200);
  const std::string trace = r.doc.string_or("trace", "");

  const HttpClient::Result f = client.get("/debug/flight");
  ASSERT_EQ(f.status, 200);
  const json::Value doc = json::Value::parse(f.body);
  EXPECT_EQ(doc.string_or("schema", ""), "ookami-flight-1");
  EXPECT_EQ(doc.string_or("reason", ""), "endpoint");
  ASSERT_NE(doc.find("events"), nullptr);
  bool saw_mine = false;
  for (const json::Value& e : doc.find("events")->items()) {
    if (e.string_or("req", "") == trace) saw_mine = true;
  }
  EXPECT_TRUE(saw_mine);
  // The counter snapshot rides along (including the dump's own count).
  ASSERT_NE(doc.find("counters"), nullptr);
  EXPECT_GE(doc.find("counters")->number_or("serve/flight_dumps_total", 0.0), 1.0);
  server.drain();
}

TEST(Server, ConfigSetsSloTargetsAndValidates) {
  Server server(test_options());
  server.start();
  HttpClient client("127.0.0.1", server.port());

  // Global default and a per-kernel override, applied together with a
  // batch change (one body, both knobs).
  const HttpClient::Result both =
      client.post("/config", "{\"batch\": 2, \"slo\": {\"target_ms\": 5.0}}");
  ASSERT_EQ(both.status, 200);
  EXPECT_EQ(server.max_batch(), 2u);
  EXPECT_NEAR(server.slo().target_for("*").target_s, 5.0e-3, 1e-12);

  const HttpClient::Result per_kernel = client.post(
      "/config",
      "{\"slo\": {\"kernel\": \"hpcc.dgemm\", \"target_ms\": 250.0, \"objective\": 0.999}}");
  ASSERT_EQ(per_kernel.status, 200);
  EXPECT_NEAR(server.slo().target_for("hpcc.dgemm").target_s, 0.250, 1e-12);
  EXPECT_NEAR(server.slo().target_for("hpcc.dgemm").objective, 0.999, 1e-12);
  // Kernels without an override still get the default.
  EXPECT_NEAR(server.slo().target_for("vecmath.exp").target_s, 5.0e-3, 1e-12);

  // Validation: missing/zero target, out-of-range objective.
  EXPECT_EQ(client.post("/config", "{\"slo\": {}}").status, 400);
  EXPECT_EQ(client.post("/config", "{\"slo\": {\"target_ms\": 0}}").status, 400);
  EXPECT_EQ(client.post("/config", "{\"slo\": {\"target_ms\": 5, \"objective\": 1.5}}").status,
            400);
  // Nothing was clobbered by the rejected bodies.
  EXPECT_NEAR(server.slo().target_for("*").target_s, 5.0e-3, 1e-12);
  server.drain();
}

TEST(Server, SloBreachWritesFlightDumpFile) {
  // An impossible SLO (1 ns) makes every request an error; with
  // objective 0.99 the 1m burn rate is ~100, far past the 14.4 trigger,
  // so the first completed batch must write the flight dump file.
  const std::string path =
      "/tmp/ookami_flight_breach_" + std::to_string(::getpid()) + ".json";
  std::remove(path.c_str());
  ServerOptions opts = test_options();
  opts.slo_target_ms = 1e-6;
  opts.flight_dump_path = path;
  Server server(opts);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const RunReply r = run_request(client, "vecmath.exp", 4096, 3);
  ASSERT_EQ(r.status, 200);
  const std::string trace = r.doc.string_or("trace", "");

  // The dump happens on the executor thread right after the batch
  // completes; give it a moment to hit the filesystem.
  std::string body;
  for (int i = 0; i < 200 && body.empty(); ++i) {
    std::ifstream in(path);
    if (in) {
      std::ostringstream os;
      os << in.rdbuf();
      body = os.str();
    }
    if (body.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(body.empty()) << "no flight dump at " << path;
  const json::Value doc = json::Value::parse(body);
  EXPECT_EQ(doc.string_or("schema", ""), "ookami-flight-1");
  EXPECT_EQ(doc.string_or("reason", ""), "slo_burn");
  bool saw_mine = false;
  for (const json::Value& e : doc.find("events")->items()) {
    if (e.string_or("req", "") == trace) saw_mine = true;
  }
  EXPECT_TRUE(saw_mine);
  server.drain();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ookami::serve
