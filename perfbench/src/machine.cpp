#include "machine.hpp"

#include <immintrin.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

std::size_t llc_bytes() {
  std::size_t best = 0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::size_t mult = 1;
    if (text.back() == 'K') mult = std::size_t{1} << 10;
    if (text.back() == 'M') mult = std::size_t{1} << 20;
    best = std::max(best, static_cast<std::size_t>(std::stoull(text)) * mult);
  }
  return best;
}

TriadResult triad(unsigned threads) {
  constexpr std::size_t kMinArray = std::size_t{256} << 20;
  const std::size_t bytes = std::max(kMinArray, 4 * llc_bytes());
  const std::size_t n = bytes / sizeof(double);
  // Uninitialised storage, first touched by the thread that streams it.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::size_t lo = n * t / threads;
        const std::size_t hi = n * (t + 1) / threads;
        body(lo, hi);
      });
    }
    for (auto& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = 0.5 + rep;
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    rates.push_back(3.0 * static_cast<double>(bytes) / seconds_since(t0) * 1e-9);
  }
  return {median(rates), bytes};
}

double fma_gflops() {
#if defined(__AVX512F__)
  using V = __m512d;
  constexpr int kLanes = 8;
  auto fma = [](V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); };
  auto dup = [](double x) { return _mm512_set1_pd(x); };
  auto sum = [](V v) { return _mm512_reduce_add_pd(v); };
#elif defined(__FMA__)
  using V = __m256d;
  constexpr int kLanes = 4;
  auto fma = [](V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); };
  auto dup = [](double x) { return _mm256_set1_pd(x); };
  auto sum = [](V v) {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return t[0] + t[1] + t[2] + t[3];
  };
#else
  using V = double;
  constexpr int kLanes = 1;
  auto fma = [](V a, V b, V c) { return a * b + c; };
  auto dup = [](double x) { return x; };
  auto sum = [](V v) { return v; };
#endif
  constexpr int kChains = 16;  // > FMA latency x ports on current x86 cores
  constexpr long kIters = 1L << 22;
  std::vector<double> rates;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    V acc[kChains];
    for (int k = 0; k < kChains; ++k) acc[k] = dup(1.0 + 1e-3 * k);
    const V mul = dup(0.999999);
    const V add = dup(1e-6);
    const auto t0 = Clock::now();
    for (long i = 0; i < kIters; ++i) {
      for (int k = 0; k < kChains; ++k) acc[k] = fma(acc[k], mul, add);
    }
    const double s = seconds_since(t0);
    for (int k = 0; k < kChains; ++k) sink += sum(acc[k]);
    rates.push_back(2.0 * kLanes * kChains * static_cast<double>(kIters) / s * 1e-9);
  }
  // Keep the chains live without letting the compiler drop the loop.
  if (sink == 0.123456789) rates.push_back(0.0);
  return median(rates);
}

}  // namespace perfbench
