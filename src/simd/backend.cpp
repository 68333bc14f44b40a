#include "ookami/simd/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace ookami::simd {
namespace {

// -1 == no override; otherwise an encoded Backend forced by ScopedBackend
// or by OOKAMI_SIMD_BACKEND.
std::atomic<int> g_override{-1};

bool cpu_supports_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  // F is the 512-bit foundation; DQ supplies the 512-bit _pd logical
  // forms the batch header relies on.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

Backend env_or_detected() {
  static Backend cached = [] {
    Backend b = detected_backend();
    if (const char* env = std::getenv("OOKAMI_SIMD_BACKEND")) {
      Backend requested;
      if (parse_backend(env, requested)) {
        b = clamp_backend(requested);
      } else {
        std::fprintf(stderr, "simd: ignoring unknown OOKAMI_SIMD_BACKEND value '%s' (want %s)\n",
                     env, kBackendNames);
      }
    }
    return b;
  }();
  return cached;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend& out) {
  if (name == "scalar") {
    out = Backend::kScalar;
    return true;
  }
  if (name == "avx2") {
    out = Backend::kAvx2;
    return true;
  }
  if (name == "avx512") {
    out = Backend::kAvx512;
    return true;
  }
  return false;
}

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(OOKAMI_SIMD_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(OOKAMI_SIMD_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_supported(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return cpu_supports_avx2_fma();
    case Backend::kAvx512:
      return cpu_supports_avx512();
  }
  return false;
}

Backend detected_backend() {
  static Backend cached = [] {
    for (Backend b : {Backend::kAvx512, Backend::kAvx2})
      if (backend_compiled(b) && backend_supported(b)) return b;
    return Backend::kScalar;
  }();
  return cached;
}

Backend clamp_backend(Backend b) {
  // Walk down from the request to the best backend that is actually
  // runnable; scalar always is.
  for (int i = static_cast<int>(b); i > 0; --i) {
    const Backend cand = static_cast<Backend>(i);
    if (backend_compiled(cand) && backend_supported(cand)) return cand;
  }
  return Backend::kScalar;
}

Backend active_backend() {
  const int ov = g_override.load(std::memory_order_relaxed);
  if (ov >= 0) return static_cast<Backend>(ov);
  return env_or_detected();
}

ScopedBackend::ScopedBackend(Backend b)
    : prev_(g_override.load(std::memory_order_relaxed)), effective_(clamp_backend(b)) {
  g_override.store(static_cast<int>(effective_), std::memory_order_relaxed);
}

ScopedBackend::~ScopedBackend() { g_override.store(prev_, std::memory_order_relaxed); }

}  // namespace ookami::simd
