#include "ookami/dispatch/registry.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace ookami::dispatch {

namespace detail {

namespace {
constexpr int kBackendCount = static_cast<int>(simd::Backend::kAvx512) + 1;
}  // namespace

struct Entry {
  std::string name;
  const std::type_info* sig = nullptr;      ///< declared signature tag
  AnyFn fn[kBackendCount] = {};             ///< indexed by simd::Backend
  CheckFn check = nullptr;
  double check_tol = 0.0;
};

struct State {
  std::mutex mu;
  /// Entries are heap-allocated and never destroyed or moved: resolve()
  /// holds raw Entry pointers across the process lifetime.
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries;

  std::atomic<bool> observing{false};
  std::map<std::string, simd::Backend> observed;  ///< guarded by mu
};

State& state() {
  static State* s = new State;  // intentionally leaked: registrars run at
  return *s;                    // static init, resolves until process exit
}

namespace {

[[noreturn]] void die(const Entry& e, const char* what) {
  std::fprintf(stderr, "dispatch: kernel '%s': %s\n", e.name.c_str(), what);
  std::abort();
}

}  // namespace

Entry* entry(std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.entries.find(name);
  if (it == s.entries.end()) {
    auto e = std::make_unique<Entry>();
    e->name = std::string(name);
    it = s.entries.emplace(e->name, std::move(e)).first;
  }
  return it->second.get();
}

void declare(Entry* e, const std::type_info& sig) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (e->sig != nullptr && *e->sig != sig) die(*e, "signature mismatch between declarations");
  e->sig = &sig;
}

void add_variant(Entry* e, simd::Backend b, AnyFn fn, const std::type_info& sig) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (e->sig != nullptr && *e->sig != sig) {
    die(*e, "variant signature disagrees with the kernel declaration");
  }
  e->sig = &sig;
  const int idx = static_cast<int>(b);
  if (idx <= 0 || idx >= kBackendCount) die(*e, "variant backend out of range");
  if (e->fn[idx] != nullptr) die(*e, "duplicate variant registration");
  if (fn == nullptr) die(*e, "null variant function");
  e->fn[idx] = fn;
}

void add_check(Entry* e, CheckFn fn, double tolerance) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (e->check != nullptr) die(*e, "duplicate equivalence-check registration");
  e->check = fn;
  e->check_tol = tolerance;
}

AnyFn resolve(Entry* e, simd::Backend& used, const std::type_info& sig) {
  if (e->sig != nullptr && *e->sig != sig) die(*e, "resolve() signature mismatch");
  used = simd::Backend::kScalar;
  AnyFn fn = nullptr;
  // Walk down from the active backend to the best registered variant
  // the CPU can run; scalar (the caller's reference code) when nothing
  // native fits.
  for (int i = static_cast<int>(simd::active_backend()); i > 0; --i) {
    const auto cand = static_cast<simd::Backend>(i);
    if (e->fn[i] != nullptr && simd::backend_supported(cand)) {
      used = cand;
      fn = e->fn[i];
      break;
    }
  }
  State& s = state();
  if (s.observing.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.observed[e->name] = used;
  }
  return fn;
}

}  // namespace detail

namespace {

KernelInfo info_of(const detail::Entry& e) {
  KernelInfo k;
  k.name = e.name;
  for (int i = 1; i < detail::kBackendCount; ++i) {
    if (e.fn[i] != nullptr) k.variants.push_back(static_cast<simd::Backend>(i));
  }
  k.has_check = e.check != nullptr;
  k.check_tolerance = e.check_tol;
  return k;
}

}  // namespace

std::vector<KernelInfo> kernels() {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<KernelInfo> out;
  out.reserve(s.entries.size());
  for (const auto& [name, e] : s.entries) out.push_back(info_of(*e));
  return out;  // std::map iteration order == sorted by name
}

std::vector<simd::Backend> variants(std::string_view name) {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.entries.find(name);
  return it == s.entries.end() ? std::vector<simd::Backend>{} : info_of(*it->second).variants;
}

simd::Backend resolved_backend(std::string_view name) {
  detail::State& s = detail::state();
  detail::Entry* e = nullptr;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.entries.find(name);
    if (it == s.entries.end()) return simd::Backend::kScalar;
    e = it->second.get();
  }
  simd::Backend used;
  (void)detail::resolve(e, used, e->sig != nullptr ? *e->sig : typeid(void));
  return used;
}

CheckFn check(std::string_view name, double* tolerance) {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.entries.find(name);
  if (it == s.entries.end()) return nullptr;
  if (tolerance != nullptr) *tolerance = it->second->check_tol;
  return it->second->check;
}

std::string manifest() {
  std::ostringstream os;
  for (const KernelInfo& k : kernels()) {
    os << k.name << '\t' << "scalar";
    for (simd::Backend b : k.variants) os << ',' << simd::backend_name(b);
    os << '\n';
  }
  return os.str();
}

void begin_observation() {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.observed.clear();
  s.observing.store(true, std::memory_order_relaxed);
}

std::vector<Observation> take_observation() {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.observing.store(false, std::memory_order_relaxed);
  std::vector<Observation> out;
  out.reserve(s.observed.size());
  for (const auto& [name, used] : s.observed) out.push_back({name, used});
  s.observed.clear();
  return out;
}

}  // namespace ookami::dispatch
