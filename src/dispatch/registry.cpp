#include "ookami/dispatch/registry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "ookami/dispatch/override.hpp"

namespace ookami::dispatch {

namespace detail {

namespace {
constexpr int kBackendCount = static_cast<int>(simd::Backend::kAvx512) + 1;
constexpr int kEnvUnset = -2;  ///< per-kernel env rule not looked up yet
constexpr int kEnvNone = -1;   ///< looked up: no rule matches this kernel
}  // namespace

struct Entry {
  std::string name;
  const std::type_info* sig = nullptr;      ///< declared signature tag
  AnyFn fn[kBackendCount] = {};             ///< indexed by simd::Backend
  CheckFn check = nullptr;
  double check_tol = 0.0;
  /// Cached OOKAMI_KERNEL_BACKEND lookup for this kernel (the env var is
  /// read once per process, so the per-kernel answer never changes).
  std::atomic<int> env_request{kEnvUnset};
};

struct State {
  std::mutex mu;
  /// Entries are heap-allocated and never destroyed or moved: resolve()
  /// holds raw Entry pointers across the process lifetime.
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> entries;

  std::atomic<bool> observing{false};
  std::map<std::string, std::pair<simd::Backend, Provenance>> observed;  ///< guarded by mu

  /// Test hook (set_overrides_for_testing): once armed it replaces
  /// env_overrides() as the per-kernel rule source.  Guarded by mu.
  OverrideSet test_overrides;
  bool use_test_overrides = false;
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

/// Pre-clamp backend request for `e` under the registry precedence:
/// ScopedBackend > per-kernel env rule > global env/CPUID.
simd::Backend requested_backend(Entry* e, Provenance& prov) {
  if (simd::scoped_backend_active()) {
    prov = Provenance::kScoped;
    return simd::active_backend();
  }
  int cached = e->env_request.load(std::memory_order_relaxed);
  if (cached == kEnvUnset) {
    simd::Backend want;
    bool found;
    State& s = state();
    {
      std::lock_guard<std::mutex> lock(s.mu);
      found = s.use_test_overrides ? s.test_overrides.lookup(e->name, want)
                                   : env_overrides().lookup(e->name, want);
    }
    cached = found ? static_cast<int>(want) : kEnvNone;
    e->env_request.store(cached, std::memory_order_relaxed);
  }
  if (cached >= 0) {
    prov = Provenance::kEnvRule;
    return simd::clamp_backend(static_cast<simd::Backend>(cached));
  }
  prov = Provenance::kCeiling;
  return simd::active_backend();
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
  Provenance prov = Provenance::kCeiling;
  const simd::Backend request = requested_backend(e, prov);
  used = simd::Backend::kScalar;
  AnyFn fn = nullptr;
  // Clamp down to the best registered variant the CPU can run; scalar
  // (the caller's reference code) when nothing native fits.
  for (int i = static_cast<int>(request); i > 0; --i) {
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
    s.observed[e->name] = {used, prov};
  }
  return fn;
}

}  // namespace detail

const char* provenance_name(Provenance p) {
  switch (p) {
    case Provenance::kScoped:
      return "scoped";
    case Provenance::kEnvRule:
      return "env-rule";
    case Provenance::kCeiling:
      return "ceiling";
  }
  return "unknown";
}

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
  for (const auto& [name, rec] : s.observed) out.push_back({name, rec.first, rec.second});
  s.observed.clear();
  return out;
}

// --- OOKAMI_KERNEL_BACKEND parsing (override.hpp) ------------------------

bool glob_match(std::string_view pattern, std::string_view name) {
  // Iterative '*' matcher (the classic two-pointer backtracking walk).
  std::size_t p = 0, n = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (n < name.size()) {
    if (p < pattern.size() && (pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

}  // namespace

OverrideSet parse_overrides(std::string_view spec, std::vector<std::string>* errors) {
  OverrideSet set;
  auto complain = [&](std::string_view entry, std::string_view why) {
    if (errors == nullptr) return;
    std::string msg = "'";
    msg.append(entry);
    msg += "': ";
    msg += why;
    errors->push_back(std::move(msg));
  };
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view raw = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::string_view item = trim(raw);
    if (item.empty()) continue;  // stray comma / empty spec: nothing to do
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      complain(item, "missing '='");
      continue;
    }
    const std::string_view pattern = trim(item.substr(0, eq));
    const std::string_view value = trim(item.substr(eq + 1));
    if (pattern.empty()) {
      complain(item, "empty kernel pattern");
      continue;
    }
    if (value.empty()) {
      complain(item, "empty backend name");
      continue;
    }
    OverrideRule rule;
    if (!simd::parse_backend(value, rule.backend)) {
      complain(item, "unknown backend (want " + std::string(simd::kBackendNames) + ")");
      continue;
    }
    rule.pattern = std::string(pattern);
    rule.is_glob = pattern.find('*') != std::string_view::npos;
    rule.specificity =
        static_cast<int>(std::count_if(pattern.begin(), pattern.end(), [](char c) { return c != '*'; }));
    set.rules.push_back(std::move(rule));
  }
  return set;
}

bool OverrideSet::lookup(std::string_view kernel, simd::Backend& out) const {
  // Exact patterns outrank globs; among globs more literal characters
  // win; among equals the later rule wins (>= keeps the last match).
  constexpr int kExactBonus = 1 << 20;
  int best = -1;
  bool found = false;
  for (const OverrideRule& r : rules) {
    const bool match = r.is_glob ? glob_match(r.pattern, kernel) : r.pattern == kernel;
    if (!match) continue;
    const int rank = (r.is_glob ? 0 : kExactBonus) + r.specificity;
    if (rank >= best) {
      best = rank;
      out = r.backend;
      found = true;
    }
  }
  return found;
}

const OverrideSet& env_overrides() {
  static const OverrideSet* cached = [] {
    auto* set = new OverrideSet;
    if (const char* env = std::getenv("OOKAMI_KERNEL_BACKEND")) {
      std::vector<std::string> errors;
      *set = parse_overrides(env, &errors);
      for (const std::string& e : errors) {
        std::fprintf(stderr, "dispatch: ignoring malformed OOKAMI_KERNEL_BACKEND entry %s\n",
                     e.c_str());
      }
    }
    return set;
  }();
  return *cached;
}

void set_overrides_for_testing(OverrideSet set) {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.test_overrides = std::move(set);
  s.use_test_overrides = true;
  // Drop every kernel's cached rule lookup so the next resolve() sees
  // the new set.
  for (auto& [name, e] : s.entries) {
    e->env_request.store(detail::kEnvUnset, std::memory_order_relaxed);
  }
}

}  // namespace ookami::dispatch
