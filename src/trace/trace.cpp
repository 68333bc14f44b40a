#include "ookami/trace/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace ookami::trace {

namespace detail {

namespace {
bool env_enabled() {
  const char* v = std::getenv("OOKAMI_TRACE");
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 || std::strcmp(v, "on") == 0;
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};

}  // namespace detail

namespace {

constexpr std::size_t kDefaultThreadCapacity = std::size_t{1} << 20;

/// One thread's private event log.  Owned by the registry so events
/// survive the thread; the owning thread holds a raw pointer in a
/// thread_local and is the only writer.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::size_t> capacity{kDefaultThreadCapacity};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: buffers must outlive all threads
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = static_cast<std::uint32_t>(reg.buffers.size());
    buf = owned.get();
    reg.buffers.push_back(std::move(owned));
  }
  return *buf;
}

thread_local std::int32_t t_depth = 0;

std::atomic<const ScopeHooks*> g_hooks{nullptr};

}  // namespace

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

std::vector<Event> collect() {
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  std::size_t total = 0;
  for (const auto& b : reg.buffers) total += b->events.size();
  std::vector<Event> out;
  out.reserve(total);
  // Buffers are registered in tid order, so this is (tid asc, end asc).
  for (const auto& b : reg.buffers) out.insert(out.end(), b->events.begin(), b->events.end());
  return out;
}

void clear() {
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  for (auto& b : reg.buffers) {
    b->events.clear();
    b->dropped = 0;
  }
}

std::uint64_t dropped() {
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  std::uint64_t n = 0;
  for (const auto& b : reg.buffers) n += b->dropped;
  return n;
}

std::size_t thread_count() {
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  return reg.buffers.size();
}

void set_thread_capacity(std::size_t cap) {
  registry().capacity.store(cap == 0 ? 1 : cap, std::memory_order_relaxed);
}

void set_scope_hooks(const ScopeHooks* hooks) {
  g_hooks.store(hooks, std::memory_order_release);
}

namespace {

/// Append one event to the calling thread's buffer under that thread's
/// id, honouring the capacity cap.
void push(Event e) {
  ThreadBuffer& buf = local_buffer();
  const std::size_t cap = registry().capacity.load(std::memory_order_relaxed);
  if (buf.events.size() >= cap) {
    ++buf.dropped;
    return;
  }
  e.tid = buf.tid;
  buf.events.push_back(e);
}

}  // namespace

void record_graph_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint32_t graph, std::uint32_t task, std::uint32_t dep) {
  if (!enabled() || graph == 0) return;
  Event e;
  e.name = name;
  e.start_ns = start_ns;
  e.end_ns = end_ns;
  e.depth = t_depth;
  e.graph = graph;
  e.task = task;
  e.dep = dep;
  push(e);
}

void Scope::begin(const char* name, double bytes, double flops) {
  name_ = name;
  bytes_ = bytes;
  flops_ = flops;
  depth_ = t_depth++;
  if (const ScopeHooks* h = g_hooks.load(std::memory_order_acquire); h != nullptr && h->on_begin) {
    h->on_begin(h->ctx, name);
  }
  start_ns_ = now_ns();  // read the clock last: exclude our own setup
}

void Scope::end() {
  const std::uint64_t end_ns = now_ns();  // read the clock first
  if (const ScopeHooks* h = g_hooks.load(std::memory_order_acquire); h != nullptr && h->on_end) {
    h->on_end(h->ctx, name_);
  }
  --t_depth;
  push(Event{name_, start_ns_, end_ns, 0, depth_, bytes_, flops_});
}

}  // namespace ookami::trace
