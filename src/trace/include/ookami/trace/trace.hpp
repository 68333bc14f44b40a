#pragma once
// In-process tracing: scoped regions recorded into per-thread event
// buffers with optional bytes/flops annotations.
//
// The paper's whole method is attributing performance to specific code
// regions (NPB phase timings, the FEXPA exp study, CMG-0 vs first-touch
// placement), so the kit needs region-level observability, not just
// end-to-end bench timings.  This module is the recording layer:
//
//   {
//     OOKAMI_TRACE_SCOPE("cg/spmv");             // plain region
//     ...
//   }
//   {
//     OOKAMI_TRACE_SCOPE_IO("bt/rhs", bytes, flops);  // annotated region
//     ...
//   }
//
// Design constraints, in order:
//   1. Negligible cost when disabled: the Scope constructor is an inline
//      relaxed atomic load and nothing else — no allocation, no clock
//      read, no thread-buffer creation.
//   2. Thread-aware without locks on the hot path: every thread appends
//      to its own buffer (created once per thread under a registry
//      mutex); an event is pushed when its scope *ends*, so a thread's
//      buffer is naturally ordered by end time with children before
//      parents — exactly what the aggregator's exclusive-time pass
//      wants.
//   3. Names are interned string literals (`const char*`), never copied
//      per event; an event is a few words.
//
// Layering: this header depends on the C++ standard library only, so
// even ookami_common (the ThreadPool) can be instrumented with it.
// Aggregation lives in aggregate.hpp, exporters in export.hpp.
//
// collect()/clear() must be called from a quiescent point (no
// instrumented work in flight); the harness calls them around a bench
// body, never inside one.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ookami::trace {

/// Sentinel for Event::dep: the task had no critical parent (a graph
/// source, or a task whose readiness predates tracing).
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// One completed region instance.  `name` is an interned literal and
/// must outlive the collector (string literals always do).
struct Event {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< since the process trace epoch
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;       ///< dense collector-assigned thread id
  std::int32_t depth = 0;      ///< nesting level on its thread (0 = outermost)
  double bytes = 0.0;          ///< annotated memory traffic, 0 = unannotated
  double flops = 0.0;          ///< annotated FP work, 0 = unannotated
  std::uint32_t graph = 0;     ///< task-graph run id (record_graph_span only), 0 = none
  std::uint32_t task = 0;      ///< task index within its graph
  std::uint32_t dep = kNoParent;  ///< critical parent: the dependency whose
                                  ///< completion made this task ready

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

namespace detail {
/// The master switch.  Initialized from the OOKAMI_TRACE environment
/// variable ("1"/"true"/"on") at load time; exposed so enabled() can be
/// a single inlined relaxed load.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Is recording on?  Safe (and cheap) to call from any thread.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Flip recording on/off.  Scopes already open keep the state they saw
/// at construction, so enable/disable never unbalances nesting.
void set_enabled(bool on);

/// Nanoseconds since the process trace epoch (first use of the clock).
std::uint64_t now_ns();

/// Snapshot every recorded event, grouped by thread id (ascending) and,
/// within a thread, in recording order (= end-time order, children
/// before parents).
std::vector<Event> collect();

/// Drop all recorded events (thread buffers stay registered, ids stable).
void clear();

/// Events discarded because a thread hit its buffer cap since the last
/// clear().
std::uint64_t dropped();

/// Number of threads that have recorded at least one event, ever.  A
/// thread tracing while disabled must NOT create a buffer — tests pin
/// this down ("disabled mode allocates nothing").
std::size_t thread_count();

/// Per-thread event cap (default 1<<20).  Setting it only affects
/// buffers' future growth; meant for tests.
void set_thread_capacity(std::size_t cap);

/// Optional scope begin/end callbacks, the attachment point for layers
/// that want to sample per-region state (the metrics subsystem reads
/// hardware counters here) without this library depending on them.
/// Hooks fire only while tracing is enabled, on the thread running the
/// scope: on_begin just before the scope's start timestamp is taken,
/// on_end just after its end timestamp — so the hook's own cost is
/// excluded from the region's wall time.  A scope that saw no begin
/// hook (installed mid-scope) may still fire on_end; consumers must
/// tolerate unbalanced calls.
struct ScopeHooks {
  void (*on_begin)(void* ctx, const char* name) = nullptr;
  void (*on_end)(void* ctx, const char* name) = nullptr;
  void* ctx = nullptr;
};

/// Record one executed task of a dependency-graph run (src/taskgraph)
/// with explicit timestamps (from now_ns()).  The interval lands in the
/// calling thread's buffer at its current nesting depth, tagged with the
/// graph run id (nonzero), the task's index within the graph, and the
/// index of its *critical parent*: the dependency whose completion made
/// the task ready (kNoParent for sources).  A task is scheduled work,
/// not part of the thread's RAII nesting, so aggregation reports graph
/// spans on their own and chains them back from the last-finishing task
/// to reconstruct the run's critical path.  No-op while tracing is
/// disabled; scope hooks do not fire.
void record_graph_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint32_t graph, std::uint32_t task,
                       std::uint32_t dep = kNoParent);

/// Install (or, with nullptr, remove) the scope hooks.  The pointed-to
/// struct must stay valid until replaced; install/remove from a
/// quiescent point (no instrumented work in flight), like collect().
void set_scope_hooks(const ScopeHooks* hooks);

/// RAII region.  When tracing is disabled at construction the object is
/// inert: no clock read, no buffer touch, no allocation.
class Scope {
 public:
  explicit Scope(const char* name, double bytes = 0.0, double flops = 0.0) {
    if (enabled()) begin(name, bytes, flops);
  }
  ~Scope() {
    if (name_ != nullptr) end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void begin(const char* name, double bytes, double flops);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::int32_t depth_ = 0;
  double bytes_ = 0.0;
  double flops_ = 0.0;
};

}  // namespace ookami::trace

#define OOKAMI_TRACE_CONCAT_IMPL(a, b) a##b
#define OOKAMI_TRACE_CONCAT(a, b) OOKAMI_TRACE_CONCAT_IMPL(a, b)

/// Trace the enclosing block as region `name` (a string literal).
#define OOKAMI_TRACE_SCOPE(name) \
  ::ookami::trace::Scope OOKAMI_TRACE_CONCAT(ookami_trace_scope_, __LINE__)(name)

/// Trace the enclosing block with bytes/flops annotations for roofline
/// attribution.  The annotation expressions are evaluated even when
/// tracing is disabled — keep them to arithmetic.
#define OOKAMI_TRACE_SCOPE_IO(name, bytes, flops) \
  ::ookami::trace::Scope OOKAMI_TRACE_CONCAT(ookami_trace_scope_, __LINE__)(name, bytes, flops)
