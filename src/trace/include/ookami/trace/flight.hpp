#pragma once
// Flight recorder: an always-on, fixed-size, lock-free ring of recent
// events (spans, request milestones, marks).
//
// The tracer (trace.hpp) answers "where did the cycles of THIS bench
// run go" — it records everything and is collected at a quiescent
// point.  A serving daemon needs the opposite: a bounded window of the
// *most recent* activity that can be snapshotted at any moment, from
// any thread, while writers keep writing — so that when p99 degrades
// or the queue backs up, the dump shows what the daemon was doing at
// that instant, not what a postmortem rerun does.
//
// Design:
//   * One fixed array of slots (capacity rounded up to a power of
//     two); writers claim logical indices with a single relaxed
//     fetch_add, so recording never blocks and never allocates.
//   * Each slot is a per-slot seqlock: the writer stamps an odd
//     sequence, stores the payload (relaxed atomics — the ring is
//     data-race-free by construction), then stamps the even sequence
//     for its generation.  A reader accepts a slot only when it
//     observes the same even stamp before and after copying, so a
//     snapshot can tear at slot granularity but never inside a slot.
//   * Overwrite semantics: new events silently replace the oldest.
//     A snapshot is the newest <= capacity events, oldest first.
//
// `name` must be an interned literal or a string whose storage outlives
// the recorder (kernel names in the serving catalog qualify).
//
// Always-on by default; OOKAMI_FLIGHT=0/off disables recording for
// overhead A/B runs (snapshots still work on whatever was recorded).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ookami::trace {

/// What a flight event describes.
enum class FlightKind : std::uint32_t {
  kSpan = 0,     ///< a timed interval (queue wait, kernel run)
  kRequest = 1,  ///< a request milestone (admitted, done, rejected)
  kMark = 3,     ///< a point annotation (dump trigger, config change)
};

const char* flight_kind_name(FlightKind kind);

struct FlightEvent {
  const char* name = nullptr;   ///< interned name, never null once recorded
  std::uint64_t req = 0;        ///< request/trace id, 0 = not request-scoped
  std::uint64_t start_ns = 0;   ///< trace::now_ns() timebase
  std::uint64_t end_ns = 0;     ///< == start_ns for point events
  double value = 0.0;           ///< kind-specific payload (batch size, depth, ...)
  FlightKind kind = FlightKind::kMark;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 64).
  explicit FlightRecorder(std::size_t capacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event.  Lock-free, allocation-free, callable from any
  /// thread concurrently with other record() and snapshot() calls.
  void record(FlightKind kind, const char* name, std::uint64_t req,
              std::uint64_t start_ns, std::uint64_t end_ns, double value = 0.0);

  /// Copy out the newest <= capacity() events, oldest first.  Slots a
  /// writer is mid-rewrite on are skipped, never half-read.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Total events ever recorded (recorded() - returned snapshot size
  /// ~= events already overwritten).
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Process-wide recorder: capacity from OOKAMI_FLIGHT_CAPACITY
  /// (default 16384), enabled unless OOKAMI_FLIGHT is "0"/"off".
  static FlightRecorder& global();

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 = never written; odd = writing
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> req{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<double> value{0.0};
    std::atomic<std::uint32_t> kind{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace ookami::trace
