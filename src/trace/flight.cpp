#include "ookami/trace/flight.hpp"

#include <cstdlib>
#include <cstring>

namespace ookami::trace {

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kSpan: return "span";
    case FlightKind::kRequest: return "request";
    case FlightKind::kMark: return "mark";
  }
  return "?";
}

namespace {

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 64;
  while (p < n && p < (std::size_t{1} << 30)) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  const std::size_t cap = round_pow2(capacity);
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
}

void FlightRecorder::record(FlightKind kind, const char* name, std::uint64_t req,
                            std::uint64_t start_ns, std::uint64_t end_ns, double value) {
  if (!enabled() || name == nullptr) return;
  const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[i & mask_];
  // Per-slot seqlock: odd stamp marks the rewrite in progress for
  // generation i, the even stamp 2*i+2 commits it.  Readers key on the
  // even stamp, so a slot being overwritten (this generation or a
  // wrapped later one) is skipped, never mixed.
  s.seq.store(2 * i + 1, std::memory_order_release);
  s.name.store(name, std::memory_order_relaxed);
  s.req.store(req, std::memory_order_relaxed);
  s.start_ns.store(start_ns, std::memory_order_relaxed);
  s.end_ns.store(end_ns, std::memory_order_relaxed);
  s.value.store(value, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint32_t>(kind), std::memory_order_relaxed);
  s.seq.store(2 * i + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t begin = head > cap ? head - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t i = begin; i < head; ++i) {
    const Slot& s = slots_[i & mask_];
    if (s.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
    FlightEvent e;
    e.name = s.name.load(std::memory_order_relaxed);
    e.req = s.req.load(std::memory_order_relaxed);
    e.start_ns = s.start_ns.load(std::memory_order_relaxed);
    e.end_ns = s.end_ns.load(std::memory_order_relaxed);
    e.value = s.value.load(std::memory_order_relaxed);
    e.kind = static_cast<FlightKind>(s.kind.load(std::memory_order_relaxed));
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != 2 * i + 2) continue;  // overwritten mid-copy
    if (e.name == nullptr) continue;
    out.push_back(e);
  }
  return out;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* rec = [] {
    std::size_t cap = 16384;
    if (const char* v = std::getenv("OOKAMI_FLIGHT_CAPACITY"); v != nullptr && *v != '\0') {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end != v && *end == '\0' && parsed > 0) cap = static_cast<std::size_t>(parsed);
    }
    auto* r = new FlightRecorder(cap);  // leaked: must outlive all threads
    if (const char* v = std::getenv("OOKAMI_FLIGHT");
        v != nullptr && (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0)) {
      r->set_enabled(false);
    }
    return r;
  }();
  return *rec;
}

}  // namespace ookami::trace
