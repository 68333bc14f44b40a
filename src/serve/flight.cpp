#include "ookami/serve/flight.hpp"

#include <cstdio>
#include <fstream>

#include "ookami/common/json.hpp"
#include "ookami/metrics/registry.hpp"

namespace ookami::serve {

namespace {

using json::Value;

std::string hex16(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

std::string flight_json(const trace::FlightRecorder& recorder,
                        const metrics::Registry* registry, const std::string& reason) {
  const auto events = recorder.snapshot();
  Value doc = Value::object();
  doc.set("schema", "ookami-flight-1");
  doc.set("reason", reason);
  doc.set("recorded", static_cast<unsigned long long>(recorder.recorded()));
  doc.set("capacity", static_cast<unsigned long long>(recorder.capacity()));
  doc.set("enabled", recorder.enabled());

  Value evs = Value::array();
  for (const trace::FlightEvent& e : events) {
    Value ev = Value::object();
    ev.set("kind", trace::flight_kind_name(e.kind));
    ev.set("name", e.name != nullptr ? e.name : "?");
    if (e.req != 0) ev.set("req", hex16(e.req));
    // Microseconds keep the numbers inside double precision for any
    // plausible uptime; ids stay hex strings for the same reason.
    ev.set("start_us", static_cast<double>(e.start_ns) * 1e-3);
    ev.set("dur_us", static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
    if (e.value != 0.0) ev.set("value", e.value);
    evs.push_back(std::move(ev));
  }
  doc.set("events", std::move(evs));

  if (registry != nullptr) {
    Value counters = Value::object();
    for (const auto& [name, v] : registry->counter_values()) {
      counters.set(name, static_cast<unsigned long long>(v));
    }
    doc.set("counters", std::move(counters));
    Value gauges = Value::object();
    for (const auto& [name, v] : registry->gauge_values()) gauges.set(name, v);
    doc.set("gauges", std::move(gauges));
  }
  return doc.dump(2);
}

bool write_flight_dump(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << json << '\n';
  return static_cast<bool>(out);
}

}  // namespace ookami::serve
