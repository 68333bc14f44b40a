#pragma once
// Flight-recorder dump serialization: turn the global FlightRecorder
// ring (recent spans + request events) plus a point-in-time metrics
// snapshot into the "ookami-flight-1" JSON document served by
// GET /debug/flight, written on SIGQUIT, and archived automatically
// when a full admission queue refuses a request.
//
// Lives in serve (not trace) because the dump couples the trace ring
// with the metrics registry; the ring itself stays dependency-free in
// ookami_trace.

#include <string>

#include "ookami/trace/flight.hpp"

namespace ookami::metrics {
class Registry;
}

namespace ookami::serve {

/// Serialize the recorder's current snapshot.  `registry` may be null
/// (no counter/gauge section).  `reason` records why the dump was
/// taken ("endpoint", "sigquit" or "queue_depth").
std::string flight_json(const trace::FlightRecorder& recorder,
                        const metrics::Registry* registry, const std::string& reason);

/// Write a dump to `path` (truncating); false on I/O failure.
bool write_flight_dump(const std::string& path, const std::string& json);

}  // namespace ookami::serve
