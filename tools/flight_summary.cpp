// flight_summary — human-readable digest of an ookami-flight-1 dump.
//
//   flight_summary FLIGHT.json [--req HEX] [--top N]
//
// Reads the JSON a flight-recorder dump produces (GET /debug/flight,
// SIGQUIT, or an automatic SLO/queue trigger) and prints: the dump
// header (reason, ring occupancy), per-kind event counts, the N
// slowest requests with their span breakdown, and the counter/gauge
// snapshot.  --req HEX prints every event of one trace id instead.
// Exit 2 signals a usage/input problem.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ookami/common/cli.hpp"
#include "ookami/common/json.hpp"

namespace {

namespace json = ookami::json;

struct Ev {
  std::string kind;
  std::string name;
  std::string req;
  double start_us = 0.0;
  double dur_us = 0.0;
  double value = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const ookami::Cli cli(argc, argv);
  if (cli.has("help") || cli.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: %s FLIGHT.json [--req HEX] [--top N]\n"
                 "  FLIGHT.json  an ookami-flight-1 dump (GET /debug/flight output)\n"
                 "  --req HEX    print every event of one trace id\n"
                 "  --top N      slowest requests to list (default 5)\n",
                 cli.program().c_str());
    return cli.has("help") ? 0 : 2;
  }
  const std::string want_req = cli.get("req", "");
  const auto top = static_cast<std::size_t>(cli.get_int("top", 5));

  try {
    std::ifstream in(cli.positional()[0]);
    if (!in) {
      std::fprintf(stderr, "flight_summary: cannot open '%s'\n", cli.positional()[0].c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    const json::Value doc = json::Value::parse(os.str());
    if (!doc.is_object() || doc.string_or("schema", "") != "ookami-flight-1") {
      std::fprintf(stderr, "flight_summary: '%s' is not an ookami-flight-1 dump\n",
                   cli.positional()[0].c_str());
      return 2;
    }

    const json::Value* events = doc.find("events");
    std::vector<Ev> evs;
    if (events != nullptr && events->is_array()) {
      evs.reserve(events->size());
      for (const json::Value& e : events->items()) {
        if (!e.is_object()) continue;
        Ev ev;
        ev.kind = e.string_or("kind", "?");
        ev.name = e.string_or("name", "?");
        ev.req = e.string_or("req", "");
        ev.start_us = e.number_or("start_us", 0.0);
        ev.dur_us = e.number_or("dur_us", 0.0);
        ev.value = e.number_or("value", 0.0);
        evs.push_back(std::move(ev));
      }
    }

    std::printf("flight: reason=%s events=%zu recorded=%.0f capacity=%.0f enabled=%s\n",
                doc.string_or("reason", "?").c_str(), evs.size(),
                doc.number_or("recorded", 0.0), doc.number_or("capacity", 0.0),
                doc.find("enabled") != nullptr && doc.find("enabled")->is_bool() &&
                        doc.find("enabled")->as_bool()
                    ? "yes"
                    : "no");

    if (!want_req.empty()) {
      std::vector<const Ev*> mine;
      for (const Ev& e : evs) {
        if (e.req == want_req) mine.push_back(&e);
      }
      if (mine.empty()) {
        std::fprintf(stderr, "flight_summary: no events for request %s\n", want_req.c_str());
        return 2;
      }
      std::sort(mine.begin(), mine.end(),
                [](const Ev* a, const Ev* b) { return a->start_us < b->start_us; });
      const double t0 = mine.front()->start_us;
      std::printf("request %s: %zu event(s)\n", want_req.c_str(), mine.size());
      std::printf("%-8s %-24s %12s %12s %10s\n", "kind", "name", "offset(us)", "dur(us)",
                  "value");
      for (const Ev* e : mine) {
        std::printf("%-8s %-24s %12.3f %12.3f %10g\n", e->kind.c_str(), e->name.c_str(),
                    e->start_us - t0, e->dur_us, e->value);
      }
      return 0;
    }

    std::map<std::string, std::size_t> by_kind;
    for (const Ev& e : evs) ++by_kind[e.kind + "/" + e.name];
    std::printf("events by kind/name:\n");
    for (const auto& [key, count] : by_kind) {
      std::printf("  %-32s %zu\n", key.c_str(), count);
    }

    // Slowest requests: total span time per trace id (queue + kernel).
    std::map<std::string, double> per_req;
    for (const Ev& e : evs) {
      if (e.kind == "span" && !e.req.empty()) per_req[e.req] += e.dur_us;
    }
    std::vector<std::pair<std::string, double>> slow(per_req.begin(), per_req.end());
    std::sort(slow.begin(), slow.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (!slow.empty()) {
      std::printf("slowest requests (summed span time):\n");
      for (std::size_t i = 0; i < slow.size() && i < top; ++i) {
        std::printf("  %s %12.3f us\n", slow[i].first.c_str(), slow[i].second);
      }
    }

    if (const json::Value* counters = doc.find("counters");
        counters != nullptr && counters->is_object() && counters->size() > 0) {
      std::printf("counters:\n");
      for (const auto& [name, v] : counters->members()) {
        std::printf("  %-32s %.0f\n", name.c_str(), v.is_number() ? v.as_number() : 0.0);
      }
    }
    if (const json::Value* gauges = doc.find("gauges");
        gauges != nullptr && gauges->is_object() && gauges->size() > 0) {
      std::printf("gauges:\n");
      for (const auto& [name, v] : gauges->members()) {
        std::printf("  %-32s %g\n", name.c_str(), v.is_number() ? v.as_number() : 0.0);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flight_summary: %s\n", e.what());
    return 2;
  }
}
