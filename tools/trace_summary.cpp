// trace_summary — digest of a saved trace or flight-recorder dump.
//
//   trace_summary TRACE.json [--top N] [--machine a64fx|skylake|knl|zen2]
//                 [--region NAME] [--critical-path]
//   trace_summary FLIGHT.json [--top N] [--req HEX]
//
// Detects which of the kit's two recordings the file holds.
//
// A Chrome trace-event document (the TRACE_<bench>.json files the
// harness writes under --trace, or any file with "ph":"X" complete
// events) is a whole-run profile: the tool rebuilds the region nesting
// and prints the aggregated per-region table — call counts,
// inclusive/exclusive wall time, and, where regions carry bytes/flops
// annotations, achieved GF/s, GB/s, arithmetic intensity and the
// memory-/compute-bound verdict against the chosen machine's roofline —
// then the task-graph spans (record_graph_span) in a table of their own.
// --top N keeps the N largest regions (default all).  --region NAME
// restricts the report to one region or span name; an unknown name
// errors with the nearest match ("did you mean ...").  --critical-path
// prints the hop-by-hop longest dependency chain of each task-graph
// run; a trace with no graph spans exits 2.
//
// An ookami-flight-1 dump (GET /debug/flight, SIGQUIT, or ookamid's
// automatic full-queue trigger) is the daemon's recent window: the tool
// prints the dump header, per-kind event counts, the N slowest requests
// by summed span time (--top, default 5) and the counter/gauge
// snapshot.  --req HEX prints every event of one trace id instead.
//
// A flag the file's kind does not take, an unknown flag, or a file of
// neither kind exits 2, as does any other usage or input problem.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ookami/common/cli.hpp"
#include "ookami/common/json.hpp"
#include "ookami/harness/profile.hpp"
#include "ookami/trace/aggregate.hpp"

namespace {

namespace json = ookami::json;

/// Classic DP edit distance; small inputs only (region names).
std::size_t levenshtein(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string nearest(const std::string& wanted, const std::set<std::string>& names) {
  std::string best;
  std::size_t best_d = static_cast<std::size_t>(-1);
  for (const std::string& n : names) {
    const std::size_t d = levenshtein(wanted, n);
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

/// The ookami-flight-1 digest: dump header, per-kind event counts, the
/// `top` slowest requests by summed span time and the counter/gauge
/// snapshot — or, with `req` set, every event of that trace id.
int flight_digest(const json::Value& doc, const std::string& req, std::size_t top) {
  struct Ev {
    std::string kind, name, req;
    double start_us = 0.0, dur_us = 0.0, value = 0.0;
  };
  std::vector<Ev> evs;
  if (const json::Value* events = doc.find("events"); events != nullptr && events->is_array()) {
    evs.reserve(events->size());
    for (const json::Value& e : events->items()) {
      if (!e.is_object()) continue;
      evs.push_back({e.string_or("kind", "?"), e.string_or("name", "?"), e.string_or("req", ""),
                     e.number_or("start_us", 0.0), e.number_or("dur_us", 0.0),
                     e.number_or("value", 0.0)});
    }
  }
  const json::Value* enabled = doc.find("enabled");
  std::printf("flight: reason=%s events=%zu recorded=%.0f capacity=%.0f enabled=%s\n",
              doc.string_or("reason", "?").c_str(), evs.size(), doc.number_or("recorded", 0.0),
              doc.number_or("capacity", 0.0),
              enabled != nullptr && enabled->is_bool() && enabled->as_bool() ? "yes" : "no");

  if (!req.empty()) {
    std::vector<const Ev*> mine;
    for (const Ev& e : evs) {
      if (e.req == req) mine.push_back(&e);
    }
    if (mine.empty()) {
      std::fprintf(stderr, "trace_summary: no events for request %s\n", req.c_str());
      return 2;
    }
    std::sort(mine.begin(), mine.end(),
              [](const Ev* a, const Ev* b) { return a->start_us < b->start_us; });
    const double t0 = mine.front()->start_us;
    std::printf("request %s: %zu event(s)\n", req.c_str(), mine.size());
    std::printf("%-8s %-24s %12s %12s %10s\n", "kind", "name", "offset(us)", "dur(us)", "value");
    for (const Ev* e : mine) {
      std::printf("%-8s %-24s %12.3f %12.3f %10g\n", e->kind.c_str(), e->name.c_str(),
                  e->start_us - t0, e->dur_us, e->value);
    }
    return 0;
  }

  std::map<std::string, std::size_t> by_kind;
  for (const Ev& e : evs) ++by_kind[e.kind + "/" + e.name];
  std::printf("events by kind/name:\n");
  for (const auto& [key, count] : by_kind) std::printf("  %-32s %zu\n", key.c_str(), count);

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

  for (const char* block : {"counters", "gauges"}) {
    const json::Value* values = doc.find(block);
    if (values == nullptr || !values->is_object() || values->size() == 0) continue;
    std::printf("%s:\n", block);
    for (const auto& [name, v] : values->members()) {
      std::printf(std::strcmp(block, "counters") == 0 ? "  %-32s %.0f\n" : "  %-32s %g\n",
                  name.c_str(), v.is_number() ? v.as_number() : 0.0);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ookami::Cli cli(argc, argv, {"help", "critical-path"});
  if (const auto bad = cli.unknown({"top", "machine", "region", "req"}); !bad.empty()) {
    std::fprintf(stderr, "trace_summary: unknown option --%s (see --help)\n",
                 bad.front().c_str());
    return 2;
  }
  if (cli.has("help") || cli.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: %s TRACE.json [--top N] [--machine a64fx|skylake|knl|zen2]\n"
                 "          [--region NAME] [--critical-path]\n"
                 "       %s FLIGHT.json [--top N] [--req HEX]\n"
                 "  TRACE.json  a Chrome trace-event file (harness TRACE_<bench>.json)\n"
                 "  FLIGHT.json an ookami-flight-1 dump (GET /debug/flight output)\n"
                 "  --top N     trace: the N largest regions by exclusive time (default all);\n"
                 "              dump: the N slowest requests (default 5)\n"
                 "  --machine M roofline used for the verdicts (default a64fx)\n"
                 "  --region R  restrict the report to one region/span name\n"
                 "  --critical-path\n"
                 "              print the longest dependency chain of each task-graph run\n"
                 "  --req HEX   print every event of one request trace id (dumps only)\n",
                 cli.program().c_str(), cli.program().c_str());
    return cli.has("help") ? 0 : 2;
  }

  const std::string& path = cli.positional()[0];
  try {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "trace_summary: cannot open '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    const json::Value doc = json::Value::parse(os.str());

    if (doc.is_object() && doc.string_or("schema", "") == "ookami-flight-1") {
      for (const char* flag : {"machine", "region", "critical-path"}) {
        if (cli.has(flag)) {
          std::fprintf(stderr, "trace_summary: --%s reads Chrome traces; '%s' is an "
                               "ookami-flight-1 dump\n", flag, path.c_str());
          return 2;
        }
      }
      return flight_digest(doc, cli.get("req", ""),
                           static_cast<std::size_t>(cli.get_int("top", 5)));
    }
    if (cli.has("req")) {
      std::fprintf(stderr, "trace_summary: --req reads ookami-flight-1 dumps; '%s' is not "
                           "one (Chrome traces carry no request ids)\n", path.c_str());
      return 2;
    }

    std::deque<std::string> names;
    auto events = ookami::harness::events_from_chrome(doc, names);
    if (events.empty()) {
      // A structurally valid document with nothing to report is a user
      // error (wrong file, trace recorded with tracing off) — fail
      // loudly instead of printing an empty table.
      std::fprintf(stderr,
                   "trace_summary: '%s' contains no complete (\"ph\":\"X\") trace events\n",
                   path.c_str());
      return 2;
    }
    const std::string machine = cli.get("machine", "a64fx");

    if (cli.has("critical-path")) {
      const auto report = ookami::trace::aggregate(
          events, ookami::harness::roofline_for(machine));
      if (report.graphs.empty()) {
        // Same contract as the empty-trace case: asking for a critical
        // path of a trace with no task-graph spans is a user error
        // (workload ran with OOKAMI_TASKGRAPH off, or wrong file).
        std::fprintf(stderr,
                     "trace_summary: '%s' contains no task-graph spans "
                     "(was the workload run with OOKAMI_TASKGRAPH=1 and tracing on?)\n",
                     path.c_str());
        return 2;
      }
      for (const auto& g : report.graphs) {
        std::printf("%s", ookami::trace::render_critical_path(g).c_str());
      }
      return 0;
    }

    if (const std::string region = cli.get("region", ""); !region.empty()) {
      std::set<std::string> known;
      for (const auto& e : events) known.insert(e.name);
      if (known.count(region) == 0) {
        const std::string suggestion = nearest(region, known);
        std::fprintf(stderr, "trace_summary: no region named '%s'%s%s%s\n", region.c_str(),
                     suggestion.empty() ? "" : " (did you mean '",
                     suggestion.c_str(), suggestion.empty() ? "" : "'?)");
        return 2;
      }
      events.erase(std::remove_if(events.begin(), events.end(),
                                  [&](const ookami::trace::Event& e) {
                                    return region != e.name;
                                  }),
                   events.end());
    }

    const auto report = ookami::trace::aggregate(
        events, ookami::harness::roofline_for(machine));
    std::printf("%s", ookami::trace::render(report, static_cast<std::size_t>(
                                                        cli.get_int("top", 0))).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_summary: %s\n", e.what());
    return 2;
  }
}
