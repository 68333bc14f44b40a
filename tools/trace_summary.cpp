// trace_summary — per-region roofline report over a saved trace.
//
//   trace_summary TRACE.json [--top N] [--machine a64fx|skylake|knl|zen2]
//                 [--region NAME] [--req HEX]
//
// Reads a Chrome trace-event document (the TRACE_<bench>.json files the
// harness writes under --trace, or any file with "ph":"X" complete
// events), rebuilds the region nesting, and prints the aggregated
// per-region table: call counts, inclusive/exclusive wall time, and —
// where regions carry bytes/flops annotations — achieved GF/s, GB/s,
// arithmetic intensity and the memory-/compute-bound verdict against
// the chosen machine's roofline.  Injected record_span events (the
// cross-thread serving spans ookamid emits) are grouped into their own
// table automatically.
//
// --region NAME restricts the report to one region or span name; an
// unknown name errors with the nearest match ("did you mean ...").
// --req HEX prints the raw event list of one request's trace id, in
// start order.  --critical-path prints the hop-by-hop longest
// dependency chain of each task-graph run in the trace (the spans the
// taskgraph executor records); a trace with no graph spans exits 2.
// Exit 2 signals a usage/input problem.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ookami/common/cli.hpp"
#include "ookami/common/json.hpp"
#include "ookami/harness/profile.hpp"
#include "ookami/trace/aggregate.hpp"

namespace {

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

std::uint64_t parse_hex(const std::string& s) {
  if (s.empty() || s.size() > 16) return 0;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else return 0;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const ookami::Cli cli(argc, argv);
  if (cli.has("help") || cli.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: %s TRACE.json [--top N] [--machine a64fx|skylake|knl|zen2]\n"
                 "          [--region NAME] [--req HEX] [--critical-path]\n"
                 "  TRACE.json  a Chrome trace-event file (harness TRACE_<bench>.json)\n"
                 "  --top N     print only the N largest regions by exclusive time\n"
                 "  --machine M roofline used for the verdicts (default a64fx)\n"
                 "  --region R  restrict the report to one region/span name\n"
                 "  --req HEX   print the events of one request trace id\n"
                 "  --critical-path\n"
                 "              print the longest dependency chain of each task-graph run\n",
                 cli.program().c_str());
    return cli.has("help") ? 0 : 2;
  }

  const auto top = static_cast<std::size_t>(cli.get_int("top", 0));
  const std::string machine = cli.get("machine", "a64fx");
  const std::string region = cli.get("region", "");
  const std::string req_hex = cli.get("req", "");

  try {
    std::ifstream in(cli.positional()[0]);
    if (!in) {
      std::fprintf(stderr, "trace_summary: cannot open '%s'\n", cli.positional()[0].c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    const ookami::json::Value doc = ookami::json::Value::parse(os.str());

    std::deque<std::string> names;
    auto events = ookami::harness::events_from_chrome(doc, names);
    if (events.empty()) {
      // A structurally valid document with nothing to report is a user
      // error (wrong file, trace recorded with tracing off) — fail
      // loudly instead of printing an empty table.
      std::fprintf(stderr,
                   "trace_summary: '%s' contains no complete (\"ph\":\"X\") trace events\n",
                   cli.positional()[0].c_str());
      return 2;
    }

    if (!req_hex.empty()) {
      const std::uint64_t id = parse_hex(req_hex);
      if (id == 0) {
        std::fprintf(stderr, "trace_summary: --req wants 1-16 hex digits, got '%s'\n",
                     req_hex.c_str());
        return 2;
      }
      std::vector<ookami::trace::Event> mine;
      for (const auto& e : events) {
        if (e.req == id) mine.push_back(e);
      }
      if (mine.empty()) {
        std::fprintf(stderr, "trace_summary: no events tagged with request %s\n",
                     req_hex.c_str());
        return 2;
      }
      std::sort(mine.begin(), mine.end(),
                [](const ookami::trace::Event& a, const ookami::trace::Event& b) {
                  return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                  : a.end_ns < b.end_ns;
                });
      const std::uint64_t t0 = mine.front().start_ns;
      std::printf("request %s: %zu event(s)\n", req_hex.c_str(), mine.size());
      std::printf("%-24s %12s %12s %6s\n", "span", "offset(us)", "dur(us)", "tid");
      for (const auto& e : mine) {
        std::printf("%-24s %12.3f %12.3f %6u\n", e.name,
                    static_cast<double>(e.start_ns - t0) * 1e-3,
                    static_cast<double>(e.end_ns - e.start_ns) * 1e-3, e.tid);
      }
      return 0;
    }

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
                     cli.positional()[0].c_str());
        return 2;
      }
      for (const auto& g : report.graphs) {
        std::printf("%s", ookami::trace::render_critical_path(g).c_str());
      }
      return 0;
    }

    if (!region.empty()) {
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
    std::printf("%s", ookami::trace::render(report, top).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_summary: %s\n", e.what());
    return 2;
  }
}
