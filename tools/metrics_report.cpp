// metrics_report — human-readable view of a result file's measured
// metrics: counter backend and totals, per-series latency-variability
// histograms, and the per-region measured-vs-modeled verdict table.
//
//   metrics_report BENCH.json [--top N]
//
// Reads a BENCH_<name>.json the harness wrote under --metrics and
// renders its "metrics" and "profile" blocks.  The measured columns are
// what the host's hardware counters saw; the modeled columns are the
// roofline verdicts from the bytes/flops annotations — the last column
// says whether they agree (see EXPERIMENTS.md for how to read
// disagreement).  Exit 2 signals a usage/input problem, including an
// unknown flag and a result file with neither block (run the bench
// with --metrics).

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "ookami/common/cli.hpp"
#include "ookami/common/json.hpp"
#include "ookami/common/table.hpp"

namespace {

using ookami::TextTable;
using ookami::json::Value;

std::string num_or_dash(const Value& obj, const std::string& key, int precision) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->as_number())) return "-";
  return TextTable::num(v->as_number(), precision);
}

std::string pct_or_dash(const Value& obj, const std::string& key) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->as_number())) return "-";
  return TextTable::num(v->as_number() * 100.0, 2) + "%";
}

void print_totals(const Value& metrics) {
  std::printf("backend: %s (%s)\n", metrics.string_or("backend", "?").c_str(),
              metrics.string_or("backend_reason", "").c_str());
  const Value* totals = metrics.find("totals");
  if (totals == nullptr || !totals->is_object()) return;
  TextTable t({"counter", "value"});
  for (const auto& [key, v] : totals->members()) {
    if (!v.is_number() || !std::isfinite(v.as_number())) continue;
    t.add_row({key, TextTable::num(v.as_number(), 6)});
  }
  std::printf("\n%s", t.str().c_str());
}

void print_histograms(const Value& metrics) {
  const Value* hists = metrics.find("histograms");
  if (hists == nullptr || !hists->is_array() || hists->size() == 0) return;
  TextTable t({"histogram", "count", "min", "p50", "p95", "p99", "max"});
  for (const auto& h : hists->items()) {
    t.add_row({h.string_or("name", "?"), TextTable::num(h.number_or("count", 0.0), 0),
               num_or_dash(h, "min", 6), num_or_dash(h, "p50", 6), num_or_dash(h, "p95", 6),
               num_or_dash(h, "p99", 6), num_or_dash(h, "max", 6)});
  }
  std::printf("\nper-repetition variability (seconds):\n%s", t.str().c_str());
}

void print_regions(const Value& profile, std::size_t top) {
  const Value* regions = profile.find("regions");
  if (regions == nullptr || !regions->is_array() || regions->size() == 0) return;
  std::printf("\nmeasured vs modeled (machine %s%s):\n",
              profile.string_or("machine", "?").c_str(),
              profile.contains("counter_backend")
                  ? (", counters " + profile.string_or("counter_backend", "?")).c_str()
                  : "");
  TextTable t({"region", "excl(s)", "model", "IPC", "miss", "meas GB/s", "measured", "verdict"});
  std::size_t rows = 0;
  for (const auto& r : regions->items()) {
    if (top != 0 && rows >= top) break;
    ++rows;
    const Value* m = r.find("measured");
    t.add_row({r.string_or("name", "?"), num_or_dash(r, "exclusive_s", 6),
               r.string_or("verdict", "-"),
               m != nullptr ? num_or_dash(*m, "ipc", 3) : "-",
               m != nullptr ? pct_or_dash(*m, "cache_miss_rate") : "-",
               m != nullptr ? num_or_dash(*m, "gbs", 3) : "-",
               m != nullptr ? m->string_or("bound", "-") : "-",
               m != nullptr ? m->string_or("verdict", "unmeasured") : "unmeasured"});
  }
  std::printf("%s", t.str().c_str());
  if (top != 0 && regions->size() > rows) {
    std::printf("... %zu more region(s) below the top %zu\n", regions->size() - rows, rows);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ookami::Cli cli(argc, argv, {"help"});
  if (const auto bad = cli.unknown({"top"}); !bad.empty()) {
    std::fprintf(stderr, "metrics_report: unknown option --%s (see --help)\n",
                 bad.front().c_str());
    return 2;
  }
  if (cli.has("help") || cli.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: %s BENCH.json [--top N]\n"
                 "  BENCH.json  a harness result file written under --metrics\n"
                 "  --top N     print only the N largest regions by exclusive time\n",
                 cli.program().c_str());
    return cli.has("help") ? 0 : 2;
  }
  const auto top = static_cast<std::size_t>(cli.get_int("top", 0));

  try {
    std::ifstream in(cli.positional()[0]);
    if (!in) {
      std::fprintf(stderr, "metrics_report: cannot open '%s'\n", cli.positional()[0].c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    const Value doc = Value::parse(os.str());
    if (doc.string_or("schema", "") != "ookami-bench-1") {
      std::fprintf(stderr, "metrics_report: '%s' is not an ookami-bench-1 document\n",
                   cli.positional()[0].c_str());
      return 2;
    }
    const Value* metrics = doc.find("metrics");
    const Value* profile = doc.find("profile");
    if ((metrics == nullptr || !metrics->is_object()) &&
        (profile == nullptr || !profile->is_object())) {
      std::fprintf(stderr,
                   "metrics_report: '%s' has no metrics or profile block "
                   "(re-run the bench with --metrics)\n",
                   cli.positional()[0].c_str());
      return 2;
    }
    std::printf("metrics_report: %s\n", doc.string_or("name", "?").c_str());
    if (metrics != nullptr && metrics->is_object()) {
      print_totals(*metrics);
      print_histograms(*metrics);
    }
    if (profile != nullptr && profile->is_object()) print_regions(*profile, top);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_report: %s\n", e.what());
    return 2;
  }
}
