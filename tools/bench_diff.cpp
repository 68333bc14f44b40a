// bench_diff — the regression gate over two harness result files.
//
//   bench_diff BASELINE.json CANDIDATE.json [--threshold PCT]
//              [--metric median|mean|min|max] [--strict] [--json]
//
// Compares every series shared by the two BENCH_*.json documents by the
// chosen statistic, honouring each series' recorded better-is-lower/
// higher direction, and exits 1 when any series moved more than PCT
// percent (default 10) in the bad direction.  Series present in only
// one file are reported: added series are informational, removed series
// become gate failures under --strict.
// --json replaces the text table with an ookami-diff-1 JSON document on
// stdout so CI can gate on structured deltas.  Exit 2 signals a usage
// or I/O problem (an unknown flag included) so CI can tell "perf
// regressed" from "gate broke".
//
// A shared series whose recorded "backend" changed between the files is
// warned about but never gates: the numbers are still valid
// measurements, but a kernel that moved (say) from avx2 to scalar is
// the first explanation to check for any delta.  The warning appears in
// the text table's footer, as "backend_changes"/"backend_changed" in
// the JSON document, and on stderr under --json.

#include <cstdio>
#include <exception>

#include "ookami/common/cli.hpp"
#include "ookami/harness/diff.hpp"

int main(int argc, char** argv) {
  const ookami::Cli cli(argc, argv, {"help", "strict", "json"});
  if (const auto bad = cli.unknown({"threshold", "metric"}); !bad.empty()) {
    std::fprintf(stderr, "bench_diff: unknown option --%s (see --help)\n", bad.front().c_str());
    return 2;
  }
  if (cli.has("help") || cli.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: %s BASELINE.json CANDIDATE.json [--threshold PCT] "
                 "[--metric median|mean|min|max] [--strict] [--json]\n",
                 cli.program().c_str());
    return cli.has("help") ? 0 : 2;
  }

  ookami::harness::DiffOptions opts;
  opts.threshold = cli.get_double("threshold", 10.0) / 100.0;
  opts.metric = cli.get("metric", "median");
  opts.fail_on_missing = cli.has("strict");
  if (!(opts.threshold >= 0.0)) {
    std::fprintf(stderr, "bench_diff: --threshold must be a non-negative percentage\n");
    return 2;
  }

  try {
    const auto report = ookami::harness::diff_files(cli.positional()[0], cli.positional()[1], opts);
    if (cli.has("json")) {
      std::printf("%s\n", ookami::harness::diff_to_json(report).dump().c_str());
      if (report.backend_changes > 0) {
        std::fprintf(stderr,
                     "bench_diff: warning: %d series changed backend between the runs "
                     "(non-fatal; see the backend_changed deltas)\n",
                     report.backend_changes);
      }
    } else {
      std::printf("%s", ookami::harness::render_diff(report).c_str());
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
