#pragma once
// Every metric the benchmark reports, with its unit: the gated
// end-to-end metrics of the untraced run, the ones it only prints, and
// the per-layer metrics of the traced run.  BENCHMARK.json must list
// exactly the gated and per-layer names and units (the self-test checks
// it), and a run fails if it leaves one unmeasured.

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"lulesh_s", "s"},
      {"cg_s", "s"},
      {"sp_s", "s"},
      {"exp_gelem_s", "Gelem/s"},
      {"capacity_rps", "req/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

/// End-to-end metrics the untraced run prints but BENCHMARK.json does
/// not gate, because their run-to-run spread on the reference host is
/// wider than any bound the benchmark may set (see README.md).
inline const std::vector<MetricDef>& printed_only_metrics() {
  static const std::vector<MetricDef> defs = {
      {"dgemm_gflops", "GFLOP/s"},
      {"loops_gelem_s", "Gelem/s"},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
  };
  return defs;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"vecmath.exp_ns", "ns/elem"},
      {"loops.simple_ns", "ns/elem"},
      {"loops.predicate_ns", "ns/elem"},
      {"loops.gather_ns", "ns/elem"},
      {"loops.scatter_ns", "ns/elem"},
      {"loops.short_gather_ns", "ns/elem"},
      {"loops.short_scatter_ns", "ns/elem"},
      {"npb.makea_s", "s"},
      {"npb.spmv_gbs", "GB/s"},
      {"npb.spmv_bw_frac", "ratio"},
      {"npb.cg_t1_s", "s"},
      {"npb.sp_t1_s", "s"},
      {"lulesh.t1_s", "s"},
      {"lulesh.zone_ns", "ns"},
      {"hpcc.dgemm_t1_gflops", "GFLOP/s"},
      {"hpcc.dgemm_peak_frac", "ratio"},
      {"dispatch.calibrations", "count"},
      {"dispatch.calibrate_ms", "ms"},
      {"dispatch.resolve_ns", "ns"},
      {"common.pool_spawn_us", "us"},
      {"common.forkjoin_us", "us"},
      {"common.regions.lulesh", "count"},
      {"common.regions.cg", "count"},
      {"common.regions.sp", "count"},
      {"common.join_wait_frac", "ratio"},
      {"common.speedup.lulesh", "x"},
      {"common.speedup.cg", "x"},
      {"common.speedup.sp", "x"},
      {"common.speedup.dgemm", "x"},
      {"taskgraph.task_us", "us"},
      {"taskgraph.lulesh_ratio", "x"},
      {"taskgraph.sp_ratio", "x"},
      {"serve.http_us", "us"},
      {"serve.queue_us", "us"},
      {"serve.queue_p99_us", "us"},
      {"serve.run_us", "us"},
      {"serve.unaccounted_us", "us"},
      {"serve.batch_mean", "count"},
      {"serve.compatible_share", "ratio"},
      {"serve.rejected", "count"},
      {"serve.catalog_us.vecmath.exp", "us"},
      {"serve.catalog_us.vecmath.log", "us"},
      {"serve.catalog_us.vecmath.sin", "us"},
      {"serve.catalog_us.vecmath.tanh", "us"},
      {"serve.catalog_us.vecmath.sqrt", "us"},
      {"serve.catalog_us.hpcc.dgemm", "us"},
      {"serve.catalog_us.npb.cg.spmv", "us"},
      {"serve.digest_us", "us"},
      {"serve.catalog_kernel_frac", "ratio"},
      {"serve.queue_ns", "ns"},
      {"serve.protocol_us", "us"},
      {"trace.overhead_frac", "ratio"},
      {"machine.triad_gbs", "GB/s"},
      {"machine.fma_gflops", "GFLOP/s"},
      {"serve.gen_late_ms", "ms"},
  };
  return defs;
}

}  // namespace perfbench
