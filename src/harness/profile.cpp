#include "ookami/harness/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "ookami/perf/machine.hpp"

namespace ookami::harness {

trace::Roofline roofline_for(const std::string& machine) {
  const perf::MachineModel* m = nullptr;
  if (machine == "a64fx") {
    m = &perf::a64fx();
  } else if (machine == "skylake") {
    m = &perf::skylake_6140();
  } else if (machine == "knl") {
    m = &perf::knl_7250();
  } else if (machine == "zen2") {
    m = &perf::zen2_7742();
  } else {
    throw std::invalid_argument("unknown trace machine '" + machine +
                                "' (want a64fx, skylake, knl or zen2)");
  }
  return trace::Roofline{machine, m->peak_gflops_core(), m->core_mem_bw_gbs};
}

trace::Report collect_report(const std::string& machine) {
  return trace::aggregate(trace::collect(), roofline_for(machine), trace::dropped());
}

json::Value profile_to_json(const trace::Report& report, const MeasuredProfile* measured) {
  json::Value p = json::Value::object();
  p.set("machine", report.roofline.machine);
  p.set("peak_gflops", report.roofline.peak_gflops);
  p.set("mem_bw_gbs", report.roofline.mem_bw_gbs);
  p.set("wall_s", report.wall_s);
  p.set("events", static_cast<double>(report.events));
  if (report.dropped > 0) p.set("dropped", static_cast<double>(report.dropped));
  if (measured != nullptr) {
    p.set("counter_backend", metrics::backend_name(measured->backend));
    p.set("counter_backend_reason", measured->backend_reason);
  }
  json::Value regions = json::Value::array();
  for (const auto& r : report.regions) {
    json::Value v = json::Value::object();
    v.set("name", r.name);
    v.set("count", static_cast<double>(r.count));
    v.set("inclusive_s", r.inclusive_s);
    v.set("exclusive_s", r.exclusive_s);
    v.set("min_s", r.min_s);
    v.set("max_s", r.max_s);
    v.set("threads", static_cast<double>(r.threads));
    if (r.bytes > 0.0) v.set("bytes", r.bytes);
    if (r.flops > 0.0) v.set("flops", r.flops);
    if (r.intensity > 0.0) v.set("intensity", r.intensity);
    if (r.flops > 0.0) v.set("gflops", r.gflops);
    if (r.bytes > 0.0) v.set("gbs", r.gbs);
    v.set("verdict", trace::bound_name(r.bound));
    if (measured != nullptr) {
      const metrics::RegionCounters* rc = nullptr;
      for (const auto& c : measured->regions) {
        if (c.name == r.name) {
          rc = &c;
          break;
        }
      }
      const metrics::MeasuredRegion mr = metrics::join_region(r, rc, report.roofline);
      json::Value m = json::Value::object();
      // Non-finite doubles serialize as null, so rates whose counters
      // were unavailable show up as explicit nulls, not zeros.
      m.set("ipc", mr.ipc);
      m.set("instructions", mr.instructions);
      m.set("cycles", mr.cycles);
      m.set("cache_miss_rate", mr.cache_miss_rate);
      m.set("branch_miss_per_kinst", mr.branch_miss_per_kinst);
      m.set("page_faults", mr.page_faults);
      m.set("gbs", mr.measured_gbs);
      m.set("intensity", mr.measured_intensity);
      m.set("bound", trace::bound_name(mr.measured_bound));
      m.set("verdict", metrics::verdict_name(mr.verdict));
      v.set("measured", std::move(m));
    }
    regions.push_back(std::move(v));
  }
  p.set("regions", std::move(regions));
  return p;
}

namespace {

json::Value counter_totals_to_json(const metrics::CounterSet& totals) {
  json::Value t = json::Value::object();
  for (std::size_t i = 0; i < metrics::kCounterCount; ++i) {
    const auto id = static_cast<metrics::CounterId>(i);
    if (totals.has(id)) t.set(metrics::counter_name(id), totals.get(id));
  }
  // NaN -> null for rates whose counters are missing.
  t.set("ipc", totals.ipc());
  t.set("cache_miss_rate", totals.cache_miss_rate());
  t.set("branch_miss_per_kinst", totals.branch_miss_per_kinst());
  t.set("cpu_time_s", totals.cpu_s);
  t.set("wall_s", totals.wall_s);
  return t;
}

}  // namespace

json::Value metrics_to_json(const metrics::CounterSampler& sampler,
                            const metrics::CounterSet& totals,
                            const metrics::Registry& registry) {
  json::Value doc = json::Value::object();
  doc.set("backend", metrics::backend_name(sampler.backend()));
  doc.set("backend_reason", sampler.backend_reason());
  doc.set("totals", counter_totals_to_json(totals));
  json::Value hists = json::Value::array();
  for (const std::string& name : registry.histogram_names()) {
    const metrics::Histogram* h = registry.find_histogram(name);
    if (h == nullptr) continue;
    const metrics::Histogram snap(*h);
    json::Value v = json::Value::object();
    v.set("name", name);
    v.set("count", static_cast<double>(snap.count()));
    v.set("mean", snap.mean());
    v.set("min", snap.min());
    v.set("p50", snap.quantile(0.50));
    v.set("p95", snap.quantile(0.95));
    v.set("p99", snap.quantile(0.99));
    v.set("max", snap.max());
    json::Value buckets = json::Value::array();
    const auto counts = snap.buckets();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      json::Value b = json::Value::object();
      b.set("le", snap.bucket_upper(i));  // +inf serializes as null
      b.set("count", static_cast<double>(counts[i]));
      buckets.push_back(std::move(b));
    }
    v.set("buckets", std::move(buckets));
    hists.push_back(std::move(v));
  }
  doc.set("histograms", std::move(hists));
  return doc;
}

std::string metrics_to_prometheus(const metrics::CounterSampler& sampler,
                                  const metrics::CounterSet& totals,
                                  const metrics::Registry& registry) {
  std::string out = registry.to_prometheus("ookami");
  const std::string backend = metrics::backend_name(sampler.backend());
  out += "# TYPE ookami_metrics_backend gauge\n";
  out += "ookami_metrics_backend{backend=\"" + backend + "\"} 1\n";
  for (std::size_t i = 0; i < metrics::kCounterCount; ++i) {
    const auto id = static_cast<metrics::CounterId>(i);
    if (!totals.has(id)) continue;
    const std::string n =
        metrics::prometheus_name(std::string("ookami_total_") + metrics::counter_name(id));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f", totals.get(id));
    out += "# TYPE " + n + " counter\n";
    out += n + " " + buf + "\n";
  }
  return out;
}

std::vector<trace::Event> events_from_chrome(const json::Value& doc,
                                             std::deque<std::string>& names) {
  const json::Value* arr = nullptr;
  if (doc.is_array()) {
    arr = &doc;
  } else if (doc.is_object()) {
    arr = doc.find("traceEvents");
  }
  if (arr == nullptr || !arr->is_array()) {
    throw std::runtime_error("not a Chrome trace document (no traceEvents array)");
  }

  struct Raw {
    std::size_t name_idx;
    double ts_us, dur_us, tid;
    double depth;  // < 0: reconstruct from containment
    double bytes, flops;
    std::uint32_t graph, task, dep;
  };
  std::vector<Raw> raws;
  raws.reserve(arr->size());
  for (const auto& e : arr->items()) {
    if (!e.is_object() || e.string_or("ph", "") != "X") continue;
    Raw r;
    names.push_back(e.string_or("name", "?"));
    r.name_idx = names.size() - 1;
    r.ts_us = e.number_or("ts", 0.0);
    r.dur_us = e.number_or("dur", 0.0);
    r.tid = e.number_or("tid", 0.0);
    r.depth = -1.0;
    r.bytes = 0.0;
    r.flops = 0.0;
    r.graph = 0;
    r.task = 0;
    r.dep = trace::kNoParent;
    if (const json::Value* args = e.find("args"); args != nullptr && args->is_object()) {
      r.depth = args->number_or("depth", -1.0);
      r.bytes = args->number_or("bytes", 0.0);
      r.flops = args->number_or("flops", 0.0);
      // Task-graph tags are plain numbers (32-bit values survive a JSON
      // double).
      r.graph = static_cast<std::uint32_t>(args->number_or("graph", 0.0));
      r.task = static_cast<std::uint32_t>(args->number_or("task", 0.0));
      const double dep = args->number_or("dep", -1.0);
      if (dep >= 0.0) r.dep = static_cast<std::uint32_t>(dep);
    }
    raws.push_back(r);
  }

  // Containment reconstruction needs (tid, start asc, longest first).
  std::stable_sort(raws.begin(), raws.end(), [](const Raw& a, const Raw& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });

  std::vector<trace::Event> events;
  events.reserve(raws.size());
  std::vector<double> open_ends;  // per-tid stack of enclosing end times
  double current_tid = raws.empty() ? 0.0 : raws.front().tid;
  for (const Raw& r : raws) {
    if (r.tid != current_tid) {
      current_tid = r.tid;
      open_ends.clear();
    }
    const double end_us = r.ts_us + r.dur_us;
    while (!open_ends.empty() && open_ends.back() <= r.ts_us) open_ends.pop_back();
    trace::Event ev;
    ev.name = names[r.name_idx].c_str();
    ev.start_ns = static_cast<std::uint64_t>(std::llround(r.ts_us * 1e3));
    ev.end_ns = static_cast<std::uint64_t>(std::llround(end_us * 1e3));
    ev.tid = static_cast<std::uint32_t>(r.tid);
    ev.depth = r.depth >= 0.0 ? static_cast<std::int32_t>(r.depth)
                              : static_cast<std::int32_t>(open_ends.size());
    ev.bytes = r.bytes;
    ev.flops = r.flops;
    ev.graph = r.graph;
    ev.task = r.task;
    ev.dep = r.dep;
    events.push_back(ev);
    // Graph spans are not scopes: they must not act as enclosing
    // intervals when reconstructing RAII nesting by containment.
    if (r.graph == 0) open_ends.push_back(end_us);
  }
  return events;
}

}  // namespace ookami::harness
