#include "ookami/trace/aggregate.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

namespace ookami::trace {

const char* bound_name(Bound b) {
  switch (b) {
    case Bound::kUnknown: return "unknown";
    case Bound::kMemory: return "memory-bound";
    case Bound::kCompute: return "compute-bound";
  }
  return "?";
}

namespace {

struct Accum {
  RegionStats stats;
  std::set<std::uint32_t> tids;
};

struct SpanAccum {
  SpanStats stats;
  std::set<std::uint32_t> tids;
};

struct GraphAccum {
  std::vector<const Event*> tasks;
  std::set<std::uint32_t> tids;
};

/// Fold one graph's task events into GraphStats, reconstructing the
/// critical path by chaining critical parents backward from the
/// last-finishing task.  Duplicate task indices (a task re-recorded by
/// a malformed trace) keep the last occurrence; a dep pointing at an
/// unseen task or a cycle terminates the walk instead of corrupting it.
GraphStats fold_graph(std::uint32_t id, const GraphAccum& acc) {
  GraphStats g;
  g.id = id;
  g.tasks = acc.tasks.size();
  g.threads = static_cast<unsigned>(acc.tids.size());
  std::map<std::uint32_t, const Event*> by_task;
  std::uint64_t t0 = acc.tasks.front()->start_ns, t1 = acc.tasks.front()->end_ns;
  const Event* sink = acc.tasks.front();
  for (const Event* e : acc.tasks) {
    g.total_s += e->seconds();
    t0 = std::min(t0, e->start_ns);
    t1 = std::max(t1, e->end_ns);
    if (e->end_ns > sink->end_ns) sink = e;
    by_task[e->task] = e;
  }
  g.wall_s = static_cast<double>(t1 - t0) * 1e-9;

  std::set<std::uint32_t> visited;
  for (const Event* e = sink; e != nullptr;) {
    if (!visited.insert(e->task).second) break;  // cycle guard
    g.critical_path.push_back({e->name, e->task,
                               static_cast<double>(e->start_ns - t0) * 1e-9, e->seconds()});
    g.critical_path_s += e->seconds();
    if (e->dep == kNoParent) break;
    const auto it = by_task.find(e->dep);
    e = it == by_task.end() ? nullptr : it->second;
  }
  std::reverse(g.critical_path.begin(), g.critical_path.end());
  return g;
}

}  // namespace

Report aggregate(const std::vector<Event>& events, const Roofline& roofline,
                 std::uint64_t dropped_events) {
  Report report;
  report.roofline = roofline;
  report.events = events.size();
  report.dropped = dropped_events;
  if (events.empty()) return report;

  // Canonical replay order per thread: by end time, children before
  // parents at equal end (a child's destructor runs first, so live
  // buffers already look like this; re-sorting makes parsed traces and
  // arbitrary test input equally valid).
  std::vector<const Event*> order;
  order.reserve(events.size());
  std::map<std::string, SpanAccum> span_by_name;
  std::map<std::uint32_t, GraphAccum> graph_by_id;
  std::uint64_t t0 = events.front().start_ns, t1 = events.front().end_ns;
  for (const Event& e : events) {
    t0 = std::min(t0, e.start_ns);
    t1 = std::max(t1, e.end_ns);
    if (e.graph != 0) {
      GraphAccum& graph = graph_by_id[e.graph];
      graph.tasks.push_back(&e);
      graph.tids.insert(e.tid);
      // Graph spans are not part of any thread's nesting: aggregate
      // them on the side, keep them out of the exclusive-time replay.
      SpanAccum& acc = span_by_name[e.name];
      SpanStats& s = acc.stats;
      const double dur = e.seconds();
      if (s.count == 0) {
        s.name = e.name;
        s.min_s = dur;
        s.max_s = dur;
      }
      ++s.count;
      s.total_s += dur;
      s.min_s = std::min(s.min_s, dur);
      s.max_s = std::max(s.max_s, dur);
      acc.tids.insert(e.tid);
      continue;
    }
    order.push_back(&e);
  }
  std::stable_sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->end_ns != b->end_ns) return a->end_ns < b->end_ns;
    return a->depth > b->depth;
  });
  report.wall_s = static_cast<double>(t1 - t0) * 1e-9;

  report.spans.reserve(span_by_name.size());
  for (auto& [name, acc] : span_by_name) {
    acc.stats.threads = static_cast<unsigned>(acc.tids.size());
    report.spans.push_back(std::move(acc.stats));
  }
  std::sort(report.spans.begin(), report.spans.end(),
            [](const SpanStats& a, const SpanStats& b) {
              return a.total_s != b.total_s ? a.total_s > b.total_s : a.name < b.name;
            });
  report.graphs.reserve(graph_by_id.size());
  for (const auto& [id, acc] : graph_by_id) report.graphs.push_back(fold_graph(id, acc));
  std::sort(report.graphs.begin(), report.graphs.end(),
            [](const GraphStats& a, const GraphStats& b) {
              return a.critical_path_s != b.critical_path_s ? a.critical_path_s > b.critical_path_s
                                                            : a.id < b.id;
            });
  if (order.empty()) return report;

  std::map<std::string, Accum> by_name;
  // child_time[d]: inclusive time of already-completed scopes at depth d
  // awaiting their parent at depth d-1.  Reset per thread.
  std::vector<double> child_time;
  std::uint32_t current_tid = order.front()->tid;

  for (const Event* e : order) {
    if (e->tid != current_tid) {
      current_tid = e->tid;
      child_time.assign(child_time.size(), 0.0);
    }
    const auto d = static_cast<std::size_t>(e->depth < 0 ? 0 : e->depth);
    if (child_time.size() < d + 2) child_time.resize(d + 2, 0.0);
    const double dur = e->seconds();
    // Negative exclusive time can only come from malformed input
    // (overlapping "nested" intervals); clamp rather than propagate.
    const double excl = std::max(0.0, dur - child_time[d + 1]);
    child_time[d + 1] = 0.0;
    child_time[d] += dur;

    Accum& acc = by_name[e->name];
    RegionStats& s = acc.stats;
    if (s.count == 0) {
      s.name = e->name;
      s.min_s = dur;
      s.max_s = dur;
    }
    ++s.count;
    s.inclusive_s += dur;
    s.exclusive_s += excl;
    s.min_s = std::min(s.min_s, dur);
    s.max_s = std::max(s.max_s, dur);
    s.bytes += e->bytes;
    s.flops += e->flops;
    acc.tids.insert(e->tid);
  }

  report.regions.reserve(by_name.size());
  for (auto& [name, acc] : by_name) {
    RegionStats& s = acc.stats;
    s.threads = static_cast<unsigned>(acc.tids.size());
    if (s.exclusive_s > 0.0) {
      s.gflops = s.flops / 1e9 / s.exclusive_s;
      s.gbs = s.bytes / 1e9 / s.exclusive_s;
    }
    if (s.bytes > 0.0 && s.flops > 0.0) {
      s.intensity = s.flops / s.bytes;
      s.bound = s.intensity < roofline.balance() ? Bound::kMemory : Bound::kCompute;
    } else if (s.bytes > 0.0) {
      s.bound = Bound::kMemory;
    } else if (s.flops > 0.0) {
      s.bound = Bound::kCompute;
    }
    report.regions.push_back(std::move(s));
  }
  std::sort(report.regions.begin(), report.regions.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.exclusive_s != b.exclusive_s ? a.exclusive_s > b.exclusive_s
                                                    : a.name < b.name;
            });
  return report;
}

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

std::string render(const Report& report, std::size_t top_n) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "trace: %llu events, %.6f s wall, roofline %s (%.1f GF/s, %.1f GB/s, balance "
                "%.2f flop/B)\n",
                static_cast<unsigned long long>(report.events), report.wall_s,
                report.roofline.machine.c_str(), report.roofline.peak_gflops,
                report.roofline.mem_bw_gbs, report.roofline.balance());
  out += line;
  if (report.dropped > 0) {
    std::snprintf(line, sizeof line, "trace: WARNING %llu events dropped (buffer cap)\n",
                  static_cast<unsigned long long>(report.dropped));
    out += line;
  }

  // Column widths: region names drive the first column.
  std::size_t name_w = 6;
  const std::size_t rows =
      top_n == 0 ? report.regions.size() : std::min(top_n, report.regions.size());
  for (std::size_t i = 0; i < rows; ++i) name_w = std::max(name_w, report.regions[i].name.size());

  std::snprintf(line, sizeof line, "%-*s %8s %12s %12s %8s %9s %9s %8s %s\n",
                static_cast<int>(name_w), "region", "calls", "excl(s)", "incl(s)", "thr",
                "GF/s", "GB/s", "flop/B", "verdict");
  out += line;
  out.append(name_w + 84, '-');
  out += '\n';
  for (std::size_t i = 0; i < rows; ++i) {
    const RegionStats& s = report.regions[i];
    std::snprintf(line, sizeof line, "%-*s %8llu %12s %12s %8u %9s %9s %8s %s\n",
                  static_cast<int>(name_w), s.name.c_str(),
                  static_cast<unsigned long long>(s.count), fmt("%.6f", s.exclusive_s).c_str(),
                  fmt("%.6f", s.inclusive_s).c_str(), s.threads,
                  s.flops > 0.0 ? fmt("%.2f", s.gflops).c_str() : "-",
                  s.bytes > 0.0 ? fmt("%.2f", s.gbs).c_str() : "-",
                  s.intensity > 0.0 ? fmt("%.3f", s.intensity).c_str() : "-",
                  bound_name(s.bound));
    out += line;
  }
  if (rows < report.regions.size()) {
    std::snprintf(line, sizeof line, "... %zu more region(s) below the top %zu\n",
                  report.regions.size() - rows, rows);
    out += line;
  }

  if (!report.spans.empty()) {
    std::size_t span_w = 4;
    for (const SpanStats& s : report.spans) span_w = std::max(span_w, s.name.size());
    out += '\n';
    out += "injected spans (record_graph_span, grouped across threads):\n";
    std::snprintf(line, sizeof line, "%-*s %8s %12s %12s %12s %8s\n",
                  static_cast<int>(span_w), "span", "count", "total(s)", "min(s)", "max(s)",
                  "thr");
    out += line;
    out.append(span_w + 58, '-');
    out += '\n';
    for (const SpanStats& s : report.spans) {
      std::snprintf(line, sizeof line, "%-*s %8llu %12s %12s %12s %8u\n",
                    static_cast<int>(span_w), s.name.c_str(),
                    static_cast<unsigned long long>(s.count), fmt("%.6f", s.total_s).c_str(),
                    fmt("%.6f", s.min_s).c_str(), fmt("%.6f", s.max_s).c_str(), s.threads);
      out += line;
    }
  }

  if (!report.graphs.empty()) {
    out += '\n';
    std::snprintf(line, sizeof line, "task graphs (record_graph_span, critical-parent chains):\n");
    out += line;
    for (const GraphStats& g : report.graphs) {
      std::snprintf(line, sizeof line,
                    "graph %u: %llu tasks on %u thread(s), work %.6f s, wall %.6f s, "
                    "critical path %.6f s over %zu task(s)\n",
                    g.id, static_cast<unsigned long long>(g.tasks), g.threads, g.total_s,
                    g.wall_s, g.critical_path_s, g.critical_path.size());
      out += line;
    }
  }
  return out;
}

std::string render_critical_path(const GraphStats& g) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "graph %u critical path: %zu task(s), %.6f s of %.6f s wall "
                "(%llu tasks, %.6f s total work, %u thread(s))\n",
                g.id, g.critical_path.size(), g.critical_path_s, g.wall_s,
                static_cast<unsigned long long>(g.tasks), g.total_s, g.threads);
  out += line;
  std::size_t name_w = 4;
  for (const GraphHop& h : g.critical_path) name_w = std::max(name_w, h.name.size());
  std::snprintf(line, sizeof line, "%4s %-*s %8s %12s %12s\n", "hop",
                static_cast<int>(name_w), "task", "index", "start(us)", "dur(us)");
  out += line;
  out.append(name_w + 40, '-');
  out += '\n';
  for (std::size_t i = 0; i < g.critical_path.size(); ++i) {
    const GraphHop& h = g.critical_path[i];
    std::snprintf(line, sizeof line, "%4zu %-*s %8u %12.3f %12.3f\n", i,
                  static_cast<int>(name_w), h.name.c_str(), h.task, h.start_s * 1e6,
                  h.seconds * 1e6);
    out += line;
  }
  return out;
}

}  // namespace ookami::trace
