// Tests for the src/trace subsystem: recording semantics (nesting,
// multi-thread ordering, disabled-mode inertness, buffer caps), the
// exclusive-time aggregation math, roofline verdicts, and the Chrome
// trace-event export round-tripped through the harness JSON parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>

#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "ookami/common/json.hpp"
#include "ookami/common/threadpool.hpp"
#include "ookami/harness/profile.hpp"
#include "ookami/trace/aggregate.hpp"
#include "ookami/trace/export.hpp"
#include "ookami/trace/flight.hpp"
#include "ookami/trace/trace.hpp"

namespace ookami::trace {
namespace {

/// Every test runs against global trace state; reset around each.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    clear();
  }
  void TearDown() override {
    set_enabled(false);
    clear();
    set_thread_capacity(1 << 20);
  }
};

void spin_ns(std::uint64_t ns) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() < static_cast<std::int64_t>(ns)) {
  }
}

Roofline test_roofline() { return {"test", 100.0, 10.0}; }  // balance = 10 flop/B

Event make_event(const char* name, std::uint64_t start, std::uint64_t end, std::uint32_t tid,
                 std::int32_t depth, double bytes = 0.0, double flops = 0.0) {
  Event e;
  e.name = name;
  e.start_ns = start;
  e.end_ns = end;
  e.tid = tid;
  e.depth = depth;
  e.bytes = bytes;
  e.flops = flops;
  return e;
}

TEST_F(TraceTest, RecordsNestedScopesWithDepths) {
  {
    OOKAMI_TRACE_SCOPE("outer");
    spin_ns(50000);
    {
      OOKAMI_TRACE_SCOPE("inner");
      spin_ns(50000);
    }
  }
  const auto events = collect();
  ASSERT_EQ(events.size(), 2u);
  // Push-at-end order: the child is recorded before its parent.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Proper nesting: inner lives inside outer.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].end_ns, events[1].end_ns);
}

TEST_F(TraceTest, ClearDropsEventsAndKeepsRecording) {
  { OOKAMI_TRACE_SCOPE("a"); }
  ASSERT_EQ(collect().size(), 1u);
  clear();
  EXPECT_TRUE(collect().empty());
  { OOKAMI_TRACE_SCOPE("b"); }
  EXPECT_EQ(collect().size(), 1u);
}

TEST_F(TraceTest, DisabledScopesRecordNothingAndTouchNoBuffers) {
  set_enabled(false);
  clear();
  const std::size_t threads_before = thread_count();
  // A brand-new thread tracing while disabled must not even create its
  // buffer (constraint #1: disabled cost is one relaxed load).
  std::thread t([] {
    for (int i = 0; i < 1000; ++i) {
      OOKAMI_TRACE_SCOPE("ignored");
    }
  });
  t.join();
  EXPECT_TRUE(collect().empty());
  EXPECT_EQ(thread_count(), threads_before);
  EXPECT_EQ(dropped(), 0u);
}

TEST_F(TraceTest, ScopesOpenAcrossDisableStayBalanced) {
  {
    OOKAMI_TRACE_SCOPE("open-while-disabling");
    set_enabled(false);
  }  // closes after the flip: must still record (it saw enabled=true)
  const auto events = collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "open-while-disabling");
}

TEST_F(TraceTest, PerThreadCapacityDropsAndCounts) {
  set_thread_capacity(4);
  for (int i = 0; i < 10; ++i) {
    OOKAMI_TRACE_SCOPE("capped");
  }
  EXPECT_EQ(collect().size(), 4u);
  EXPECT_EQ(dropped(), 6u);
  clear();
  EXPECT_EQ(dropped(), 0u);
}

TEST_F(TraceTest, MultiThreadEventsGroupByTidInEndOrder) {
  ThreadPool pool(4);
  pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t i = b; i < e; ++i) {
      OOKAMI_TRACE_SCOPE("mt/work");
      spin_ns(1000);
    }
  });
  const auto events = collect();
  // 64 work scopes + up to 4 pool/worker spans + 1 pool/parallel_for.
  ASSERT_GE(events.size(), 64u);
  EXPECT_GE(thread_count(), 2u);
  // collect() contract: tid groups ascending, end_ns ascending inside.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].tid == events[i - 1].tid) {
      EXPECT_GE(events[i].end_ns, events[i - 1].end_ns);
    } else {
      EXPECT_GT(events[i].tid, events[i - 1].tid);
    }
  }
  // The fork span and worker spans exist.
  const auto report = aggregate(events, test_roofline());
  const RegionStats* fork = nullptr;
  const RegionStats* work = nullptr;
  for (const auto& r : report.regions) {
    if (r.name == "pool/parallel_for") fork = &r;
    if (r.name == "mt/work") work = &r;
  }
  ASSERT_NE(fork, nullptr);
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->count, 64u);
  EXPECT_GE(work->threads, 2u);
}

TEST_F(TraceTest, ExclusiveTimeSubtractsChildTime) {
  // parent [0, 100]; children [10, 30] and [40, 80]; grandchild [45, 55].
  const std::vector<Event> events = {
      make_event("parent", 0, 100, 0, 0),
      make_event("child", 10, 30, 0, 1),
      make_event("child", 40, 80, 0, 1),
      make_event("grandchild", 45, 55, 0, 2),
  };
  const Report report = aggregate(events, test_roofline());
  ASSERT_EQ(report.regions.size(), 3u);
  const auto find = [&](const std::string& n) -> const RegionStats& {
    for (const auto& r : report.regions) {
      if (r.name == n) return r;
    }
    ADD_FAILURE() << "missing region " << n;
    static RegionStats dummy;
    return dummy;
  };
  const auto& parent = find("parent");
  EXPECT_DOUBLE_EQ(parent.inclusive_s, 100e-9);
  EXPECT_DOUBLE_EQ(parent.exclusive_s, 40e-9);  // 100 - (20 + 40)
  const auto& child = find("child");
  EXPECT_EQ(child.count, 2u);
  EXPECT_DOUBLE_EQ(child.inclusive_s, 60e-9);
  EXPECT_DOUBLE_EQ(child.exclusive_s, 50e-9);  // 60 - grandchild's 10
  EXPECT_DOUBLE_EQ(child.min_s, 20e-9);
  EXPECT_DOUBLE_EQ(child.max_s, 40e-9);
  const auto& grand = find("grandchild");
  EXPECT_DOUBLE_EQ(grand.exclusive_s, grand.inclusive_s);
  // Regions come sorted by exclusive time, descending.
  EXPECT_GE(report.regions[0].exclusive_s, report.regions[1].exclusive_s);
  EXPECT_GE(report.regions[1].exclusive_s, report.regions[2].exclusive_s);
  EXPECT_DOUBLE_EQ(report.wall_s, 100e-9);
}

TEST_F(TraceTest, ExclusiveTimeIsPerThread) {
  // Two threads, same region name, overlapping wall-clock intervals:
  // child time must only be charged within its own thread.
  const std::vector<Event> events = {
      make_event("r", 0, 100, 0, 0),
      make_event("r", 0, 100, 1, 0),
      make_event("c", 20, 60, 1, 1),
  };
  const Report report = aggregate(events, test_roofline());
  const auto& r = report.regions;
  ASSERT_EQ(r.size(), 2u);
  // "r": 200 inclusive, minus the 40 of "c" on thread 1 only.
  EXPECT_EQ(r[0].name, "r");
  EXPECT_DOUBLE_EQ(r[0].inclusive_s, 200e-9);
  EXPECT_DOUBLE_EQ(r[0].exclusive_s, 160e-9);
  EXPECT_EQ(r[0].threads, 2u);
}

TEST_F(TraceTest, RooflineVerdictsFollowMachineBalance) {
  // balance = 10 flop/B: intensity 2 -> memory, intensity 50 -> compute.
  const std::vector<Event> events = {
      make_event("mem", 0, 1000, 0, 0, /*bytes=*/1000.0, /*flops=*/2000.0),
      make_event("cpu", 1000, 2000, 0, 0, /*bytes=*/100.0, /*flops=*/5000.0),
      make_event("bytes-only", 2000, 3000, 0, 0, /*bytes=*/512.0),
      make_event("flops-only", 3000, 4000, 0, 0, 0.0, /*flops=*/64.0),
      make_event("plain", 4000, 5000, 0, 0),
  };
  const Report report = aggregate(events, test_roofline());
  const auto verdict = [&](const std::string& n) {
    for (const auto& r : report.regions) {
      if (r.name == n) return r.bound;
    }
    return Bound::kUnknown;
  };
  EXPECT_EQ(verdict("mem"), Bound::kMemory);
  EXPECT_EQ(verdict("cpu"), Bound::kCompute);
  EXPECT_EQ(verdict("bytes-only"), Bound::kMemory);
  EXPECT_EQ(verdict("flops-only"), Bound::kCompute);
  EXPECT_EQ(verdict("plain"), Bound::kUnknown);
  // Achieved rates are charged to exclusive time: 2000 flop / 1 us.
  for (const auto& r : report.regions) {
    if (r.name == "mem") {
      EXPECT_NEAR(r.intensity, 2.0, 1e-12);
      EXPECT_NEAR(r.gflops, 2.0, 1e-9);
      EXPECT_NEAR(r.gbs, 1.0, 1e-9);
    }
  }
  // The rendered table names the regions and verdicts.
  const std::string text = render(report);
  EXPECT_NE(text.find("mem"), std::string::npos);
  EXPECT_NE(text.find("memory"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
}

TEST_F(TraceTest, RenderHonoursTopN) {
  std::vector<Event> events;
  for (int i = 0; i < 8; ++i) {
    static const char* kNames[8] = {"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"};
    events.push_back(make_event(kNames[i], 0, 100, static_cast<std::uint32_t>(i), 0));
  }
  const Report report = aggregate(events, test_roofline());
  const std::string all = render(report);
  const std::string top2 = render(report, 2);
  EXPECT_NE(all.find("r7"), std::string::npos);
  EXPECT_LT(top2.size(), all.size());
}

TEST_F(TraceTest, ChromeJsonRoundTripsThroughHarnessParser) {
  {
    OOKAMI_TRACE_SCOPE_IO("rt/outer", 4096.0, 1.0e6);
    spin_ns(200000);
    {
      OOKAMI_TRACE_SCOPE("rt/inner");
      spin_ns(200000);
    }
  }
  const auto original = collect();
  ASSERT_EQ(original.size(), 2u);
  const std::string json_text = to_chrome_json(original);

  // Parse with the harness's own JSON parser — the validity check the
  // acceptance criteria ask for.
  const auto doc = ookami::json::Value::parse(json_text);
  ASSERT_TRUE(doc.is_object());
  const auto* arr = doc.find("traceEvents");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  ASSERT_EQ(arr->size(), 2u);
  for (const auto& e : arr->items()) {
    EXPECT_EQ(e.string_or("ph", ""), "X");
    EXPECT_EQ(e.string_or("cat", ""), "ookami");
    EXPECT_TRUE(e.contains("ts"));
    EXPECT_TRUE(e.contains("dur"));
  }

  std::deque<std::string> names;
  const auto reparsed = harness::events_from_chrome(doc, names);
  ASSERT_EQ(reparsed.size(), original.size());

  const Report before = aggregate(original, test_roofline());
  const Report after = aggregate(reparsed, test_roofline());
  ASSERT_EQ(before.regions.size(), after.regions.size());
  for (std::size_t i = 0; i < before.regions.size(); ++i) {
    EXPECT_EQ(before.regions[i].name, after.regions[i].name);
    EXPECT_EQ(before.regions[i].count, after.regions[i].count);
    // Chrome stores microseconds: round-trip is lossy below 1 us.
    EXPECT_NEAR(before.regions[i].inclusive_s, after.regions[i].inclusive_s, 2e-6);
    EXPECT_NEAR(before.regions[i].exclusive_s, after.regions[i].exclusive_s, 4e-6);
    EXPECT_DOUBLE_EQ(before.regions[i].bytes, after.regions[i].bytes);
    EXPECT_DOUBLE_EQ(before.regions[i].flops, after.regions[i].flops);
  }
}

TEST_F(TraceTest, ChromeDepthReconstructionFromContainment) {
  // A foreign trace without args.depth: nesting must be rebuilt from
  // interval containment per tid.
  const std::string text = R"({"traceEvents": [
    {"name": "outer", "ph": "X", "ts": 0, "dur": 100, "tid": 1},
    {"name": "inner", "ph": "X", "ts": 10, "dur": 50, "tid": 1},
    {"name": "later", "ph": "X", "ts": 70, "dur": 20, "tid": 1},
    {"name": "other-thread", "ph": "X", "ts": 20, "dur": 10, "tid": 2},
    {"name": "ignored-meta", "ph": "M", "ts": 0}
  ]})";
  std::deque<std::string> names;
  const auto events = harness::events_from_chrome(ookami::json::Value::parse(text), names);
  ASSERT_EQ(events.size(), 4u);  // the ph:"M" event is skipped
  const auto depth_of = [&](const std::string& n) {
    for (const auto& e : events) {
      if (n == e.name) return e.depth;
    }
    return -99;
  };
  EXPECT_EQ(depth_of("outer"), 0);
  EXPECT_EQ(depth_of("inner"), 1);
  EXPECT_EQ(depth_of("later"), 1);
  EXPECT_EQ(depth_of("other-thread"), 0);

  const Report report = aggregate(events, test_roofline());
  for (const auto& r : report.regions) {
    if (r.name == "outer") {
      // 100 us minus the 50 us inner and 20 us later children.
      EXPECT_NEAR(r.exclusive_s, 30e-6, 1e-12);
    }
  }
}

TEST_F(TraceTest, ProfileJsonCarriesRegionsAndVerdicts) {
  {
    OOKAMI_TRACE_SCOPE_IO("pj/kernel", 1.0e6, 1.0e5);  // 0.1 flop/B: memory
    spin_ns(100000);
  }
  const Report report = aggregate(collect(), harness::roofline_for("a64fx"), dropped());
  const auto profile = harness::profile_to_json(report);
  ASSERT_TRUE(profile.is_object());
  EXPECT_EQ(profile.string_or("machine", ""), "a64fx");
  EXPECT_GT(profile.number_or("peak_gflops", 0.0), 0.0);
  const auto* regions = profile.find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_EQ(regions->size(), 1u);
  const auto& r = regions->items()[0];
  EXPECT_EQ(r.string_or("name", ""), "pj/kernel");
  EXPECT_EQ(r.string_or("verdict", ""), "memory-bound");
  EXPECT_EQ(r.number_or("count", 0.0), 1.0);
  EXPECT_GT(r.number_or("exclusive_s", 0.0), 0.0);
}

struct HookLog {
  std::vector<std::string> begins;
  std::vector<std::string> ends;
};

TEST_F(TraceTest, ScopeHooksFireAroundEveryScope) {
  HookLog log;
  ScopeHooks hooks;
  hooks.on_begin = [](void* ctx, const char* name) {
    static_cast<HookLog*>(ctx)->begins.emplace_back(name);
  };
  hooks.on_end = [](void* ctx, const char* name) {
    static_cast<HookLog*>(ctx)->ends.emplace_back(name);
  };
  hooks.ctx = &log;
  set_scope_hooks(&hooks);
  {
    OOKAMI_TRACE_SCOPE("hk/outer");
    {
      OOKAMI_TRACE_SCOPE("hk/inner");
    }
  }
  set_scope_hooks(nullptr);
  { OOKAMI_TRACE_SCOPE("hk/after-removal"); }

  ASSERT_EQ(log.begins.size(), 2u);
  ASSERT_EQ(log.ends.size(), 2u);
  EXPECT_EQ(log.begins[0], "hk/outer");
  EXPECT_EQ(log.begins[1], "hk/inner");
  // Ends fire in unwind order: inner closes first.
  EXPECT_EQ(log.ends[0], "hk/inner");
  EXPECT_EQ(log.ends[1], "hk/outer");
  // The scopes themselves still recorded normally.
  EXPECT_EQ(collect().size(), 3u);
}

TEST_F(TraceTest, ScopeHooksAreSilentWhileTracingDisabled) {
  HookLog log;
  ScopeHooks hooks;
  hooks.on_begin = [](void* ctx, const char* name) {
    static_cast<HookLog*>(ctx)->begins.emplace_back(name);
  };
  hooks.on_end = [](void* ctx, const char* name) {
    static_cast<HookLog*>(ctx)->ends.emplace_back(name);
  };
  hooks.ctx = &log;
  set_scope_hooks(&hooks);
  set_enabled(false);
  { OOKAMI_TRACE_SCOPE("hk/disabled"); }
  set_scope_hooks(nullptr);
  EXPECT_TRUE(log.begins.empty());
  EXPECT_TRUE(log.ends.empty());
}

TEST_F(TraceTest, ScopeHookTimeIsExcludedFromRegionWallTime) {
  // The begin hook runs before the start timestamp and the end hook
  // after the end timestamp, so hook cost never inflates region time.
  ScopeHooks hooks;
  hooks.on_begin = [](void*, const char*) { spin_ns(200000); };
  hooks.on_end = [](void*, const char*) { spin_ns(200000); };
  set_scope_hooks(&hooks);
  {
    OOKAMI_TRACE_SCOPE("hk/timed");
    spin_ns(50000);
  }
  set_scope_hooks(nullptr);
  const auto events = collect();
  ASSERT_EQ(events.size(), 1u);
  // 50 us of body; 400 us of hooks must not be charged to it.
  EXPECT_LT(events[0].seconds(), 200e-6);
}

TEST_F(TraceTest, RooflineForRejectsUnknownMachine) {
  EXPECT_THROW(harness::roofline_for("cray-1"), std::invalid_argument);
  const auto a64fx = harness::roofline_for("a64fx");
  EXPECT_GT(a64fx.balance(), 0.0);
}

TEST_F(TraceTest, RecordSpanInjectsCompletedEvents) {
  // A graph task's span is recorded with the caller-supplied interval,
  // not the call time, and carries its graph tags.
  const std::uint64_t start = now_ns();
  spin_ns(100000);
  const std::uint64_t end = now_ns();
  record_graph_span("sp/rhs", start, end, 3, 5, 2);
  { OOKAMI_TRACE_SCOPE("anchor"); }

  const auto events = collect();
  ASSERT_EQ(events.size(), 2u);
  const Event& span = events[0];
  EXPECT_STREQ(span.name, "sp/rhs");
  EXPECT_EQ(span.start_ns, start);
  EXPECT_EQ(span.end_ns, end);
  EXPECT_EQ(span.graph, 3u);
  EXPECT_EQ(span.task, 5u);
  EXPECT_EQ(span.dep, 2u);
  // The tags survive the Chrome export and re-import.
  std::deque<std::string> names;
  const auto parsed = harness::events_from_chrome(
      ookami::json::Value::parse(to_chrome_json(events)), names);
  const auto tagged = std::find_if(parsed.begin(), parsed.end(),
                                   [](const Event& e) { return e.graph != 0; });
  ASSERT_NE(tagged, parsed.end());
  EXPECT_EQ(tagged->graph, 3u);
  EXPECT_EQ(tagged->task, 5u);
  EXPECT_EQ(tagged->dep, 2u);
  // Cross-thread pattern: the executing worker records a span whose
  // start was stamped by another thread.
  std::uint64_t other_start = 0;
  std::thread t([&] { other_start = now_ns(); });
  t.join();
  record_graph_span("cross", other_start, now_ns(), 3, 6);
  const auto again = collect();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].start_ns, other_start);
  EXPECT_EQ(again[2].dep, kNoParent);
}

TEST_F(TraceTest, RecordSpanDisabledModeIsInert) {
  set_enabled(false);
  const std::size_t threads_before = thread_count();
  record_graph_span("nope", 0, 100, 1, 0);
  set_enabled(true);
  EXPECT_TRUE(collect().empty());
  EXPECT_EQ(thread_count(), threads_before);
}

TEST_F(TraceTest, RecordSpanHonorsBufferCap) {
  set_thread_capacity(2);
  clear();
  record_graph_span("a", 0, 1, 1, 0);
  record_graph_span("b", 1, 2, 1, 1, 0);
  record_graph_span("c", 2, 3, 1, 2, 1);  // over cap: dropped, counted
  EXPECT_EQ(collect().size(), 2u);
  EXPECT_EQ(dropped(), 1u);
}

TEST_F(TraceTest, AggregateSeparatesInjectedSpansFromRegions) {
  // Two graph spans overlapping a region at the same depth: grouping
  // them into the exclusive-time replay would corrupt it, so they must
  // land in Report::spans and leave the region untouched.
  std::vector<Event> events;
  events.push_back(make_event("region", 0, 1000, 1, 0));
  Event s1 = make_event("sp/rhs", 0, 600, 1, 0);
  s1.graph = 1;
  s1.task = 0;
  Event s2 = make_event("sp/rhs", 100, 900, 2, 0);
  s2.graph = 1;
  s2.task = 1;
  events.push_back(s1);
  events.push_back(s2);

  const Report report = aggregate(events, test_roofline());
  ASSERT_EQ(report.regions.size(), 1u);
  EXPECT_EQ(report.regions[0].name, "region");
  EXPECT_DOUBLE_EQ(report.regions[0].exclusive_s, 1000e-9);
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_EQ(report.spans[0].name, "sp/rhs");
  EXPECT_EQ(report.spans[0].count, 2u);
  EXPECT_EQ(report.spans[0].threads, 2u);
  EXPECT_DOUBLE_EQ(report.spans[0].total_s, 1400e-9);

  const std::string table = render(report);
  EXPECT_NE(table.find("injected spans"), std::string::npos);
  EXPECT_NE(table.find("sp/rhs"), std::string::npos);
}

TEST_F(TraceTest, AggregateHandlesSpanOnlyTraces) {
  std::vector<Event> events;
  Event s = make_event("lulesh/geometry", 10, 20, 1, 0);
  s.graph = 1;
  events.push_back(s);
  const Report report = aggregate(events, test_roofline());
  EXPECT_TRUE(report.regions.empty());
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_EQ(report.spans[0].count, 1u);
  ASSERT_EQ(report.graphs.size(), 1u);
  EXPECT_EQ(report.graphs[0].tasks, 1u);
}

// ---------------------------------------------------- flight recorder

TEST(FlightRecorder, RecordsAndSnapshotsInOrder) {
  FlightRecorder fr(64);
  EXPECT_EQ(fr.capacity(), 64u);
  fr.record(FlightKind::kSpan, "a", 1, 100, 200, 3.0);
  fr.record(FlightKind::kRequest, "b", 2, 300, 300);
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_STREQ(snap[0].name, "a");
  EXPECT_EQ(snap[0].kind, FlightKind::kSpan);
  EXPECT_EQ(snap[0].req, 1u);
  EXPECT_EQ(snap[0].start_ns, 100u);
  EXPECT_EQ(snap[0].end_ns, 200u);
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
  EXPECT_STREQ(snap[1].name, "b");
  EXPECT_EQ(fr.recorded(), 2u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder fr(100);
  EXPECT_EQ(fr.capacity(), 128u);
  FlightRecorder tiny(1);
  EXPECT_EQ(tiny.capacity(), 64u);  // floor
}

TEST(FlightRecorder, OverwritesOldestKeepsNewest) {
  FlightRecorder fr(64);
  for (std::uint64_t i = 0; i < 200; ++i) {
    fr.record(FlightKind::kMark, "tick", i, i, i);
  }
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 64u);
  // Newest 64, oldest first: reqs 136..199.
  EXPECT_EQ(snap.front().req, 136u);
  EXPECT_EQ(snap.back().req, 199u);
  EXPECT_EQ(fr.recorded(), 200u);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder fr(64);
  fr.set_enabled(false);
  fr.record(FlightKind::kMark, "nope", 1, 0, 0);
  EXPECT_TRUE(fr.snapshot().empty());
  EXPECT_EQ(fr.recorded(), 0u);
  fr.set_enabled(true);
  fr.record(FlightKind::kMark, "yes", 2, 0, 0);
  EXPECT_EQ(fr.snapshot().size(), 1u);
}

TEST(FlightRecorder, ConcurrentWritersAndReadersStayCoherent) {
  // TSan target: writers hammer the ring while readers snapshot.  Every
  // event a snapshot returns must be internally consistent — a name
  // from the writer set and (start, end) stamped by the same record()
  // call (end == start + 1 for the writer's own req tag).
  FlightRecorder fr(256);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  static const char* const kNames[kWriters] = {"w0", "w1", "w2", "w3"};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightEvent& e : fr.snapshot()) {
        bool known = false;
        for (const char* n : kNames) known = known || std::strcmp(e.name, n) == 0;
        if (!known || e.end_ns != e.start_ns + 1 || e.req != e.start_ns) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t tag =
            static_cast<std::uint64_t>(w) * kPerWriter + i;
        fr.record(FlightKind::kSpan, kNames[w], tag, tag, tag + 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(fr.recorded(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const auto snap = fr.snapshot();
  EXPECT_EQ(snap.size(), 256u);
}

TEST(FlightRecorder, GlobalIsSingletonAndEnabled) {
  FlightRecorder& a = FlightRecorder::global();
  FlightRecorder& b = FlightRecorder::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.capacity(), 64u);
}

}  // namespace
}  // namespace ookami::trace
