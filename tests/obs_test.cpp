// Unit tests for src/obs: metrics merge determinism across thread counts,
// histogram bucket-edge semantics, trace-ring overflow, Chrome trace
// round-trip through the support/json parser, and the null-sink macro
// surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "support/json.h"

namespace lrt::obs {
namespace {

// --- MetricsRegistry ---

/// The reference workload: 1200 counter bumps, 300 gauge writes from one
/// logical stream, and 600 histogram samples, split across `threads`
/// workers. Counter adds and histogram records commute, so every split
/// must merge to the same snapshot.
void run_workload(MetricsRegistry& registry, unsigned threads) {
  constexpr int kItems = 1200;
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&registry, w, threads] {
      for (int i = static_cast<int>(w); i < kItems;
           i += static_cast<int>(threads)) {
        registry.counter_add("work.items");
        if (i % 3 == 0) registry.counter_add("work.triples", 2);
        if (i % 2 == 0)
          registry.histogram_record("work.cost", 0.5 * (i % 40));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  // Gauges keep the latest write; a single writer keeps that
  // deterministic regardless of how the counters were sharded.
  for (int i = 0; i < 300; ++i)
    registry.gauge_set("work.level", static_cast<double>(i));
}

TEST(MetricsRegistry, SnapshotIsDeterministicAcrossThreadCounts) {
  std::string reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    MetricsRegistry registry;
    run_workload(registry, threads);
    const std::string json = registry.snapshot().to_json();
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "thread count " << threads;
    }
  }
  EXPECT_NE(reference.find("\"work.items\":1200"), std::string::npos)
      << reference;
}

TEST(MetricsRegistry, CountersAccumulateAndDefaultToZero) {
  MetricsRegistry registry;
  registry.counter_add("a");
  registry.counter_add("a", 41);
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("a"), 42);
  EXPECT_EQ(snapshot.counter("never.touched"), 0);
}

TEST(MetricsRegistry, SnapshotOrdersEntriesByName) {
  MetricsRegistry registry;
  registry.counter_add("zeta");
  registry.counter_add("alpha");
  registry.counter_add("mid");
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");
  EXPECT_EQ(snapshot.counters[1].first, "mid");
  EXPECT_EQ(snapshot.counters[2].first, "zeta");
}

TEST(MetricsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  registry.set_histogram_buckets("h", {1.0, 10.0, 100.0});
  // One sample per region: at/below an edge counts in that edge's bucket,
  // above the last edge counts in the overflow bucket.
  registry.histogram_record("h", 0.5);    // <= 1       -> bucket 0
  registry.histogram_record("h", 1.0);    // == edge    -> bucket 0
  registry.histogram_record("h", 1.01);   // (1, 10]    -> bucket 1
  registry.histogram_record("h", 10.0);   // == edge    -> bucket 1
  registry.histogram_record("h", 100.0);  // == edge    -> bucket 2
  registry.histogram_record("h", 1e9);    // overflow   -> bucket 3
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* h = snapshot.histogram("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->upper_edges.size(), 3u);
  ASSERT_EQ(h->buckets.size(), 4u);
  EXPECT_EQ(h->buckets[0], 2);
  EXPECT_EQ(h->buckets[1], 2);
  EXPECT_EQ(h->buckets[2], 1);
  EXPECT_EQ(h->buckets[3], 1);
  EXPECT_EQ(h->count, 6);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 1e9);
}

TEST(MetricsRegistry, HistogramTracksSumMinMax) {
  MetricsRegistry registry;
  registry.histogram_record("h", 2.0);
  registry.histogram_record("h", -3.0);
  registry.histogram_record("h", 7.0);
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* h = snapshot.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  EXPECT_DOUBLE_EQ(h->sum, 6.0);
  EXPECT_DOUBLE_EQ(h->min, -3.0);
  EXPECT_DOUBLE_EQ(h->max, 7.0);
}

TEST(MetricsRegistry, GaugeKeepsLatestWrite) {
  MetricsRegistry registry;
  registry.gauge_set("g", 1.0);
  registry.gauge_set("g", 5.0);
  registry.gauge_set("g", 3.0);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 3.0);
}

TEST(MetricsRegistry, SnapshotJsonParsesBack) {
  MetricsRegistry registry;
  registry.counter_add("c", 7);
  registry.gauge_set("g", 2.5);
  registry.histogram_record("h", 1.0);
  const auto parsed = parse_json(registry.snapshot().to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c = counters->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number, 7.0);
  ASSERT_NE(parsed->find("gauges"), nullptr);
  ASSERT_NE(parsed->find("histograms"), nullptr);
}

// --- Tracer ---

TEST(Tracer, RingOverflowDropsOldestAndCountsDrops) {
  MetricsRegistry metrics;
  Tracer tracer(/*capacity=*/4);
  tracer.set_drop_counter(&metrics);
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";  // piecewise: GCC 12 -O3 -Wrestrict
    name += std::to_string(i);
    tracer.instant("test", name);
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the six oldest (e0..e5) were dropped.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[1].name, "e7");
  EXPECT_EQ(events[2].name, "e8");
  EXPECT_EQ(events[3].name, "e9");
  EXPECT_EQ(tracer.dropped(), 6);
  EXPECT_EQ(metrics.snapshot().counter("trace.dropped"), 6);
}

TEST(Tracer, ChromeJsonRoundTripsThroughSupportJson) {
  Tracer tracer;
  tracer.complete("sim", "run", 10, 250, {{"trials", 32.0}});
  tracer.instant("adapt", "repair", {{"host", 1.0}, {"t", 4000.0}});
  const auto parsed = parse_json(tracer.to_chrome_json());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  const JsonValue& span = events->array[0];
  ASSERT_NE(span.find("ph"), nullptr);
  EXPECT_EQ(span.find("ph")->string, "X");
  EXPECT_EQ(span.find("cat")->string, "sim");
  EXPECT_EQ(span.find("name")->string, "run");
  EXPECT_DOUBLE_EQ(span.find("ts")->number, 10.0);
  EXPECT_DOUBLE_EQ(span.find("dur")->number, 240.0);
  const JsonValue* span_args = span.find("args");
  ASSERT_NE(span_args, nullptr);
  ASSERT_NE(span_args->find("trials"), nullptr);
  EXPECT_DOUBLE_EQ(span_args->find("trials")->number, 32.0);

  const JsonValue& instant = events->array[1];
  EXPECT_EQ(instant.find("ph")->string, "i");
  EXPECT_EQ(instant.find("cat")->string, "adapt");
  ASSERT_NE(instant.find("args"), nullptr);
  EXPECT_DOUBLE_EQ(instant.find("args")->find("host")->number, 1.0);
}

TEST(Tracer, JsonlEmitsOneParsableObjectPerLine) {
  Tracer tracer;
  tracer.instant("a", "one");
  tracer.instant("b", "two");
  const std::string jsonl = tracer.to_jsonl();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    lines.push_back(jsonl.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const auto parsed = parse_json(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_TRUE(parsed->is_object());
  }
}

TEST(Tracer, AssignsDenseThreadIds) {
  Tracer tracer;
  tracer.instant("t", "main");
  std::thread([&tracer] { tracer.instant("t", "worker"); }).join();
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tid, 0u);
  EXPECT_EQ(events[1].tid, 1u);
}

// --- Sink / macros ---

TEST(Sink, NullSinkHelpersAreNoOps) {
  const Sink sink;
  EXPECT_FALSE(sink.enabled());
  sink.counter_add("x");
  sink.gauge_set("x", 1.0);
  sink.histogram_record("x", 1.0);
  sink.instant("cat", "x");  // must not crash
}

TEST(Sink, ResolveFallsBackToGlobal) {
  ASSERT_EQ(global_sink(), nullptr);
  MetricsRegistry metrics;
  Sink sink(&metrics, nullptr);
  EXPECT_EQ(resolve_sink(&sink), &sink);
  EXPECT_EQ(resolve_sink(nullptr), nullptr);
  Sink* previous = set_global_sink(&sink);
  EXPECT_EQ(previous, nullptr);
  EXPECT_EQ(resolve_sink(nullptr), &sink);
  set_global_sink(nullptr);
  EXPECT_EQ(resolve_sink(nullptr), nullptr);
}

TEST(Sink, MacrosAreInertWithoutGlobalSinkAndLiveWithOne) {
  ASSERT_EQ(global_sink(), nullptr);
  {
    LRT_TRACE_SPAN("test", "disabled");
    LRT_COUNTER_ADD("test.count", 1);
  }
  MetricsRegistry metrics;
  Tracer tracer;
  Sink sink(&metrics, &tracer);
  set_global_sink(&sink);
  {
    LRT_TRACE_SPAN("test", "enabled");
    LRT_COUNTER_ADD("test.count", 3);
  }
  set_global_sink(nullptr);
  EXPECT_EQ(metrics.snapshot().counter("test.count"), 3);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "enabled");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kComplete);
}

// --- ScopedSession ---

TEST(ScopedSession, InertWhenNoPathsRequested) {
  const SessionOptions options;
  const ScopedSession session(options);
  EXPECT_EQ(global_sink(), nullptr);
}

TEST(ScopedSession, InstallsAndRemovesGlobalSink) {
  SessionOptions options;
  options.metrics_out = testing::TempDir() + "obs_session_metrics.json";
  options.trace_out = testing::TempDir() + "obs_session_trace.json";
  {
    const ScopedSession session(options);
    ASSERT_NE(global_sink(), nullptr);
    LRT_COUNTER_ADD("session.count", 5);
  }
  EXPECT_EQ(global_sink(), nullptr);
  std::FILE* metrics = std::fopen(options.metrics_out.c_str(), "r");
  ASSERT_NE(metrics, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), metrics));
  std::fclose(metrics);
  const auto parsed = parse_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("session.count"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("session.count")->number, 5.0);

  std::FILE* trace = std::fopen(options.trace_out.c_str(), "r");
  ASSERT_NE(trace, nullptr);
  std::fclose(trace);
}

}  // namespace
}  // namespace lrt::obs
