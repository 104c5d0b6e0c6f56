// Unit tests for the observability module (src/griddb/obs/): metrics
// registry semantics, histogram bucketing and merging, the
// allocation-free fast path, and tracer span parenting — including
// cross-thread fan-out and the Import/TakeTrace wire round-trip.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "griddb/net/network.h"
#include "griddb/obs/metrics.h"
#include "griddb/obs/trace.h"

// Counting global operator new so the fast-path test can assert zero
// allocations. The counter only ever increases; tests read the delta.
static std::atomic<uint64_t> g_news{0};

// Each operator is kept out of line: once inlined into a caller, GCC
// pairs the malloc() inside new with the free() inside delete (or with
// the other operator) and reports -Wmismatched-new-delete, although these
// are exactly the matching replacement pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace griddb::obs {
namespace {

TEST(MetricsTest, HistogramBucketing) {
  Histogram h;
  h.Observe(0.5);   // bucket 0 (<= 1ms)
  h.Observe(1.0);   // bucket 0 (bounds are inclusive)
  h.Observe(1.5);   // bucket 1 (<= 2ms)
  h.Observe(30);    // bucket 5 (<= 50ms)
  h.Observe(9e299); // overflow bucket
  HistogramData data = h.Data();
  EXPECT_EQ(data.count, 5u);
  EXPECT_DOUBLE_EQ(data.sum, 0.5 + 1.0 + 1.5 + 30 + 9e299);
  EXPECT_EQ(data.buckets[0], 2u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[5], 1u);
  EXPECT_EQ(data.buckets[kLatencyBuckets - 1], 1u);
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Data().ApproxQuantileMs(0.5), 0);  // empty
  for (int i = 0; i < 90; ++i) h.Observe(0.5);  // bucket 0 (upper 1ms)
  for (int i = 0; i < 10; ++i) h.Observe(800);  // bucket 9 (upper 1000ms)
  HistogramData data = h.Data();
  EXPECT_DOUBLE_EQ(data.ApproxQuantileMs(0.5), 1);
  EXPECT_DOUBLE_EQ(data.ApproxQuantileMs(0.99), 1000);
  EXPECT_DOUBLE_EQ(data.mean(), (90 * 0.5 + 10 * 800) / 100.0);
}

TEST(MetricsTest, HistogramMerge) {
  Histogram a, b;
  a.Observe(1);
  a.Observe(100);
  b.Observe(100);
  b.Observe(3000);
  HistogramData merged = a.Data();
  merged.Merge(b.Data());
  EXPECT_EQ(merged.count, 4u);
  EXPECT_DOUBLE_EQ(merged.sum, 1 + 100 + 100 + 3000);
  EXPECT_EQ(merged.buckets[0], 1u);
  EXPECT_EQ(merged.buckets[6], 2u);   // 100ms bucket, both sides
  EXPECT_EQ(merged.buckets[11], 1u);  // 3000ms lands in <= 5000ms
}

TEST(MetricsTest, RegistryReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("test.counter");
  Counter* c2 = registry.GetCounter("test.counter");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);  // same instrument on re-registration
  c1->Add(3);
  EXPECT_EQ(c2->value(), 3u);

  // A name registers as exactly one kind.
  EXPECT_EQ(registry.GetGauge("test.counter"), nullptr);
  EXPECT_EQ(registry.GetHistogram("test.counter"), nullptr);
  ASSERT_NE(registry.GetGauge("test.gauge"), nullptr);
  EXPECT_EQ(registry.GetCounter("test.gauge"), nullptr);

  // Reset zeroes values but keeps handles valid.
  registry.Reset();
  EXPECT_EQ(c1->value(), 0u);
  c1->Add(1);
  EXPECT_EQ(registry.Snapshot().counters.at("test.counter"), 1u);
}

TEST(MetricsTest, SnapshotMergeSemantics) {
  MetricsRegistry a, b;
  a.GetCounter("c")->Add(2);
  b.GetCounter("c")->Add(5);
  a.GetGauge("g")->Set(1.0);
  b.GetGauge("g")->Set(7.0);
  a.GetHistogram("h")->Observe(10);
  b.GetHistogram("h")->Observe(20);
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7u);     // counters add
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 7.0);  // gauges last-wins
  EXPECT_EQ(merged.histograms.at("h").count, 2u);
}

TEST(MetricsTest, FastPathDoesNotAllocate) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("alloc.test.counter");
  Histogram* histogram = registry.GetHistogram("alloc.test.histogram");
  Gauge* gauge = registry.GetGauge("alloc.test.gauge");
  ASSERT_NE(counter, nullptr);
  ASSERT_NE(histogram, nullptr);
  ASSERT_NE(gauge, nullptr);
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    counter->Add(1);
    gauge->Set(static_cast<double>(i));
    histogram->Observe(static_cast<double>(i % 97));
  }
  const uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(counter->value(), 10000u);
  EXPECT_EQ(histogram->count(), 10000u);
}

TEST(MetricsTest, DefaultRegistryHoldsBuiltInInstruments) {
  // Touching a built-in accessor name must round-trip through the
  // process-wide registry (instrumented modules register lazily, so only
  // assert the registry serves the name consistently).
  Counter* c = MetricsRegistry::Default().GetCounter("griddb.test.probe");
  ASSERT_NE(c, nullptr);
  c->Add(1);
  EXPECT_GE(MetricsRegistry::Default().Snapshot().counters.at(
                "griddb.test.probe"),
            1u);
}

TEST(TraceTest, DisabledTracerIsInert) {
  Tracer tracer;  // disabled by default
  Span span = tracer.StartSpan("noop");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  span.AddAttr("k", "v");
  span.SetError("ignored");
  span.End();
  EXPECT_EQ(tracer.finished_count(), 0u);
  EXPECT_FALSE(tracer.CurrentContext().valid());
}

TEST(TraceTest, SeededIdsAreDeterministic) {
  auto run = [](uint64_t seed) {
    Tracer tracer(seed);
    tracer.set_enabled(true);
    std::vector<uint64_t> ids;
    {
      Span root = tracer.StartSpan("root");
      Span child = tracer.StartSpan("child");
      ids.push_back(root.context().trace_id);
      ids.push_back(root.context().span_id);
      ids.push_back(child.context().span_id);
    }
    return ids;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(TraceTest, ImplicitNestingRecordsParentage) {
  Tracer tracer(100);
  tracer.set_enabled(true);
  uint64_t root_span = 0, child_span = 0;
  {
    Span root = tracer.StartSpan("query");
    root_span = root.context().span_id;
    {
      Span child = tracer.StartSpan("plan");
      child_span = child.context().span_id;
      EXPECT_EQ(child.context().trace_id, root.context().trace_id);
    }
    // After the child ends the root is innermost again.
    EXPECT_EQ(tracer.CurrentContext().span_id, root_span);
  }
  std::vector<SpanRecord> finished = tracer.Finished();
  ASSERT_EQ(finished.size(), 2u);  // child finishes first
  EXPECT_EQ(finished[0].name, "plan");
  EXPECT_EQ(finished[0].parent_span_id, root_span);
  EXPECT_EQ(finished[1].name, "query");
  EXPECT_EQ(finished[1].parent_span_id, 0u);
  EXPECT_EQ(finished[0].span_id, child_span);
}

TEST(TraceTest, TracersDoNotCrossParent) {
  // Two tracers on one thread (a client and a server sharing the
  // simulated network's call stack): the server's span must not parent
  // into the client's live span implicitly.
  Tracer client(1), server(1000);
  client.set_enabled(true);
  server.set_enabled(true);
  Span outer = client.StartSpan("client.call");
  Span inner = server.StartSpan("server.handle");
  EXPECT_NE(inner.context().trace_id, outer.context().trace_id);
  inner.End();
  // The client's span is still innermost for its own tracer.
  EXPECT_EQ(client.CurrentContext().span_id, outer.context().span_id);
  outer.End();
  ASSERT_EQ(server.Finished().size(), 1u);
  EXPECT_EQ(server.Finished()[0].parent_span_id, 0u);
}

TEST(TraceTest, CrossThreadParentingViaExplicitContext) {
  Tracer tracer(7);
  tracer.set_enabled(true);
  Span root = tracer.StartSpan("fanout");
  const SpanContext parent = tracer.CurrentContext();
  constexpr int kWorkers = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&tracer, parent] {
      Span child = tracer.StartSpanUnder("subquery", parent);
      EXPECT_TRUE(child.active());
      child.AddAttr("worker", "x");
    });
  }
  for (auto& t : threads) t.join();
  root.End();
  std::vector<SpanRecord> finished = tracer.Finished();
  ASSERT_EQ(finished.size(), kWorkers + 1u);
  std::vector<uint64_t> seen_ids;
  for (const SpanRecord& record : finished) {
    EXPECT_EQ(record.trace_id, parent.trace_id);
    if (record.name == "subquery") {
      EXPECT_EQ(record.parent_span_id, parent.span_id);
    }
    seen_ids.push_back(record.span_id);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::adjacent_find(seen_ids.begin(), seen_ids.end()),
            seen_ids.end())
      << "span ids must be unique across threads";
}

TEST(TraceTest, ImportAndTakeTraceRoundTrip) {
  Tracer local(5), remote(500);
  local.set_enabled(true);
  remote.set_enabled(true);

  Span root = local.StartSpan("dataaccess.forward");
  const SpanContext wire = root.context();

  // Remote continues the trace from the wire context, does work, and
  // ships the finished subtree back.
  {
    Span handler = remote.StartSpanUnder("dataaccess.query.remote", wire);
    Span nested = remote.StartSpan("unity.plan");
  }
  std::vector<SpanRecord> shipped = remote.TakeTrace(wire.trace_id);
  ASSERT_EQ(shipped.size(), 2u);
  EXPECT_EQ(remote.finished_count(), 0u);  // TakeTrace is destructive
  // A second take (a client retry) returns nothing — no duplicates.
  EXPECT_TRUE(remote.TakeTrace(wire.trace_id).empty());

  for (SpanRecord& record : shipped) local.Import(std::move(record));
  root.End();

  std::vector<SpanRecord> all = local.Finished();
  ASSERT_EQ(all.size(), 3u);
  for (const SpanRecord& record : all) {
    EXPECT_EQ(record.trace_id, wire.trace_id);
  }
  std::string tree = local.FormatTrace(wire.trace_id);
  EXPECT_NE(tree.find("dataaccess.forward"), std::string::npos);
  EXPECT_NE(tree.find("dataaccess.query.remote"), std::string::npos);
  EXPECT_NE(tree.find("unity.plan"), std::string::npos);
  // The remote handler renders as a child (indented under the root).
  EXPECT_LT(tree.find("dataaccess.forward"),
            tree.find("dataaccess.query.remote"));
}

TEST(TraceTest, TakeTraceLeavesOtherTracesIntact) {
  Tracer tracer(9);
  tracer.set_enabled(true);
  uint64_t first_trace = 0;
  {
    Span a = tracer.StartSpan("a");
    first_trace = a.context().trace_id;
  }
  {
    Span b = tracer.StartSpan("b");
  }
  ASSERT_EQ(tracer.finished_count(), 2u);
  std::vector<SpanRecord> taken = tracer.TakeTrace(first_trace);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].name, "a");
  ASSERT_EQ(tracer.finished_count(), 1u);
  EXPECT_EQ(tracer.Finished()[0].name, "b");
}

TEST(TraceTest, FinishedBufferEvictsOldest) {
  Tracer tracer(11);
  tracer.set_enabled(true);
  constexpr size_t kSpans = 9000;  // past the 8192 cap
  for (size_t i = 0; i < kSpans; ++i) {
    Span span = tracer.StartSpan("tick");
    span.End();
  }
  EXPECT_EQ(tracer.finished_count(), 8192u);
  EXPECT_EQ(tracer.dropped_count(), kSpans - 8192u);
  tracer.Clear();
  EXPECT_EQ(tracer.finished_count(), 0u);
  EXPECT_EQ(tracer.dropped_count(), 0u);
}

TEST(TraceTest, InjectedClockStampsSpans) {
  // A span reads the cost ledger it is opened on, at start and at end.
  griddb::net::Cost ledger(100.0);
  Tracer tracer(13);
  tracer.set_enabled(true);
  Span span = tracer.StartSpan("timed", &ledger);
  ledger.AddMs(42.5);
  span.End();
  ASSERT_EQ(tracer.finished_count(), 1u);
  const SpanRecord record = tracer.Finished()[0];
  EXPECT_DOUBLE_EQ(record.start_ms, 100);
  EXPECT_DOUBLE_EQ(record.duration_ms, 42.5);
}

TEST(TraceTest, LedgerWithoutDeadlineAllocatesNothing) {
  // Spans read query ledgers, and every untraced, deadline-free query
  // forks, charges, checks and joins them: that path must stay free.
  griddb::net::Cost query;
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    griddb::net::Cost branch = query.Fork();
    branch.AddMs(0.5);
    EXPECT_TRUE(branch.cancel().Check().ok());
    query.AddSequential(branch);
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_DOUBLE_EQ(query.total_ms(), 500.0);
  EXPECT_FALSE(query.cancel().active());
}

TEST(TraceTest, ErrorAndAttrsSurviveToRecordAndRendering) {
  Tracer tracer(17);
  tracer.set_enabled(true);
  uint64_t trace_id = 0;
  {
    Span span = tracer.StartSpan("rpc.call");
    trace_id = span.context().trace_id;
    span.AddAttr("method", "dataaccess.query");
    span.SetError("Unavailable: host down");
  }
  const SpanRecord record = tracer.Finished()[0];
  EXPECT_TRUE(record.error);
  EXPECT_EQ(record.note, "Unavailable: host down");
  ASSERT_EQ(record.attrs.size(), 1u);
  EXPECT_EQ(record.attrs[0].first, "method");
  std::string tree = tracer.FormatTrace(trace_id);
  EXPECT_NE(tree.find("ERROR(Unavailable: host down)"), std::string::npos);
  EXPECT_NE(tree.find("method=dataaccess.query"), std::string::npos);
}

}  // namespace
}  // namespace griddb::obs
