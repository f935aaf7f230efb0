// Unit + integration tests for the observability subsystem: histogram
// quantile math, label-set instrument identity, clock-driven tracing,
// concurrent counters, exposition formats, and the per-query profile
// ExecuteQuery attaches to its result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "engine/session.h"
#include "obs/dc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

namespace eon {
namespace obs {
namespace {

// --- Histogram bucket / quantile math ------------------------------------

TEST(HistogramTest, BucketAssignment) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h", LabelSet(), {10, 20, 30});
  h->Observe(5);    // bucket 0 (<=10)
  h->Observe(10);   // bucket 0 (inclusive upper bound)
  h->Observe(15);   // bucket 1
  h->Observe(30);   // bucket 2
  h->Observe(100);  // overflow
  HistogramSnapshot s = h->Snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 160.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 32.0);
}

TEST(HistogramTest, QuantilesOfUniformDistribution) {
  MetricsRegistry reg;
  // 100 buckets of width 10 over [0, 1000); observe 0..999 uniformly.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(i * 10.0);
  Histogram* h = reg.GetHistogram("u", LabelSet(), bounds);
  for (int v = 0; v < 1000; ++v) h->Observe(v);
  HistogramSnapshot s = h->Snapshot();
  // Linear interpolation in 10-wide buckets: within one bucket width.
  EXPECT_NEAR(s.P50(), 500.0, 10.0);
  EXPECT_NEAR(s.P95(), 950.0, 10.0);
  EXPECT_NEAR(s.P99(), 990.0, 10.0);
  EXPECT_NEAR(s.Quantile(0.25), 250.0, 10.0);
}

TEST(HistogramTest, QuantilesOfPointMass) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("p", LabelSet(), {100, 200, 300});
  // All mass in the (100, 200] bucket: every quantile interpolates inside.
  for (int i = 0; i < 50; ++i) h->Observe(150);
  HistogramSnapshot s = h->Snapshot();
  EXPECT_GT(s.P50(), 100.0);
  EXPECT_LE(s.P50(), 200.0);
  EXPECT_GT(s.P99(), 100.0);
  EXPECT_LE(s.P99(), 200.0);
}

TEST(HistogramTest, OverflowClampsToHighestFiniteBound) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("o", LabelSet(), {10, 20});
  for (int i = 0; i < 10; ++i) h->Observe(1e9);  // All overflow.
  EXPECT_DOUBLE_EQ(h->Snapshot().P50(), 20.0);
  EXPECT_DOUBLE_EQ(h->Snapshot().P99(), 20.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("e", LabelSet(), {1, 2});
  EXPECT_DOUBLE_EQ(h->Snapshot().P50(), 0.0);
  EXPECT_DOUBLE_EQ(h->Snapshot().P95(), 0.0);
  EXPECT_DOUBLE_EQ(h->Snapshot().P99(), 0.0);
  EXPECT_DOUBLE_EQ(h->Snapshot().Mean(), 0.0);
}

TEST(HistogramTest, MergeOfSnapshotsPreservesInvariants) {
  // Per-node histogram snapshots with identical bounds merge bucket-wise
  // (the system_metrics aggregation story). Verify the merged snapshot's
  // invariants: count/sum additive, mean = weighted mean, and every
  // quantile of the mixture is bracketed by the per-part quantiles.
  MetricsRegistry reg;
  const std::vector<double> bounds = {10, 20, 40, 80, 160};
  Histogram* a = reg.GetHistogram("merge_a", LabelSet(), bounds);
  Histogram* b = reg.GetHistogram("merge_b", LabelSet(), bounds);
  for (int i = 0; i < 100; ++i) a->Observe(i % 75);         // Low-skewed.
  for (int i = 0; i < 60; ++i) b->Observe(40 + i % 100);    // High-skewed.
  const HistogramSnapshot sa = a->Snapshot();
  const HistogramSnapshot sb = b->Snapshot();

  HistogramSnapshot merged;
  merged.bounds = sa.bounds;
  merged.counts.resize(sa.counts.size(), 0);
  ASSERT_EQ(sa.counts.size(), sb.counts.size());
  for (size_t i = 0; i < sa.counts.size(); ++i) {
    merged.counts[i] = sa.counts[i] + sb.counts[i];
  }
  merged.count = sa.count + sb.count;
  merged.sum = sa.sum + sb.sum;

  EXPECT_EQ(merged.count, 160u);
  EXPECT_DOUBLE_EQ(merged.Mean(),
                   (sa.sum + sb.sum) /
                       static_cast<double>(sa.count + sb.count));
  uint64_t bucket_total = 0;
  for (uint64_t c : merged.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, merged.count);
  for (double q : {0.25, 0.5, 0.9, 0.95, 0.99}) {
    const double lo = std::min(sa.Quantile(q), sb.Quantile(q));
    const double hi = std::max(sa.Quantile(q), sb.Quantile(q));
    EXPECT_GE(merged.Quantile(q), lo - 1e-9) << "q=" << q;
    EXPECT_LE(merged.Quantile(q), hi + 1e-9) << "q=" << q;
  }
  // Merging with an empty snapshot is the identity on every quantile.
  HistogramSnapshot empty;
  empty.bounds = sa.bounds;
  empty.counts.resize(sa.counts.size(), 0);
  HistogramSnapshot same = sa;
  same.count += empty.count;
  same.sum += empty.sum;
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(same.Quantile(q), sa.Quantile(q));
  }
}

// --- Label-set identity ---------------------------------------------------

TEST(LabelSetTest, OrderInsensitiveIdentity) {
  LabelSet a{{"node", "n1"}, {"op", "get"}};
  LabelSet b{{"op", "get"}, {"node", "n1"}};
  EXPECT_EQ(a.Key(), b.Key());
  EXPECT_TRUE(a == b);

  MetricsRegistry reg;
  Counter* ca = reg.GetCounter("c", a);
  Counter* cb = reg.GetCounter("c", b);
  EXPECT_EQ(ca, cb);  // Same (name, labels) = same instrument.
  ca->Increment(3);
  cb->Increment(2);
  EXPECT_EQ(ca->Value(), 5u);
}

TEST(LabelSetTest, DifferentLabelsDifferentInstruments) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("c", LabelSet{{"node", "n1"}});
  Counter* b = reg.GetCounter("c", LabelSet{{"node", "n2"}});
  Counter* c = reg.GetCounter("c");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  a->Increment(1);
  b->Increment(2);
  c->Increment(4);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Value("c", LabelSet{{"node", "n1"}}), 1.0);
  EXPECT_DOUBLE_EQ(snap.Value("c", LabelSet{{"node", "n2"}}), 2.0);
  EXPECT_DOUBLE_EQ(snap.Value("c"), 4.0);
  EXPECT_DOUBLE_EQ(snap.SumAcrossLabels("c"), 7.0);
}

TEST(LabelSetTest, DuplicateKeysLastWriterWins) {
  LabelSet dup{{"k", "old"}, {"k", "new"}};
  EXPECT_EQ(dup.Key(), "k=new");
}

// --- Registry snapshot / delta -------------------------------------------

TEST(RegistryTest, SnapshotDeltaIsolatesOneOperation) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("work_total");
  c->Increment(100);  // Prior accumulated work.
  MetricsSnapshot before = reg.Snapshot();
  c->Increment(7);  // The operation under test.
  MetricsSnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_DOUBLE_EQ(delta.Value("work_total"), 7.0);
}

TEST(RegistryTest, ResetForTestZeroesInPlace) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Gauge* g = reg.GetGauge("g");
  Histogram* h = reg.GetHistogram("h", LabelSet(), {1, 2});
  c->Increment(5);
  g->Set(9);
  h->Observe(1.5);
  reg.ResetForTest();
  EXPECT_EQ(c->Value(), 0u);  // Same pointer, zeroed value.
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
}

// --- Concurrent counters --------------------------------------------------

TEST(RegistryTest, ConcurrentCounterIncrements) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve through the registry in-thread: exercises the lock path
      // too, not just the atomic add.
      Counter* c = reg.GetCounter("concurrent_total");
      Histogram* h =
          reg.GetHistogram("concurrent_micros", LabelSet(), {10, 100, 1000});
      for (int i = 0; i < kIncrements; ++i) {
        c->Increment();
        h->Observe(static_cast<double>(i % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("concurrent_total")->Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(reg.GetHistogram("concurrent_micros")->Count(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

// --- Tracing under SimClock ----------------------------------------------

TEST(TracerTest, NestedSpansDeterministicUnderSimClock) {
  SimClock clock;
  Tracer tracer(&clock);
  {
    Span root = tracer.StartSpan("query");
    clock.AdvanceMicros(10);
    {
      Span child = tracer.StartSpan("scan", root);
      child.SetAttribute("table", "lineitem");
      child.SetAttribute("containers", int64_t{4});
      clock.AdvanceMicros(25);
    }  // child ends at t=35.
    clock.AdvanceMicros(5);
  }  // root ends at t=40.

  std::vector<SpanData> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Children finish before parents.
  const SpanData& child = spans[0];
  const SpanData& root = spans[1];
  EXPECT_EQ(child.name, "scan");
  EXPECT_EQ(root.name, "query");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.id);
  EXPECT_EQ(root.start_micros, 0);
  EXPECT_EQ(root.end_micros, 40);
  EXPECT_EQ(child.start_micros, 10);
  EXPECT_EQ(child.end_micros, 35);
  EXPECT_EQ(child.DurationMicros(), 25);
  ASSERT_EQ(child.attributes.size(), 2u);
  EXPECT_EQ(child.attributes[0].first, "table");
  EXPECT_EQ(child.attributes[0].second, "lineitem");
  EXPECT_EQ(child.attributes[1].second, "4");
}

TEST(TracerTest, EndIsIdempotentAndMoveSafe) {
  SimClock clock;
  Tracer tracer(&clock);
  Span a = tracer.StartSpan("a");
  clock.AdvanceMicros(7);
  a.End();
  clock.AdvanceMicros(100);
  a.End();  // No-op; duration stays 7.
  Span b = tracer.StartSpan("b");
  Span c = std::move(b);
  b.End();  // Moved-from span is inert.
  c.End();
  std::vector<SpanData> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].DurationMicros(), 7);
  EXPECT_EQ(tracer.finished_count(), 2u);
}

TEST(TracerTest, FinishedBufferBounded) {
  SimClock clock;
  Tracer tracer(&clock, /*max_finished_spans=*/4);
  for (int i = 0; i < 10; ++i) tracer.StartSpan("s" + std::to_string(i));
  EXPECT_EQ(tracer.FinishedSpans().size(), 4u);
  EXPECT_EQ(tracer.finished_count(), 10u);
  // Oldest dropped: the survivors are the last four.
  EXPECT_EQ(tracer.FinishedSpans().front().name, "s6");
}

TEST(TracerTest, DroppedSpansCountedAndSurfacedInRegistry) {
  SimClock clock;
  MetricsRegistry reg;
  Tracer tracer(&clock, /*max_finished_spans=*/3, &reg);
  for (int i = 0; i < 8; ++i) tracer.StartSpan("s");
  EXPECT_EQ(tracer.spans_dropped(), 5u);
  EXPECT_EQ(tracer.finished_count(), 8u);
  EXPECT_EQ(tracer.FinishedSpans().size(), 3u);
  // The drop counter is mirrored into the registry so exports surface it.
  EXPECT_DOUBLE_EQ(reg.Snapshot().Value("eon_tracer_spans_dropped_total"),
                   5.0);
  // Clear resets the local drop counter; the registry stays monotone.
  tracer.Clear();
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  tracer.StartSpan("t");
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  EXPECT_DOUBLE_EQ(reg.Snapshot().Value("eon_tracer_spans_dropped_total"),
                   5.0);
}

// --- Exposition formats ---------------------------------------------------

TEST(ExportTest, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.GetCounter("eon_test_total", LabelSet{{"node", "n1"}})->Increment(3);
  reg.GetGauge("eon_test_gauge")->Set(-2);
  Histogram* h = reg.GetHistogram("eon_test_micros", LabelSet(), {10, 20});
  h->Observe(5);
  h->Observe(15);
  h->Observe(999);
  std::string text = ExportPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE eon_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("eon_test_total{node=\"n1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("eon_test_gauge -2"), std::string::npos);
  // Cumulative buckets: le="20" covers both finite observations.
  EXPECT_NE(text.find("eon_test_micros_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("eon_test_micros_bucket{le=\"20\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("eon_test_micros_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("eon_test_micros_count 3"), std::string::npos);
}

TEST(ExportTest, JsonContainsSamples) {
  MetricsRegistry reg;
  reg.GetCounter("eon_json_total")->Increment(42);
  std::string json = ExportJson(reg.Snapshot()).Dump();
  EXPECT_NE(json.find("eon_json_total"), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
}

// --- Prometheus exposition grammar ---------------------------------------

// Validators for the text exposition format 0.0.4: every line is either a
// `# TYPE <name> <kind>` comment or `<name>[{k="v",...}] <value>`.

bool IsValidMetricName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  if (!head(s[0])) return false;
  for (char c : s) {
    if (!head(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

bool IsValidValue(const std::string& s) {
  if (s == "+Inf" || s == "-Inf" || s == "NaN") return true;
  if (s.empty()) return false;
  char* end = nullptr;
  (void)strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

// Parses one sample line into (name, labels-as-text, value); returns false
// with a diagnostic on any grammar violation.
bool ParseSampleLine(const std::string& line, std::string* name,
                     std::string* value, std::string* error) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') i++;
  *name = line.substr(0, i);
  if (!IsValidMetricName(*name)) {
    *error = "bad metric name: " + *name;
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    i++;  // Consume '{'.
    while (i < line.size() && line[i] != '}') {
      size_t eq = line.find('=', i);
      if (eq == std::string::npos) {
        *error = "label without '='";
        return false;
      }
      if (!IsValidMetricName(line.substr(i, eq - i))) {
        *error = "bad label name: " + line.substr(i, eq - i);
        return false;
      }
      if (eq + 1 >= line.size() || line[eq + 1] != '"') {
        *error = "label value not quoted";
        return false;
      }
      size_t close = line.find('"', eq + 2);
      if (close == std::string::npos) {
        *error = "unterminated label value";
        return false;
      }
      i = close + 1;
      if (i < line.size() && line[i] == ',') i++;
    }
    if (i >= line.size() || line[i] != '}') {
      *error = "unterminated label set";
      return false;
    }
    i++;  // Consume '}'.
  }
  if (i >= line.size() || line[i] != ' ') {
    *error = "missing space before value";
    return false;
  }
  *value = line.substr(i + 1);
  if (!IsValidValue(*value)) {
    *error = "bad value: " + *value;
    return false;
  }
  return true;
}

TEST(ExportTest, PrometheusExpositionLineGrammar) {
  MetricsRegistry reg;
  reg.GetCounter("app_requests_total",
                 LabelSet{{"node", "n1"}, {"op", "get"}})
      ->Increment(7);
  reg.GetCounter("app_requests_total",
                 LabelSet{{"node", "n2"}, {"op", "put"}})
      ->Increment(2);
  reg.GetGauge("app_queue_depth")->Set(-5);
  Histogram* h = reg.GetHistogram("app_latency_micros",
                                  LabelSet{{"node", "n1"}}, {10, 20, 40});
  h->Observe(3);
  h->Observe(15);
  h->Observe(0.5);  // Non-integral sum exercises the %g formatting path.
  h->Observe(1e9);
  const std::string text = ExportPrometheusText(reg.Snapshot());

  std::istringstream lines(text);
  std::string line;
  std::string type_name, type_kind;
  int samples = 0, types = 0;
  uint64_t prev_bucket = 0;
  double inf_bucket = -1, hist_count = -1;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      ASSERT_TRUE(static_cast<bool>(fields >> type_name >> type_kind))
          << line;
      EXPECT_TRUE(IsValidMetricName(type_name)) << line;
      EXPECT_TRUE(type_kind == "counter" || type_kind == "gauge" ||
                  type_kind == "histogram")
          << line;
      std::string rest;
      EXPECT_FALSE(static_cast<bool>(fields >> rest)) << "trailing: " << line;
      types++;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;
    std::string name, value, error;
    ASSERT_TRUE(ParseSampleLine(line, &name, &value, &error))
        << error << " in: " << line;
    samples++;
    // Every sample belongs to the most recently declared family; histogram
    // samples use the _bucket/_sum/_count suffixes.
    if (type_kind == "histogram") {
      EXPECT_TRUE(name == type_name + "_bucket" ||
                  name == type_name + "_sum" || name == type_name + "_count")
          << line;
      if (name == type_name + "_bucket") {
        ASSERT_NE(line.find("le=\""), std::string::npos) << line;
        const uint64_t cum = static_cast<uint64_t>(std::stod(value));
        EXPECT_GE(cum, prev_bucket) << "non-monotone buckets: " << line;
        prev_bucket = cum;
        if (line.find("le=\"+Inf\"") != std::string::npos) {
          inf_bucket = static_cast<double>(cum);
        }
      }
      if (name == type_name + "_count") hist_count = std::stod(value);
    } else {
      EXPECT_EQ(name, type_name) << line;
      if (type_kind == "counter") {
        EXPECT_GE(std::stod(value), 0.0) << "negative counter: " << line;
      }
    }
  }
  EXPECT_EQ(types, 3);
  // 2 counter samples + 1 gauge + (4 buckets + sum + count) = 9.
  EXPECT_EQ(samples, 9);
  // The +Inf bucket equals the histogram's total count.
  EXPECT_EQ(inf_bucket, 4.0);
  EXPECT_EQ(hist_count, inf_bucket);
}

TEST(ExportTest, PrometheusGoldenOutput) {
  // Exact golden rendering of a small deterministic registry: catches any
  // regression in name/label/value formatting or family grouping.
  MetricsRegistry reg;
  reg.GetCounter("app_requests_total", LabelSet{{"node", "n1"}})
      ->Increment(3);
  reg.GetGauge("app_queue_depth")->Set(-2);
  Histogram* h = reg.GetHistogram("app_latency_micros", LabelSet(), {10, 20});
  h->Observe(5);
  h->Observe(15);
  h->Observe(999);
  const std::string kGolden =
      "# TYPE app_latency_micros histogram\n"
      "app_latency_micros_bucket{le=\"10\"} 1\n"
      "app_latency_micros_bucket{le=\"20\"} 2\n"
      "app_latency_micros_bucket{le=\"+Inf\"} 3\n"
      "app_latency_micros_sum 1019\n"
      "app_latency_micros_count 3\n"
      "# TYPE app_queue_depth gauge\n"
      "app_queue_depth -2\n"
      "# TYPE app_requests_total counter\n"
      "app_requests_total{node=\"n1\"} 3\n";
  EXPECT_EQ(ExportPrometheusText(reg.Snapshot()), kGolden);
}

// --- Data Collector rings -------------------------------------------------

TEST(DataCollectorTest, RingWrapDropsOldestAndCounts) {
  SimClock clock;
  DataCollectorOptions opts;
  opts.query_ring = 4;
  DataCollector dc("node1", &clock, opts);
  for (int i = 0; i < 10; ++i) {
    DcQueryExecution e;
    e.query_id = static_cast<uint64_t>(i);
    e.table = "t";
    e.sim_micros = 1;  // Below any slow threshold: profile cleared.
    dc.RecordQuery(std::move(e));
  }
  std::vector<DcQueryExecution> rows = dc.QueryExecutions();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows.front().query_id, 6u);  // Oldest dropped first.
  EXPECT_EQ(rows.back().query_id, 9u);
  EXPECT_EQ(dc.query_counters().total, 10u);
  EXPECT_EQ(dc.query_counters().dropped, 6u);
  dc.Clear();
  EXPECT_TRUE(dc.QueryExecutions().empty());
  EXPECT_EQ(dc.query_counters().total, 0u);
}

TEST(DataCollectorTest, SlowQueryThresholdRetainsProfile) {
  SimClock clock;
  DataCollectorOptions opts;
  opts.slow_query_micros = 1000;
  DataCollector dc("node1", &clock, opts);

  DcQueryExecution fast;
  fast.table = "t";
  fast.sim_micros = 999;
  fast.profile.rows_scanned_total = 123;
  dc.RecordQuery(std::move(fast));

  DcQueryExecution slow;
  slow.table = "t";
  slow.sim_micros = 1000;  // At threshold: slow.
  slow.profile.rows_scanned_total = 456;
  dc.RecordQuery(std::move(slow));

  std::vector<DcQueryExecution> rows = dc.QueryExecutions();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].slow);
  EXPECT_EQ(rows[0].profile.rows_scanned_total, 0u);  // Dropped when fast.
  EXPECT_TRUE(rows[1].slow);
  EXPECT_EQ(rows[1].profile.rows_scanned_total, 456u);  // Kept when slow.
}

TEST(DataCollectorTest, ConcurrentProducersAndSnapshots) {
  // Producers hammer every ring while readers snapshot: the race-labeled
  // suite runs this under TSan (scripts/tsan.sh).
  SimClock clock;
  DataCollectorOptions opts;
  opts.cache_ring = 64;
  opts.store_ring = 64;
  DataCollector dc("node1", &clock, opts);
  constexpr int kProducers = 4;
  constexpr int kEvents = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kProducers; ++t) {
    threads.emplace_back([&dc, t] {
      for (int i = 0; i < kEvents; ++i) {
        DcCacheEvent ce;
        ce.kind = DcCacheEvent::Kind::kMissFill;
        ce.key = "k" + std::to_string(i);
        ce.bytes = 10;
        dc.RecordCacheEvent(std::move(ce));
        DcStoreRequest sr;
        sr.op = (t % 2 == 0) ? "get" : "put";
        sr.bytes = 100;
        dc.RecordStoreRequest(std::move(sr));
      }
    });
  }
  // Reader: repeatedly snapshot while producers run.
  uint64_t observed = 0;
  for (int i = 0; i < 200; ++i) {
    observed += dc.CacheEvents().size() + dc.StoreRequests().size();
    (void)dc.cache_counters();
  }
  for (std::thread& t : threads) t.join();
  (void)observed;
  EXPECT_EQ(dc.cache_counters().total,
            static_cast<uint64_t>(kProducers) * kEvents);
  EXPECT_EQ(dc.store_counters().total,
            static_cast<uint64_t>(kProducers) * kEvents);
  EXPECT_EQ(dc.CacheEvents().size(), 64u);
  EXPECT_EQ(dc.cache_counters().dropped,
            static_cast<uint64_t>(kProducers) * kEvents - 64);
}

// --- Object-store reset + registry mirroring ------------------------------

TEST(StoreMetricsTest, ResetForTestZeroesInstanceNotRegistry) {
  SimClock clock;
  SimStoreOptions opts;
  opts.get_latency_micros = 0;
  opts.put_latency_micros = 0;
  opts.list_latency_micros = 0;
  opts.metrics_name = "reset_test";
  // The registry is process-wide: count from its value before this test,
  // so the test also holds under --gtest_repeat.
  const LabelSet get_label{{"store", "reset_test"}, {"op", "get"}};
  const double gets_before = MetricsRegistry::Default()->Snapshot().Value(
      "eon_store_requests_total", get_label);
  SimObjectStore store(opts, &clock);
  ASSERT_TRUE(store.Put("k", "0123456789").ok());
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(store.metrics().puts, 1u);
  EXPECT_EQ(store.metrics().gets, 1u);

  store.ResetForTest();
  EXPECT_EQ(store.metrics().puts, 0u);
  EXPECT_EQ(store.metrics().gets, 0u);
  // Differential assertion via instance counters after reset.
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(store.metrics().gets, 1u);

  // The registry mirror stays monotone across the reset.
  MetricsSnapshot snap = MetricsRegistry::Default()->Snapshot();
  EXPECT_DOUBLE_EQ(
      snap.Value("eon_store_requests_total", get_label) - gets_before, 2.0);
}

// --- End-to-end: QueryProfile on a small TPC-H cluster --------------------

class ProfileIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;  // Keep the S3 latency model: sim time > 0.
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
    ClusterOptions copts;
    copts.num_shards = 3;
    copts.k_safety = 2;
    copts.node.cache.capacity_bytes = 64ULL << 20;
    auto cluster = EonCluster::Create(
        store_.get(), &clock_, copts,
        {NodeSpec{"node1", ""}, NodeSpec{"node2", ""}, NodeSpec{"node3", ""}});
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    topts_.scale = 0.1;
    ASSERT_TRUE(CreateTpchTables(cluster_.get()).ok());
    ASSERT_TRUE(LoadTpch(cluster_.get(), GenerateTpch(topts_), 256).ok());
    // Loading writes through the caches; drop them so the first query
    // below really reads from the simulated S3.
    for (const auto& n : cluster_->nodes()) n->cache()->Clear();
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
  TpchOptions topts_;
};

TEST_F(ProfileIntegrationTest, ExecuteQueryPopulatesProfile) {
  EonSession session(cluster_.get());
  QuerySpec dash = DashboardQuery(topts_);
  auto result = session.Execute(dash);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const QueryProfile& p = result->profile;
  EXPECT_GT(p.rows_scanned_total, 0u);
  EXPECT_FALSE(p.rows_scanned_by_node.empty());
  uint64_t by_node_sum = 0;
  for (const auto& [node, rows] : p.rows_scanned_by_node) by_node_sum += rows;
  EXPECT_EQ(by_node_sum, p.rows_scanned_total);
  EXPECT_GT(p.participating_nodes, 0u);
  EXPECT_LE(p.rows_scanned_by_node.size(), p.participating_nodes);
  EXPECT_GT(p.containers_total, 0u);
  // First execution reads cold caches through the simulated S3: misses,
  // fill bytes, GET requests, dollars and sim time all accounted.
  EXPECT_GT(p.cache_misses, 0u);
  EXPECT_GT(p.cache_fill_bytes, 0u);
  EXPECT_GT(p.store_gets, 0u);
  EXPECT_GT(p.store_bytes_read, 0u);
  EXPECT_GT(p.store_cost_microdollars, 0u);
  EXPECT_GT(p.Phase(QueryPhase::kScan).sim_micros, 0);
  EXPECT_GT(p.TotalSimMicros(), 0);
  EXPECT_GE(p.TotalWallMicros(), 0);
  // The dashboard query joins + aggregates: those phases ran (wall time
  // may round to 0 on fast machines, sim time on cached ops can be 0, but
  // the scan dominated sim time must appear in the total).
  EXPECT_GE(p.TotalSimMicros(), p.Phase(QueryPhase::kScan).sim_micros);

  // Warm second run: hits now, and strictly fewer store GETs.
  auto warm = session.Execute(dash);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->profile.cache_hits, 0u);
  EXPECT_LT(warm->profile.store_gets, p.store_gets);
  EXPECT_GT(warm->profile.CacheHitRate(), 0.9);

  // Text + JSON renderings carry the headline numbers.
  std::string text = warm->profile.ToText();
  EXPECT_NE(text.find("query profile"), std::string::npos);
  EXPECT_NE(text.find("cache:"), std::string::npos);
  std::string json = warm->profile.ToJson().Dump();
  EXPECT_NE(json.find("phases"), std::string::npos);
  EXPECT_NE(json.find("cache"), std::string::npos);
}

TEST_F(ProfileIntegrationTest, ProfileSeparatesPhases) {
  EonSession session(cluster_.get());
  // Plain scan with no join/aggregate: join + aggregate phases stay zero.
  QuerySpec scan;
  scan.scan.table = "customer";
  scan.scan.columns = {"c_name"};
  auto result = session.Execute(scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryProfile& p = result->profile;
  EXPECT_EQ(p.Phase(QueryPhase::kJoin).sim_micros, 0);
  EXPECT_EQ(p.Phase(QueryPhase::kAggregate).sim_micros, 0);
  EXPECT_GT(p.rows_scanned_total, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace eon
