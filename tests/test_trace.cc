// End-to-end tests for distributed query tracing: a forced trace through
// the serving layer yields one span tree covering session -> admission ->
// per-container morsels -> I/O -> merge -> serialize, queryable via
// dc_trace_spans and exportable as Chrome trace-event JSON; latency
// attribution sums to the root wall exactly at any pool width; sampling
// is a pure deterministic function of the trace id; results are
// bit-identical with tracing off, armed, or always-on; and a traced
// moveout's I/O-pool uploads, marker commits and log deletes stay under
// its trace, billed to the node that issued them. The concurrency
// test (traced queries on several wire clients racing dc_trace_spans
// scans) is part of the race-labeled suite scripts/tsan.sh runs under
// TSan.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "engine/sql.h"
#include "engine/system_tables.h"
#include "engine/trace.h"
#include "obs/dc.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

namespace eon {
namespace {

/// One self-contained cluster (own store, own clock) so tests can stand
/// up several tracing configurations side by side.
struct Fixture {
  SimClock clock;
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<EonCluster> cluster;
};

std::unique_ptr<Fixture> MakeFixture(double trace_sample, int exec_threads) {
  auto f = std::make_unique<Fixture>();
  SimStoreOptions sopts;  // Keep the S3 latency model: sim time > 0.
  f->store = std::make_unique<SimObjectStore>(sopts, &f->clock);
  ClusterOptions copts;
  copts.num_shards = 3;
  copts.k_safety = 2;
  copts.exec_threads = exec_threads;
  copts.trace_sample = trace_sample;
  copts.node.cache.capacity_bytes = 64ULL << 20;
  auto cluster = EonCluster::Create(
      f->store.get(), &f->clock, copts,
      {NodeSpec{"node1", ""}, NodeSpec{"node2", ""}, NodeSpec{"node3", ""}});
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  if (!cluster.ok()) return nullptr;
  f->cluster = std::move(cluster).value();
  TpchOptions topts;
  topts.scale = 0.05;
  EXPECT_TRUE(CreateTpchTables(f->cluster.get()).ok());
  EXPECT_TRUE(LoadTpch(f->cluster.get(), GenerateTpch(topts), 256).ok());
  return f;
}

Result<QueryResult> RunDirect(EonCluster* cluster, const std::string& sql,
                              uint64_t seed = 0) {
  EON_ASSIGN_OR_RETURN(
      QuerySpec spec,
      ParseSelect(*cluster->AnyUpNode()->catalog()->snapshot(), sql));
  EonSession session(cluster, "", seed);
  return session.Execute(spec);
}

std::multiset<std::string> SpanNames(const std::vector<obs::SpanData>& spans) {
  std::multiset<std::string> names;
  for (const obs::SpanData& s : spans) names.insert(s.name);
  return names;
}

std::string Attr(const obs::SpanData& span, const std::string& key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return v;
  }
  return "";
}

// --- The acceptance test: one forced trace, one complete span tree -------

class TraceTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(TraceTreeTest, ForcedTraceCoversSessionToMerge) {
  const int width = GetParam();
  auto f = MakeFixture(/*trace_sample=*/0.0, width);
  ASSERT_NE(f, nullptr);
  EonCluster* cluster = f->cluster.get();
  // Cold caches so the scan demand-fetches through the simulated S3 and
  // the tree gains cache_fetch I/O spans.
  for (const auto& n : cluster->nodes()) n->cache()->Clear();

  EonServer server(cluster);
  EonClient client(server.ConnectInProcess());
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.Set("trace", "on").ok());

  auto wire = client.Query(
      "SELECT l_returnflag, SUM(l_quantity) AS q, AVG(l_discount) AS d "
      "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_NE(wire->trace_id, 0u);

  std::vector<obs::SpanData> spans =
      CollectTraceSpans(cluster, wire->trace_id);
  ASSERT_FALSE(spans.empty());

  // Exactly one root ("session"), every span stamped with the trace id.
  size_t roots = 0;
  for (const obs::SpanData& s : spans) {
    EXPECT_EQ(s.trace_id, wire->trace_id);
    if (s.parent_id == 0) {
      ++roots;
      EXPECT_EQ(s.name, "session");
    }
  }
  EXPECT_EQ(roots, 1u);

  const std::multiset<std::string> names = SpanNames(spans);
  for (const char* expected :
       {"session", "admission_wait", "plan", "scan", "aggregate", "merge",
        "serialize", "morsel", "cache_fetch"}) {
    EXPECT_GE(names.count(expected), 1u) << "missing span: " << expected;
  }

  // >= 1 morsel span per scanned container, each attributed to a node;
  // all participating nodes show up.
  std::set<std::string> containers, morsel_nodes;
  for (const obs::SpanData& s : spans) {
    if (s.name != "morsel") continue;
    EXPECT_FALSE(s.node.empty());
    morsel_nodes.insert(s.node);
    const std::string container = Attr(s, "container");
    EXPECT_FALSE(container.empty());
    containers.insert(container);
  }
  EXPECT_GE(containers.size(), 1u);
  EXPECT_EQ(morsel_nodes.size(), wire->participating_nodes);

  std::string nest_error;
  EXPECT_TRUE(obs::SpansNest(spans, &nest_error)) << nest_error;

  // Queryable via SQL, filtered by trace id.
  auto sql_spans = RunDirect(
      cluster, "SELECT name, node, duration_micros FROM dc_trace_spans "
               "WHERE trace_id = " + std::to_string(wire->trace_id));
  ASSERT_TRUE(sql_spans.ok()) << sql_spans.status().ToString();
  EXPECT_EQ(sql_spans->rows.size(), spans.size());

  // Joinable with the query log: dc_query_executions carries the id.
  auto execs = RunDirect(
      cluster, "SELECT query_id FROM dc_query_executions WHERE trace_id = " +
               std::to_string(wire->trace_id));
  ASSERT_TRUE(execs.ok()) << execs.status().ToString();
  ASSERT_EQ(execs->rows.size(), 1u);

  // The wire export is valid Chrome trace-event JSON: a traceEvents
  // array of complete events that round-trips through the parser.
  auto exported = client.Trace(wire->trace_id);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  auto reparsed = JsonValue::Parse(exported->Dump());
  ASSERT_TRUE(reparsed.ok());
  const JsonValue& events = reparsed->Get("traceEvents");
  // Spans plus per-node thread_name metadata events.
  ASSERT_GT(events.size(), spans.size());
  size_t complete_events = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events.at(i).Get("ph").string_value() == "X") ++complete_events;
  }
  EXPECT_EQ(complete_events, spans.size());

  // Latency attribution: components sum to the root wall EXACTLY (other
  // absorbs inter-phase gaps), and the unattributed remainder stays
  // under 5% of wall at every pool width.
  const obs::TraceAttribution attr = obs::AttributeTrace(spans);
  EXPECT_GT(attr.wall_micros, 0);
  EXPECT_EQ(attr.SumMicros(), attr.wall_micros);
  EXPECT_LE(attr.other_micros, attr.wall_micros / 20)
      << "unattributed time above 5% at width " << width;
  EXPECT_EQ(attr.fetch_wait_micros + attr.scan_cpu_micros, attr.scan_micros);
  EXPECT_GE(attr.fetch_wait_micros, 0);
  EXPECT_FALSE(attr.critical_path.empty());
}

INSTANTIATE_TEST_SUITE_P(Widths, TraceTreeTest, ::testing::Values(1, 4));

// --- Sampling policy ------------------------------------------------------

TEST(TraceSampling, PureDeterministicHash) {
  // The decision is a pure function of the id: no clock, no RNG state.
  for (uint64_t i = 1; i <= 1000; ++i) {
    const uint64_t id = obs::NextTraceId();
    EXPECT_FALSE(obs::TraceSampled(id, 0.0));
    EXPECT_TRUE(obs::TraceSampled(id, 1.0));
    const bool first = obs::TraceSampled(id, 0.5);
    for (int r = 0; r < 3; ++r) EXPECT_EQ(obs::TraceSampled(id, 0.5), first);
  }
}

TEST(TraceSampling, RateRoughlyMatchesProbability) {
  int sampled = 0;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    if (obs::TraceSampled(obs::NextTraceId(), 0.25)) ++sampled;
  }
  EXPECT_GT(sampled, kTrials / 8);      // > 12.5%
  EXPECT_LT(sampled, kTrials * 3 / 8);  // < 37.5%
}

TEST(TraceSampling, DisabledClusterMintsNothing) {
  auto f = MakeFixture(ClusterOptions::kTraceDisabled, /*exec_threads=*/1);
  ASSERT_NE(f, nullptr);
  EXPECT_LT(f->cluster->trace_sample(), 0.0);
  auto result =
      RunDirect(f->cluster.get(), "SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->profile.trace_id, 0u);
  for (const auto& n : f->cluster->nodes()) {
    EXPECT_TRUE(n->dc()->TraceSpans().empty());
  }
}

TEST(TraceSampling, AlwaysOnRetainsEveryQuery) {
  auto f = MakeFixture(/*trace_sample=*/1.0, /*exec_threads=*/1);
  ASSERT_NE(f, nullptr);
  auto result =
      RunDirect(f->cluster.get(), "SELECT SUM(l_quantity) AS q FROM lineitem");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->profile.trace_id, 0u);
  const std::vector<obs::SpanData> spans =
      CollectTraceSpans(f->cluster.get(), result->profile.trace_id);
  ASSERT_FALSE(spans.empty());
  // Direct execution (no serving layer): the root is the "query" span.
  const std::multiset<std::string> names = SpanNames(spans);
  EXPECT_GE(names.count("query"), 1u);
  EXPECT_GE(names.count("scan"), 1u);
}

TEST(TraceSampling, ArmedModeRetainsSlowQueriesOnly) {
  auto f = MakeFixture(/*trace_sample=*/0.0, /*exec_threads=*/1);
  ASSERT_NE(f, nullptr);
  EonCluster* cluster = f->cluster.get();
  // Threshold above any query here: nothing retained.
  for (const auto& n : cluster->nodes()) {
    n->dc()->set_slow_query_micros(INT64_MAX / 2);
  }
  auto fast = RunDirect(cluster, "SELECT COUNT(*) AS n FROM orders");
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(
      CollectTraceSpans(cluster, fast->profile.trace_id).empty());

  // Threshold zero: every query is "slow" and is retained post-hoc.
  for (const auto& n : cluster->nodes()) n->dc()->set_slow_query_micros(0);
  auto slow = RunDirect(cluster, "SELECT COUNT(*) AS n FROM orders");
  ASSERT_TRUE(slow.ok());
  ASSERT_NE(slow->profile.trace_id, 0u);
  EXPECT_FALSE(
      CollectTraceSpans(cluster, slow->profile.trace_id).empty());
}

// --- Tracing never changes results ----------------------------------------

TEST(TraceDifferential, BitIdenticalResultsOffArmedAndSampled) {
  const std::string sql =
      "SELECT l_partkey, SUM(l_extendedprice) AS s, AVG(l_discount) AS a "
      "FROM lineitem GROUP BY l_partkey ORDER BY l_partkey LIMIT 50";
  for (int width : {1, 4}) {
    auto off = MakeFixture(ClusterOptions::kTraceDisabled, width);
    auto armed = MakeFixture(0.0, width);
    auto always = MakeFixture(1.0, width);
    ASSERT_NE(off, nullptr);
    ASSERT_NE(armed, nullptr);
    ASSERT_NE(always, nullptr);
    auto base = RunDirect(off->cluster.get(), sql, /*seed=*/7919);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    for (Fixture* other : {armed.get(), always.get()}) {
      auto got = RunDirect(other->cluster.get(), sql, /*seed=*/7919);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->rows.size(), base->rows.size()) << "width " << width;
      for (size_t r = 0; r < base->rows.size(); ++r) {
        ASSERT_EQ(got->rows[r].size(), base->rows[r].size());
        for (size_t c = 0; c < base->rows[r].size(); ++c) {
          EXPECT_EQ(got->rows[r][c], base->rows[r][c])
              << "width " << width << " row " << r << " col " << c;
        }
      }
    }
  }
}

// --- Attribution arithmetic on a synthetic tree ---------------------------

TEST(TraceAttribution, SyntheticTreeSumsExactly) {
  auto span = [](uint64_t id, uint64_t parent, const std::string& name,
                 int64_t start, int64_t end,
                 std::vector<std::pair<std::string, std::string>> attrs = {}) {
    obs::SpanData s;
    s.id = id;
    s.parent_id = parent;
    s.trace_id = 42;
    s.name = name;
    s.start_micros = start;
    s.end_micros = end;
    s.attributes = std::move(attrs);
    return s;
  };
  const std::vector<obs::SpanData> spans = {
      span(1, 0, "session", 0, 1000),
      span(2, 1, "admission_wait", 0, 100),
      span(3, 1, "plan", 100, 150),
      span(4, 1, "scan", 150, 700),
      span(5, 4, "morsel", 150, 650, {{"lane", "0"}}),
      span(6, 5, "cache_fetch", 200, 400),
      span(7, 4, "morsel", 150, 300, {{"lane", "1"}}),
      span(8, 1, "aggregate", 700, 800),
      span(9, 1, "merge", 800, 850),
      span(10, 1, "serialize", 900, 1000),
  };
  const obs::TraceAttribution attr = obs::AttributeTrace(spans);
  EXPECT_EQ(attr.wall_micros, 1000);
  EXPECT_EQ(attr.queued_micros, 100);
  EXPECT_EQ(attr.plan_micros, 50);
  EXPECT_EQ(attr.scan_micros, 550);
  // Lane 0 is the busiest (500 vs 150); its cache_fetch child is charged.
  EXPECT_EQ(attr.fetch_wait_micros, 200);
  EXPECT_EQ(attr.scan_cpu_micros, 350);
  EXPECT_EQ(attr.aggregate_micros, 100);
  EXPECT_EQ(attr.merge_micros, 50);
  EXPECT_EQ(attr.serialize_micros, 100);
  EXPECT_EQ(attr.other_micros, 50);  // The 850..900 inter-phase gap.
  EXPECT_EQ(attr.SumMicros(), attr.wall_micros);
  std::string err;
  EXPECT_TRUE(obs::SpansNest(spans, &err)) << err;
}

// --- Moveout: fanned-out store requests stay under the trace -------------

TEST(TraceMoveout, FannedOutRequestsCarryTraceAndWritingNode) {
  SimClock clock;
  SimObjectStore store(SimStoreOptions{}, &clock);
  ClusterOptions copts;
  copts.num_shards = 2;
  copts.k_safety = 2;
  copts.io_threads = 4;
  copts.wos = 1;
  copts.group_commit_micros = 0;
  copts.wos_flush_rows = int64_t{1} << 40;  // Moveout only when asked.
  const std::vector<std::string> names = {"node1", "node2", "node3"};
  std::vector<NodeSpec> specs;
  for (const std::string& name : names) specs.push_back(NodeSpec{name, ""});
  auto created = EonCluster::Create(&store, &clock, copts, specs);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EonCluster* cluster = created->get();
  Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  ASSERT_TRUE(CreateTable(cluster, "t", schema, std::nullopt,
                          {ProjectionSpec{"t_super", {}, {"id"}, {"id"}}})
                  .ok());
  // Two writing nodes, each with a multi-part log to truncate.
  for (const std::string& node : {"node1", "node2"}) {
    InsertOptions iopts;
    iopts.connected_node = node;
    for (int64_t batch = 0; batch < 6; ++batch) {
      std::vector<Row> rows;
      for (int64_t i = 0; i < 5; ++i) {
        rows.push_back(Row{Value::Int(batch * 5 + i), Value::Dbl(0.5)});
      }
      ASSERT_TRUE(InsertInto(cluster, "t", rows, iopts).ok());
    }
  }

  auto tracer = std::make_shared<obs::Tracer>(&clock);
  obs::TraceContext context;
  context.tracer = tracer;
  context.trace_id = obs::NextTraceId();
  tracer->set_trace_id(context.trace_id);
  {
    obs::TraceScope scope(context);
    auto moved = MoveoutWos(cluster, "t");
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(*moved, 60u);
  }

  const std::set<std::string> node_set(names.begin(), names.end());
  int data_puts = 0;
  std::map<std::string, int> wal_puts, wal_deletes;
  for (const obs::DcStoreRequest& r :
       obs::DataCollector::Default()->StoreRequests()) {
    if (r.trace_id != context.trace_id) continue;
    if (r.op == "put" && r.key.rfind("data/", 0) == 0) {
      ++data_puts;
      EXPECT_EQ(node_set.count(r.node), 1u) << r.key << " billed to '"
                                            << r.node << "'";
      continue;
    }
    for (const std::string& node : names) {
      if (r.key.rfind("wal/" + node + "/", 0) != 0) continue;
      EXPECT_EQ(r.node, node) << r.op << " " << r.key;
      if (r.op == "put") wal_puts[node]++;
      if (r.op == "delete") wal_deletes[node]++;
    }
  }
  EXPECT_EQ(data_puts, 2);  // Two shard containers, one object each.
  for (const std::string& node : {"node1", "node2"}) {
    EXPECT_GE(wal_puts[node], 2) << node;     // Flush marker + checkpoint.
    EXPECT_GE(wal_deletes[node], 6) << node;  // Every insert's part.
  }

  // Truncation has its own spans, one per writing node.
  int truncations = 0;
  for (const obs::SpanData& span : tracer->FinishedSpans()) {
    if (span.name != "wal_truncate") continue;
    ++truncations;
    EXPECT_GE(std::stoi(Attr(span, "parts_listed")), 7);
    EXPECT_GE(std::stoi(Attr(span, "parts_deleted")), 7);
    EXPECT_GE(std::stoi(Attr(span, "lanes")), 2);
    EXPECT_TRUE(span.node == "node1" || span.node == "node2") << span.node;
  }
  EXPECT_EQ(truncations, 2);
}

// --- Concurrency: producers vs dc_trace_spans readers (TSan target) -------

TEST(TraceRace, TracedQueriesRaceSpanScans) {
  auto f = MakeFixture(/*trace_sample=*/1.0, /*exec_threads=*/4);
  ASSERT_NE(f, nullptr);
  EonCluster* cluster = f->cluster.get();
  EonServer server(cluster);

  constexpr int kProducers = 3;
  constexpr int kQueriesEach = 4;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&server, t] {
      EonClient client(server.ConnectInProcess());
      ASSERT_TRUE(client.Hello().ok());
      ASSERT_TRUE(client.Set("trace", "on").ok());
      for (int q = 0; q < kQueriesEach; ++q) {
        auto result = client.Query(
            "SELECT l_returnflag, COUNT(*) AS n FROM lineitem "
            "GROUP BY l_returnflag");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_NE(result->trace_id, 0u);
      }
      EXPECT_TRUE(client.Bye().ok());
    });
  }

  // Reader: materialize dc_trace_spans (and run SQL over it) while the
  // producers are mid-flight.
  for (int i = 0; i < 20; ++i) {
    auto rows = MaterializeSystemTable(cluster, "dc_trace_spans");
    ASSERT_TRUE(rows.ok());
    auto sql = RunDirect(cluster,
                         "SELECT node, COUNT(*) AS n FROM dc_trace_spans "
                         "GROUP BY node");
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();

  // Post-join: every producer query retained a tree whose spans all
  // carry a nonzero trace id.
  auto rows = MaterializeSystemTable(cluster, "dc_trace_spans");
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->empty());
  auto trace_col_idx = SystemTableSchema("dc_trace_spans")->IndexOf("trace_id");
  ASSERT_TRUE(trace_col_idx.ok());
  const size_t trace_col = *trace_col_idx;
  std::set<int64_t> distinct;
  for (const Row& row : *rows) {
    EXPECT_NE(row[trace_col].int_value(), 0);
    distinct.insert(row[trace_col].int_value());
  }
  EXPECT_GE(distinct.size(), 1u);
}

}  // namespace
}  // namespace eon
