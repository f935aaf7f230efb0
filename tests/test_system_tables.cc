// End-to-end tests for the Data Collector + system tables: SELECTs over
// dc_* / system_* tables run through the ordinary SQL engine against a
// live cluster, the reserved namespace is enforced in DDL, the slow-query
// log keeps full profiles only above threshold, and the JSON export
// carries every table plus ring honesty counters. The concurrency test
// (producers on the exec pool while system-table scans read) is part of
// the race-labeled suite scripts/tsan.sh runs under TSan.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/session.h"
#include "engine/sql.h"
#include "engine/system_tables.h"
#include "obs/dc.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

namespace eon {
namespace {

class SystemTablesTest : public ::testing::Test {
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
    // Drop residency so the first query reads through the simulated S3
    // and populates cache / store DC rings.
    for (const auto& n : cluster_->nodes()) n->cache()->Clear();
  }

  Result<QueryResult> Run(const std::string& sql) {
    EON_ASSIGN_OR_RETURN(
        QuerySpec spec,
        ParseSelect(*cluster_->AnyUpNode()->catalog()->snapshot(), sql));
    EonSession session(cluster_.get());
    return session.Execute(spec);
  }

  // Index of `column` in system table `table` (asserted to exist).
  size_t Col(const std::string& table, const std::string& column) {
    const Schema* schema = SystemTableSchema(table);
    EXPECT_NE(schema, nullptr) << table;
    auto idx = schema->IndexOf(column);
    EXPECT_TRUE(idx.ok()) << table << "." << column;
    return *idx;
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
  TpchOptions topts_;
};

// --- The acceptance queries ----------------------------------------------

TEST_F(SystemTablesTest, SelectSubscriptionsThroughSql) {
  auto result = Run("SELECT name, state FROM system_subscriptions");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 3 shards x (k_safety 2 + primary) = 3 subscribers per shard across
  // 3 nodes: every node holds every shard, all ACTIVE at steady state.
  ASSERT_EQ(result->rows.size(), 9u);
  ASSERT_EQ(result->schema.num_columns(), 2u);
  EXPECT_EQ(result->schema.column(0).name, "name");
  EXPECT_EQ(result->schema.column(1).name, "state");
  std::map<std::string, int> per_node;
  for (const Row& row : result->rows) {
    per_node[row[0].str_value()]++;
    EXPECT_EQ(row[1].str_value(), "ACTIVE");
  }
  EXPECT_EQ(per_node.size(), 3u);
  for (const auto& [node, n] : per_node) EXPECT_EQ(n, 3) << node;

  // Aggregation over a system table: subscriptions per node.
  auto grouped = Run(
      "SELECT name, COUNT(*) AS n FROM system_subscriptions GROUP BY name "
      "ORDER BY name");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->rows.size(), 3u);
  EXPECT_EQ(grouped->rows[0][0].str_value(), "node1");
  for (const Row& row : grouped->rows) EXPECT_EQ(row[1].int_value(), 3);
}

TEST_F(SystemTablesTest, SumStoreCostGroupedByNodeThroughSql) {
  // Cold scan over a real column (COUNT(*) alone is answered from
  // container metadata): every participating node pays S3 GETs that land
  // in dc_store_requests with node attribution.
  auto warm = Run("SELECT SUM(l_quantity) AS q FROM lineitem");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  auto result = Run(
      "SELECT node, SUM(cost) AS total FROM dc_store_requests "
      "GROUP BY node ORDER BY node");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rows.empty());

  // Cross-check against the raw ring contents: system-table queries are
  // never DC-recorded and touch no storage, so the rings are unchanged
  // between the query above and this snapshot.
  auto rows = MaterializeSystemTable(cluster_.get(), "dc_store_requests");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const size_t node_col = Col("dc_store_requests", "node");
  const size_t cost_col = Col("dc_store_requests", "cost");
  std::map<std::string, int64_t> expected;
  for (const Row& row : *rows) {
    expected[row[node_col].str_value()] += row[cost_col].int_value();
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  int64_t attributed_total = 0;
  for (const Row& row : result->rows) {
    const std::string& node = row[0].str_value();
    ASSERT_TRUE(expected.count(node)) << node;
    EXPECT_EQ(row[1].int_value(), expected[node]) << node;
    if (!node.empty()) attributed_total += row[1].int_value();
  }
  // The cold scan's GETs were issued from inside cache fills, which open
  // a DcNodeScope: real per-node dollars, not just "".
  EXPECT_GT(attributed_total, 0);
}

// --- Predicates, ORDER BY, LIMIT over live snapshots ----------------------

TEST_F(SystemTablesTest, PredicateOnNodeStateAfterKill) {
  ASSERT_TRUE(cluster_->KillNode(2).ok());
  auto up = Run("SELECT name FROM system_nodes WHERE state = 'UP' "
                "ORDER BY name");
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  ASSERT_EQ(up->rows.size(), 2u);
  EXPECT_EQ(up->rows[0][0].str_value(), "node1");
  EXPECT_EQ(up->rows[1][0].str_value(), "node3");

  auto down = Run("SELECT COUNT(*) AS n FROM system_nodes "
                  "WHERE state = 'DOWN'");
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->rows[0][0].int_value(), 1);

  auto limited = Run("SELECT name FROM system_nodes ORDER BY name DESC "
                     "LIMIT 2");
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->rows.size(), 2u);
  EXPECT_EQ(limited->rows[0][0].str_value(), "node3");
  EXPECT_EQ(limited->rows[1][0].str_value(), "node2");
}

TEST_F(SystemTablesTest, CacheAndContainerSnapshotsMatchLiveState) {
  auto warm = Run("SELECT COUNT(*) AS n FROM orders");
  ASSERT_TRUE(warm.ok());

  auto cache = Run("SELECT node, size_bytes, misses FROM system_cache "
                   "ORDER BY node");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  ASSERT_EQ(cache->rows.size(), 3u);
  for (const Row& row : cache->rows) {
    Node* node = cluster_->node_by_name(row[0].str_value());
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(row[1].int_value()),
              node->cache()->size_bytes());
    EXPECT_EQ(static_cast<uint64_t>(row[2].int_value()),
              node->cache()->stats().misses);
  }

  // Containers: every (table-visible) container exactly once.
  auto containers = Run(
      "SELECT table, COUNT(*) AS n, SUM(rows) AS r "
      "FROM system_storage_containers GROUP BY table ORDER BY table");
  ASSERT_TRUE(containers.ok()) << containers.status().ToString();
  std::set<std::string> tables;
  for (const Row& row : containers->rows) {
    tables.insert(row[0].str_value());
    EXPECT_GT(row[1].int_value(), 0);
  }
  EXPECT_TRUE(tables.count("lineitem"));
  EXPECT_TRUE(tables.count("orders"));
  EXPECT_TRUE(tables.count("customer"));
}

TEST_F(SystemTablesTest, CacheEventsAggregateByKind) {
  auto cold = Run("SELECT c_name FROM customer LIMIT 5");
  ASSERT_TRUE(cold.ok());
  auto result = Run(
      "SELECT kind, COUNT(*) AS n FROM dc_cache_events GROUP BY kind");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t miss_fills = 0;
  for (const Row& row : result->rows) {
    if (row[0].str_value() == "miss_fill") miss_fills = row[1].int_value();
  }
  // The cold scan above filled the cache from shared storage.
  EXPECT_GT(miss_fills, 0);
}

// --- Slow-query log -------------------------------------------------------

TEST_F(SystemTablesTest, SlowQueryLogRetainsProfileAboveThreshold) {
  for (const auto& n : cluster_->nodes()) n->dc()->set_slow_query_micros(1);
  auto cold = Run("SELECT SUM(l_quantity) AS q FROM lineitem");
  ASSERT_TRUE(cold.ok());

  // Find the coordinator's record (any node's ring; table = lineitem).
  const obs::DcQueryExecution* slow_rec = nullptr;
  std::vector<obs::DcQueryExecution> all;
  for (const auto& n : cluster_->nodes()) {
    for (obs::DcQueryExecution& e : n->dc()->QueryExecutions()) {
      all.push_back(std::move(e));
    }
  }
  for (const obs::DcQueryExecution& e : all) {
    if (e.table == "lineitem") slow_rec = &e;
  }
  ASSERT_NE(slow_rec, nullptr);
  EXPECT_TRUE(slow_rec->slow);
  // Full per-phase profile retained: the scan phase burned sim time.
  EXPECT_GT(slow_rec->profile.rows_scanned_total, 0u);
  EXPECT_GT(slow_rec->profile.Phase(obs::QueryPhase::kScan).sim_micros, 0);
  EXPECT_GT(slow_rec->sim_micros, 0);

  // Same query above a huge threshold: recorded, but the profile is
  // dropped (scalar rollups only).
  for (const auto& n : cluster_->nodes()) {
    n->dc()->set_slow_query_micros(int64_t{1} << 60);
  }
  auto fast = Run("SELECT SUM(o_totalprice) AS s FROM orders");
  ASSERT_TRUE(fast.ok());
  const obs::DcQueryExecution* fast_rec = nullptr;
  all.clear();
  for (const auto& n : cluster_->nodes()) {
    for (obs::DcQueryExecution& e : n->dc()->QueryExecutions()) {
      all.push_back(std::move(e));
    }
  }
  for (const obs::DcQueryExecution& e : all) {
    if (e.table == "orders") fast_rec = &e;
  }
  ASSERT_NE(fast_rec, nullptr);
  EXPECT_FALSE(fast_rec->slow);
  EXPECT_EQ(fast_rec->profile.rows_scanned_total, 0u);
  EXPECT_GT(fast_rec->rows_scanned, 0u);  // Rollup columns survive.

  // And through SQL: the slow flag is a queryable column.
  auto via_sql = Run(
      "SELECT slow, COUNT(*) AS n FROM dc_query_executions GROUP BY slow");
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();
  int64_t slow_n = 0, fast_n = 0;
  for (const Row& row : via_sql->rows) {
    if (row[0].int_value() == 1) slow_n = row[1].int_value();
    if (row[0].int_value() == 0) fast_n = row[1].int_value();
  }
  EXPECT_GE(slow_n, 1);
  EXPECT_GE(fast_n, 1);
}

// --- Reserved namespace + planner guard rails -----------------------------

TEST_F(SystemTablesTest, ReservedNamespaceRejectedInDdl) {
  const Schema schema({{"a", DataType::kInt64}});
  for (const std::string& name : {std::string("dc_mine"),
                                  std::string("system_mine")}) {
    auto created = CreateTable(cluster_.get(), name, schema, std::nullopt,
                               {{name + "_super", {}, {}, {"a"}}});
    ASSERT_FALSE(created.ok()) << name;
    EXPECT_TRUE(created.status().IsInvalidArgument()) << name;
  }
  auto copied = CopyTable(cluster_.get(), "customer", "system_copy");
  ASSERT_FALSE(copied.ok());
  EXPECT_TRUE(copied.status().IsInvalidArgument());
}

TEST_F(SystemTablesTest, SystemTableJoinsRejected) {
  auto spec = ParseSelect(
      *cluster_->AnyUpNode()->catalog()->snapshot(),
      "SELECT name FROM system_nodes JOIN customer ON name = c_name");
  ASSERT_FALSE(spec.ok());
  EXPECT_TRUE(spec.status().IsNotSupported());
}

// System-table queries share the user path's aggregate operator: a
// global aggregate over zero matching rows still yields exactly one row.
TEST_F(SystemTablesTest, GlobalAggregateOverNoRowsYieldsOneRow) {
  auto result = Run(
      "SELECT COUNT(*) AS n, MIN(shard) AS lo, AVG(shard) AS mean "
      "FROM system_subscriptions WHERE name = 'no_such_node'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  ASSERT_EQ(result->rows[0].size(), 3u);
  EXPECT_EQ(result->rows[0][0].int_value(), 0);
  EXPECT_TRUE(result->rows[0][1].is_null());
  EXPECT_TRUE(result->rows[0][2].is_null());
  EXPECT_EQ(result->schema.column(2).type, DataType::kDouble);
}

// A non-COUNT aggregate with no input column is not a query SQL can
// express; planning rejects it on user and system tables alike.
TEST_F(SystemTablesTest, AggregateWithoutInputColumnRejected) {
  for (const std::string table : {"customer", "system_nodes"}) {
    QuerySpec spec;
    spec.scan.table = table;
    spec.aggregates = {{AggFn::kSum, "", "s"}};
    EonSession session(cluster_.get());
    auto result = session.Execute(spec);
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << table << ": " << result.status().ToString();
  }
}

TEST_F(SystemTablesTest, UnknownColumnAndTableErrors) {
  const CatalogState& state = *cluster_->AnyUpNode()->catalog()->snapshot();
  EXPECT_FALSE(ParseSelect(state, "SELECT nope FROM system_nodes").ok());
  EXPECT_FALSE(ParseSelect(state, "SELECT x FROM system_nope").ok());
  auto direct = MaterializeSystemTable(cluster_.get(), "system_nope");
  EXPECT_FALSE(direct.ok());
}

// --- JSON export ----------------------------------------------------------

TEST_F(SystemTablesTest, ExportCarriesEveryTableAndRingCounters) {
  auto warm = Run("SELECT COUNT(*) AS n FROM customer");
  ASSERT_TRUE(warm.ok());

  JsonValue doc = obs::ExportSystemTables(cluster_.get());
  for (const std::string& name : SystemTableNames()) {
    ASSERT_TRUE(doc.Has(name)) << name;
    const JsonValue& table = doc.Get(name);
    ASSERT_TRUE(table.Has("columns")) << name;
    ASSERT_TRUE(table.Has("rows")) << name;
    EXPECT_EQ(table.Get("columns").size(),
              SystemTableSchema(name)->num_columns())
        << name;
  }
  ASSERT_TRUE(doc.Has("dc_ring_counters"));
  const JsonValue& counters = doc.Get("dc_ring_counters");
  for (const auto& n : cluster_->nodes()) {
    ASSERT_TRUE(counters.Has(n->name())) << n->name();
  }
  ASSERT_TRUE(counters.Has("_default"));

  // Dump -> Parse round trip (the bench sidecar path).
  auto parsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->Has("system_nodes"));

  const std::string path = ::testing::TempDir() + "systables_test.json";
  ASSERT_TRUE(obs::WriteSystemTablesJsonFile(path, cluster_.get()).ok());
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  fclose(f);
  std::remove(path.c_str());
}

// --- Concurrency: producers on the exec pool vs system-table scans --------
// Part of the race-labeled suite; scripts/tsan.sh runs it under TSan.

TEST_F(SystemTablesTest, SystemTableScansRaceWithProducers) {
  constexpr int kQueryThreads = 3;
  constexpr int kQueriesPerThread = 4;
  std::vector<std::thread> producers;
  for (int t = 0; t < kQueryThreads; ++t) {
    producers.emplace_back([this, t] {
      // Per-thread session: user queries fan out over the exec pool and
      // record query / cache / store events into the DC rings.
      EonSession session(cluster_.get(), "", static_cast<uint64_t>(t) + 1);
      QuerySpec spec;
      spec.scan.table = (t % 2 == 0) ? "lineitem" : "orders";
      spec.aggregates = {{AggFn::kCount, "", "n"}};
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto r = session.Execute(spec);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }
  // Reader: materialize every system table while the producers run —
  // ring snapshots, catalog snapshots and cache stats all read hot state.
  for (int round = 0; round < 8; ++round) {
    for (const std::string& name : SystemTableNames()) {
      auto rows = MaterializeSystemTable(cluster_.get(), name);
      EXPECT_TRUE(rows.ok()) << name << ": " << rows.status().ToString();
    }
  }
  for (std::thread& t : producers) t.join();

  // Every producer query was recorded on some coordinator.
  uint64_t recorded = 0;
  for (const auto& n : cluster_->nodes()) {
    recorded += n->dc()->query_counters().total;
  }
  EXPECT_GE(recorded,
            static_cast<uint64_t>(kQueryThreads) * kQueriesPerThread);
}

}  // namespace
}  // namespace eon
