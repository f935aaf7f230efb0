// Edge-case tests for the execution engine: empty relations, limits,
// multi-column group-bys over joins, ordering by aggregate aliases,
// null handling through the full distributed path.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"

namespace eon {
namespace {

class EngineEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
    ClusterOptions copts;
    copts.num_shards = 2;
    auto cluster = EonCluster::Create(
        store_.get(), &clock_, copts,
        {NodeSpec{"n1", ""}, NodeSpec{"n2", ""}, NodeSpec{"n3", ""}});
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();

    Schema schema({{"k", DataType::kInt64},
                   {"grp", DataType::kString},
                   {"val", DataType::kDouble}});
    ASSERT_TRUE(CreateTable(cluster_.get(), "t", schema, std::nullopt,
                            {ProjectionSpec{"t_super", {}, {"k"}, {"k"}}})
                    .ok());
  }

  Result<QueryResult> Run(const QuerySpec& spec) {
    EonSession session(cluster_.get());
    return session.Execute(spec);
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
};

TEST_F(EngineEdgeTest, ScanOfEmptyTable) {
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k"};
  auto result = Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());

  // Grouped aggregate over nothing: zero groups.
  q.group_by = {"k"};
  q.aggregates = {{AggFn::kCount, "", "n"}};
  result = Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());

  // Global aggregate over nothing: exactly one row with COUNT 0, SUM NULL.
  q.group_by.clear();
  q.aggregates = {{AggFn::kCount, "", "n"}, {AggFn::kSum, "k", "s"}};
  result = Run(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int_value(), 0);
  EXPECT_TRUE(result->rows[0][1].is_null());
}

TEST_F(EngineEdgeTest, NullsFlowThroughAggregates) {
  std::vector<Row> rows = {
      {Value::Int(1), Value::Str("a"), Value::Dbl(10)},
      {Value::Int(2), Value::Str("a"), Value::Null(DataType::kDouble)},
      {Value::Int(3), Value::Null(DataType::kString), Value::Dbl(30)},
  };
  ASSERT_TRUE(CopyInto(cluster_.get(), "t", rows).ok());

  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"grp", "val"};
  q.group_by = {"grp"};
  q.aggregates = {{AggFn::kCount, "", "n"},
                  {AggFn::kSum, "val", "s"},
                  {AggFn::kAvg, "val", "m"}};
  auto result = Run(q);
  ASSERT_TRUE(result.ok());
  // Two groups: "a" and the NULL group.
  ASSERT_EQ(result->rows.size(), 2u);
  for (const Row& r : result->rows) {
    if (!r[0].is_null() && r[0].str_value() == "a") {
      EXPECT_EQ(r[1].int_value(), 2);            // COUNT counts rows.
      EXPECT_DOUBLE_EQ(r[2].dbl_value(), 10.0);  // SUM skips nulls.
      EXPECT_DOUBLE_EQ(r[3].dbl_value(), 10.0);  // AVG over non-nulls.
    } else {
      EXPECT_TRUE(r[0].is_null());
      EXPECT_EQ(r[1].int_value(), 1);
    }
  }
}

TEST_F(EngineEdgeTest, LimitZeroAndOverLimit) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Str("g"), Value::Dbl(1)});
  }
  ASSERT_TRUE(CopyInto(cluster_.get(), "t", rows).ok());
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k"};
  q.limit = 0;
  auto result = Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  q.limit = 1000;  // More than available: all rows.
  result = Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST_F(EngineEdgeTest, OrderByAggregateAlias) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 30; ++i) {
    rows.push_back(Row{Value::Int(i),
                       Value::Str(i % 3 == 0 ? "heavy" : "light"),
                       Value::Dbl(i % 3 == 0 ? 100.0 : 1.0)});
  }
  ASSERT_TRUE(CopyInto(cluster_.get(), "t", rows).ok());
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"grp", "val"};
  q.group_by = {"grp"};
  q.aggregates = {{AggFn::kSum, "val", "total"}};
  q.order_by = "total";
  q.order_desc = true;
  auto result = Run(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].str_value(), "heavy");
  EXPECT_GE(result->rows[0][1].dbl_value(), result->rows[1][1].dbl_value());
}

TEST_F(EngineEdgeTest, MultiColumnGroupBy) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back(Row{Value::Int(i % 4), Value::Str(i % 2 ? "x" : "y"),
                       Value::Dbl(1)});
  }
  ASSERT_TRUE(CopyInto(cluster_.get(), "t", rows).ok());
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k", "grp"};
  q.group_by = {"k", "grp"};
  q.aggregates = {{AggFn::kCount, "", "n"}};
  auto result = Run(q);
  ASSERT_TRUE(result.ok());
  // k ∈ {0..3} × grp: parity couples k and grp, so only 4 combos exist.
  EXPECT_EQ(result->rows.size(), 4u);
  for (const Row& r : result->rows) EXPECT_EQ(r[2].int_value(), 10);
}

TEST_F(EngineEdgeTest, JoinWithEmptySide) {
  Schema dim({{"k", DataType::kInt64}, {"name", DataType::kString}});
  ASSERT_TRUE(CreateTable(cluster_.get(), "dim", dim, std::nullopt,
                          {ProjectionSpec{"dim_p", {}, {"k"}, {"k"}}})
                  .ok());
  std::vector<Row> rows = {{Value::Int(1), Value::Str("g"), Value::Dbl(1)}};
  ASSERT_TRUE(CopyInto(cluster_.get(), "t", rows).ok());

  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k", "val"};
  q.join = JoinSpec{{"dim", {"name"}, nullptr}, "k", "k"};
  auto result = Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());  // Inner join with empty right side.
}

// A replicated right side is broadcast to the nodes holding left rows:
// with none, nothing moves (the transfer used to wrap around to ~2^64).
TEST_F(EngineEdgeTest, BroadcastJoinWithEmptyLeftMovesNothing) {
  Schema dim({{"k", DataType::kInt64}, {"name", DataType::kString}});
  ASSERT_TRUE(CreateTable(cluster_.get(), "dim_r", dim, std::nullopt,
                          {ProjectionSpec{"dim_r_p", {}, {"k"}, {}}})
                  .ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "dim_r",
                       {{Value::Int(1), Value::Str("a")},
                        {Value::Int(2), Value::Str("b")}})
                  .ok());
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k", "val"};
  q.join = JoinSpec{{"dim_r", {"name"}, nullptr}, "k", "k"};
  auto result = Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
  EXPECT_FALSE(result->profile.local_join);
  EXPECT_EQ(result->profile.network_bytes, 0u);
  EXPECT_EQ(result->profile.rows_shuffled, 0u);
}

TEST_F(EngineEdgeTest, DuplicateJoinKeysFanOut) {
  Schema dim({{"k", DataType::kInt64}, {"name", DataType::kString}});
  ASSERT_TRUE(CreateTable(cluster_.get(), "dim2", dim, std::nullopt,
                          {ProjectionSpec{"dim2_p", {}, {"k"}, {"k"}}})
                  .ok());
  // Two dimension rows per key: each fact row matches twice.
  ASSERT_TRUE(CopyInto(cluster_.get(), "dim2",
                       {{Value::Int(7), Value::Str("a")},
                        {Value::Int(7), Value::Str("b")}})
                  .ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "t",
                       {{Value::Int(7), Value::Str("g"), Value::Dbl(1)}})
                  .ok());
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k"};
  q.join = JoinSpec{{"dim2", {"name"}, nullptr}, "k", "k"};
  auto result = Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(EngineEdgeTest, SessionOnShutdownClusterFails) {
  ASSERT_TRUE(cluster_->KillNode(1).ok());
  ASSERT_TRUE(cluster_->KillNode(2).ok());
  ASSERT_TRUE(cluster_->is_shutdown());
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"k"};
  EXPECT_TRUE(Run(q).status().IsUnavailable());
}

}  // namespace
}  // namespace eon
