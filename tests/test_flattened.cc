// Unit tests for flattened tables (Section 2.1): load-time
// denormalization against dimension tables and the refresh mechanism.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"

namespace eon {
namespace {

class FlattenedTest : public ::testing::Test {
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

    // Dimension: product catalog (replicated).
    Schema products({{"product_id", DataType::kInt64},
                     {"category", DataType::kString},
                     {"list_price", DataType::kDouble}});
    ASSERT_TRUE(CreateTable(cluster_.get(), "products", products, std::nullopt,
                            {ProjectionSpec{"products_rep", {}, {"product_id"},
                                            {}}})
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 1; i <= 20; ++i) {
      rows.push_back(Row{Value::Int(i),
                         Value::Str(i % 2 ? "gadget" : "widget"),
                         Value::Dbl(i * 10.0)});
    }
    ASSERT_TRUE(CopyInto(cluster_.get(), "products", rows).ok());

    // Flattened fact: sales denormalized with the product category.
    Schema sales_base({{"sale_id", DataType::kInt64},
                       {"product_id", DataType::kInt64},
                       {"qty", DataType::kInt64}});
    auto oid = CreateFlattenedTable(
        cluster_.get(), "sales", sales_base, std::nullopt,
        {ProjectionSpec{"sales_super", {}, {"sale_id"}, {"sale_id"}}},
        {FlattenedColumn{"category", "product_id", "products", "product_id",
                         "category"},
         FlattenedColumn{"list_price", "product_id", "products", "product_id",
                         "list_price"}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  }

  void LoadSales(int64_t start, int64_t n) {
    std::vector<Row> rows;  // Base columns only: engine fills the rest.
    for (int64_t i = start; i < start + n; ++i) {
      rows.push_back(
          Row{Value::Int(i), Value::Int(i % 20 + 1), Value::Int(i % 5 + 1)});
    }
    auto v = CopyInto(cluster_.get(), "sales", rows);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
};

TEST_F(FlattenedTest, LoadFillsDerivedColumns) {
  LoadSales(0, 100);
  EonSession session(cluster_.get());
  QuerySpec q;
  q.scan.table = "sales";
  q.scan.columns = {"category", "qty"};
  q.group_by = {"category"};
  q.aggregates = {{AggFn::kCount, "", "n"}};
  q.order_by = "category";
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  // product_id 1..20, odd=gadget: product ids used are (i%20)+1 → uniform.
  EXPECT_EQ(result->rows[0][0].str_value(), "gadget");
  EXPECT_EQ(result->rows[0][1].int_value(), 50);
  EXPECT_EQ(result->rows[1][1].int_value(), 50);
  // No join needed at query time: denormalization happened at load, so
  // the query moves no rows between nodes.
  EXPECT_EQ(result->profile.rows_shuffled, 0u);
}

TEST_F(FlattenedTest, MissingDimensionKeyYieldsNull) {
  std::vector<Row> rows = {
      Row{Value::Int(1), Value::Int(999), Value::Int(1)}};  // No product 999.
  ASSERT_TRUE(CopyInto(cluster_.get(), "sales", rows).ok());
  EonSession session(cluster_.get());
  QuerySpec q;
  q.scan.table = "sales";
  q.scan.columns = {"sale_id", "category"};
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0][1].is_null());
}

TEST_F(FlattenedTest, LoadRejectsFullArityRows) {
  std::vector<Row> rows = {Row{Value::Int(1), Value::Int(2), Value::Int(3),
                               Value::Str("smuggled"), Value::Dbl(1.0)}};
  EXPECT_TRUE(
      CopyInto(cluster_.get(), "sales", rows).status().IsInvalidArgument());
}

TEST_F(FlattenedTest, RefreshAfterDimensionChange) {
  LoadSales(0, 100);
  // Re-categorize product 1: delete + reload it in the dimension.
  auto deleted = DeleteWhere(cluster_.get(), "products",
                             Predicate::Cmp(0, CmpOp::kEq, Value::Int(1)));
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  ASSERT_TRUE(CopyInto(cluster_.get(), "products",
                       {Row{Value::Int(1), Value::Str("discontinued"),
                            Value::Dbl(0.0)}})
                  .ok());

  // Facts still carry the stale category until refresh.
  EonSession session(cluster_.get());
  QuerySpec stale;
  stale.scan.table = "sales";
  stale.scan.columns = {"category"};
  stale.scan.predicate =
      Predicate::Cmp(1, CmpOp::kEq, Value::Int(1));  // product_id == 1.
  auto before = session.Execute(stale);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->rows.empty());
  EXPECT_EQ(before->rows[0][0].str_value(), "gadget");

  auto refreshed = RefreshFlattenedTable(cluster_.get(), "sales");
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 5u);  // 5 sales reference product 1.

  auto after = session.Execute(stale);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->rows.size(), before->rows.size());
  for (const Row& r : after->rows) {
    EXPECT_EQ(r[0].str_value(), "discontinued");
  }
  // Idempotent: nothing further to refresh.
  auto again = RefreshFlattenedTable(cluster_.get(), "sales");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST_F(FlattenedTest, DimensionDropGuard) {
  EXPECT_TRUE(DropTable(cluster_.get(), "products").IsNotSupported());
  // Dropping the flattened table first unblocks the dimension.
  ASSERT_TRUE(DropTable(cluster_.get(), "sales").ok());
  EXPECT_TRUE(DropTable(cluster_.get(), "products").ok());
}

TEST_F(FlattenedTest, RefreshValidation) {
  Schema plain({{"a", DataType::kInt64}});
  ASSERT_TRUE(CreateTable(cluster_.get(), "plain", plain, std::nullopt,
                          {ProjectionSpec{"p", {}, {"a"}, {"a"}}})
                  .ok());
  EXPECT_TRUE(RefreshFlattenedTable(cluster_.get(), "plain")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      RefreshFlattenedTable(cluster_.get(), "nope").status().IsNotFound());
}

}  // namespace
}  // namespace eon
