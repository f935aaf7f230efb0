// Unit tests for AddProjection (backfill) and the Database Designer.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/designer.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

namespace eon {
namespace {

class DesignerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
    ClusterOptions copts;
    copts.num_shards = 3;
    auto cluster = EonCluster::Create(
        store_.get(), &clock_, copts,
        {NodeSpec{"n1", ""}, NodeSpec{"n2", ""}, NodeSpec{"n3", ""}});
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();
    topts_.scale = 0.1;
    data_ = GenerateTpch(topts_);
    ASSERT_TRUE(CreateTpchTables(cluster_.get()).ok());
    ASSERT_TRUE(LoadTpch(cluster_.get(), data_).ok());
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
  TpchOptions topts_;
  TpchData data_;
};

TEST_F(DesignerTest, AddProjectionBackfillsAndServes) {
  // New narrow projection segmented by l_partkey on already-loaded data.
  auto proj = AddProjection(
      cluster_.get(), "lineitem",
      ProjectionSpec{"lineitem_bypart",
                     {"l_partkey", "l_extendedprice"},
                     {"l_partkey"},
                     {"l_partkey"}});
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();

  // Backfilled containers exist for the new projection.
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  auto containers = snapshot->ContainersOf(*proj);
  ASSERT_FALSE(containers.empty());
  uint64_t backfilled = 0;
  for (const StorageContainerMeta* c : containers) backfilled += c->row_count;
  EXPECT_EQ(backfilled, data_.lineitems.size());

  // A group-by on l_partkey now runs locally via the new projection.
  EonSession session(cluster_.get());
  QuerySpec q;
  q.scan.table = "lineitem";
  q.scan.columns = {"l_partkey", "l_extendedprice"};
  q.group_by = {"l_partkey"};
  q.aggregates = {{AggFn::kSum, "l_extendedprice", "rev"}};
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->profile.local_group_by);
}

TEST_F(DesignerTest, AddProjectionPicksUpSubsequentLoads) {
  auto proj = AddProjection(cluster_.get(), "orders",
                            ProjectionSpec{"orders_bydate",
                                           {"o_orderdate", "o_totalprice"},
                                           {"o_orderdate"},
                                           {"o_orderdate"}});
  ASSERT_TRUE(proj.ok());
  const uint64_t before = [&] {
    uint64_t n = 0;
    auto snapshot = cluster_->node(1)->catalog()->snapshot();
    for (const StorageContainerMeta* c : snapshot->ContainersOf(*proj)) {
      n += c->row_count;
    }
    return n;
  }();
  auto more = GenerateTpch(TpchOptions{.scale = 0.05, .seed = 17});
  ASSERT_TRUE(CopyInto(cluster_.get(), "orders", more.orders).ok());
  uint64_t after = 0;
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  for (const StorageContainerMeta* c : snapshot->ContainersOf(*proj)) {
    after += c->row_count;
  }
  EXPECT_EQ(after, before + more.orders.size());
}

TEST_F(DesignerTest, ProposesSegmentationFromJoins) {
  DesignInput input;
  input.table = "part";
  // Workload that repeatedly joins lineitem to part on p_partkey.
  for (int i = 0; i < 5; ++i) {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_partkey", "l_extendedprice"};
    q.join = JoinSpec{{"part", {"p_partkey", "p_type"}, nullptr}, "l_partkey",
                      "p_partkey"};
    q.group_by = {"p_type"};
    q.aggregates = {{AggFn::kSum, "l_extendedprice", "rev"}};
    input.workload.push_back(q);
  }
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  auto design = DesignProjections(*snapshot, input);
  ASSERT_TRUE(design.ok()) << design.status().ToString();
  ASSERT_FALSE(design->empty());
  EXPECT_EQ((*design)[0].spec.segmentation_columns,
            (std::vector<std::string>{"p_partkey"}));
  EXPECT_EQ((*design)[0].queries_benefited, 5);
}

TEST_F(DesignerTest, SuppressesAlreadyServedDesigns) {
  DesignInput input;
  input.table = "lineitem";
  // The superprojection is already segmented by l_orderkey and covers
  // everything — an l_orderkey-join workload needs nothing new.
  QuerySpec q;
  q.scan.table = "lineitem";
  q.scan.columns = {"l_orderkey", "l_quantity"};
  q.join = JoinSpec{{"orders", {"o_orderkey"}, nullptr}, "l_orderkey",
                    "o_orderkey"};
  q.aggregates = {{AggFn::kCount, "", "n"}};
  input.workload = {q, q, q};
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  auto design = DesignProjections(*snapshot, input);
  ASSERT_TRUE(design.ok());
  EXPECT_TRUE(design->empty());
}

TEST_F(DesignerTest, ApplyDesignEndToEnd) {
  DesignInput input;
  input.table = "customer";
  for (int i = 0; i < 3; ++i) {
    QuerySpec q;
    q.scan.table = "orders";
    q.scan.columns = {"o_custkey", "o_totalprice"};
    q.join = JoinSpec{{"customer", {"c_custkey", "c_nationkey"}, nullptr},
                      "o_custkey",
                      "c_custkey"};
    q.group_by = {"c_nationkey"};
    q.aggregates = {{AggFn::kSum, "o_totalprice", "rev"}};
    input.workload.push_back(q);
  }
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  auto design = DesignProjections(*snapshot, input);
  ASSERT_TRUE(design.ok());
  // customer_super is already segmented by c_custkey but does not include
  // c_nationkey-narrow coverage decisions; whatever the designer says,
  // applying it must work end to end and queries must stay correct.
  ASSERT_TRUE(ApplyDesign(cluster_.get(), "customer", *design).ok());
  EonSession session(cluster_.get());
  auto result = session.Execute(input.workload[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->rows.empty());
}

TEST_F(DesignerTest, RejectsIrrelevantWorkload) {
  DesignInput input;
  input.table = "part";
  QuerySpec q;
  q.scan.table = "customer";
  q.scan.columns = {"c_custkey"};
  input.workload = {q};
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  EXPECT_TRUE(
      DesignProjections(*snapshot, input).status().IsInvalidArgument());
}

}  // namespace
}  // namespace eon
