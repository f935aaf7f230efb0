// End-to-end tests: cluster bootstrap, TPC-H load, query correctness vs a
// reference computation, node failure, DML, mergeout, revive.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/session.h"
#include "enterprise/enterprise.h"
#include "storage/sim_object_store.h"
#include "tm/tuple_mover.h"
#include "workload/tpch.h"

namespace eon {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;  // Latency irrelevant for correctness.
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);

    ClusterOptions copts;
    copts.num_shards = 3;
    copts.k_safety = 2;
    copts.node.cache.capacity_bytes = 64ULL << 20;
    auto cluster = EonCluster::Create(
        store_.get(), &clock_, copts,
        {NodeSpec{"node1", ""}, NodeSpec{"node2", ""}, NodeSpec{"node3", ""},
         NodeSpec{"node4", ""}});
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();

    topts_.scale = 0.2;
    data_ = GenerateTpch(topts_);
    ASSERT_TRUE(CreateTpchTables(cluster_.get()).ok());
    Status load = LoadTpch(cluster_.get(), data_, /*rows_per_block=*/256);
    ASSERT_TRUE(load.ok()) << load.ToString();
  }

  /// Reference: total lineitem revenue under Q6-style filters.
  double ReferenceQ6() const {
    const int64_t last = topts_.last_day;
    double rev = 0;
    for (const Row& r : data_.lineitems) {
      int64_t ship = r[7].int_value();
      int64_t qty = r[2].int_value();
      if (ship >= last - 365 && ship < last - 180 && qty < 24) {
        rev += r[3].dbl_value();
      }
    }
    return rev;
  }

  int64_t ReferenceCountWhereQtyLt(int64_t qty) const {
    int64_t n = 0;
    for (const Row& r : data_.lineitems) {
      if (r[2].int_value() < qty) n++;
    }
    return n;
  }

  QuerySpec Q6() const {
    for (const auto& [name, spec] : TpchQuerySet(topts_)) {
      if (name == "Q06_forecast_revenue") return spec;
    }
    return {};
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
  TpchOptions topts_;
  TpchData data_;
};

TEST_F(IntegrationTest, Q6MatchesReference) {
  EonSession session(cluster_.get());
  auto result = session.Execute(Q6());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_NEAR(result->rows[0][0].dbl_value(), ReferenceQ6(), 1e-6);
}

TEST_F(IntegrationTest, AllTwentyQueriesRun) {
  EonSession session(cluster_.get());
  auto queries = TpchQuerySet(topts_);
  ASSERT_EQ(queries.size(), 20u);
  for (const auto& [name, spec] : queries) {
    auto result = session.Execute(spec);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  }
}

TEST_F(IntegrationTest, CoSegmentedJoinIsLocal) {
  EonSession session(cluster_.get());
  QuerySpec dash = DashboardQuery(topts_);
  auto result = session.Execute(dash);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // lineitem HASH(l_orderkey) ⋈ orders HASH(o_orderkey): no reshuffle.
  EXPECT_TRUE(result->profile.local_join);
  EXPECT_EQ(result->profile.rows_shuffled, 0u);
}

TEST_F(IntegrationTest, JoinResultMatchesReference) {
  // Reference join count: lineitems shipped in the last 7 days (all of
  // them have matching orders by construction).
  const int64_t cutoff = topts_.last_day - 7;
  int64_t expected = 0;
  for (const Row& r : data_.lineitems) {
    if (r[7].int_value() >= cutoff) expected++;
  }
  EonSession session(cluster_.get());
  QuerySpec dash = DashboardQuery(topts_);
  auto result = session.Execute(dash);
  ASSERT_TRUE(result.ok());
  int64_t total = 0;
  for (const Row& row : result->rows) total += row[1].int_value();
  EXPECT_EQ(total, expected);
}

TEST_F(IntegrationTest, QueriesSurviveNodeDown) {
  EonSession session(cluster_.get());
  auto before = session.Execute(Q6());
  ASSERT_TRUE(before.ok());

  // Kill one node; shards are never down: another subscriber serves.
  ASSERT_TRUE(cluster_->KillNode(2).ok());
  EXPECT_TRUE(cluster_->IsViable());
  auto after = session.Execute(Q6());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NEAR(after->rows[0][0].dbl_value(), before->rows[0][0].dbl_value(),
              1e-9);
  // The dead node no longer participates.
  for (const auto& [shard, node] : ExecContext().participation.shard_to_node) {
    EXPECT_NE(node, 2u);
  }
}

TEST_F(IntegrationTest, NodeRestartRecoversAndServes) {
  ASSERT_TRUE(cluster_->KillNode(3).ok());
  // Commit data while the node is down: it misses these log records.
  auto batch = GenerateIotBatch(1, 50);
  ASSERT_TRUE(CreateIotTable(cluster_.get()).ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "iot_events", batch).ok());

  Status restart = cluster_->RestartNode(3);
  ASSERT_TRUE(restart.ok()) << restart.ToString();
  // Catalog caught up to the cluster's version.
  EXPECT_EQ(cluster_->node(3)->catalog()->version(),
            cluster_->node(1)->catalog()->version());
  // And its subscriptions are ACTIVE again.
  EXPECT_FALSE(
      cluster_->node(3)->SubscribedShards({SubscriptionState::kActive})
          .empty());
  EonSession session(cluster_.get());
  auto result = session.Execute(Q6());
  EXPECT_TRUE(result.ok());
}

TEST_F(IntegrationTest, DeleteAndUpdate) {
  EonSession session(cluster_.get());
  const Schema li = TpchLineitemSchema();
  const size_t qty_col = *li.IndexOf("l_quantity");

  const int64_t before = ReferenceCountWhereQtyLt(3);
  ASSERT_GT(before, 0);

  // DELETE WHERE l_quantity < 3.
  auto deleted = DeleteWhere(cluster_.get(), "lineitem",
                             Predicate::Cmp(qty_col, CmpOp::kLt, Value::Int(3)));
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(*deleted), before);

  QuerySpec count_small;
  count_small.scan.table = "lineitem";
  count_small.scan.columns = {"l_quantity"};
  count_small.scan.predicate =
      Predicate::Cmp(qty_col, CmpOp::kLt, Value::Int(3));
  count_small.aggregates = {{AggFn::kCount, "", "n"}};
  auto result = session.Execute(count_small);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 0);

  // UPDATE: bump quantity 49 rows to 1000.
  auto updated = UpdateWhere(
      cluster_.get(), "lineitem",
      Predicate::Cmp(qty_col, CmpOp::kEq, Value::Int(49)),
      [&](Row* row) { (*row)[qty_col] = Value::Int(1000); });
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  QuerySpec count_big;
  count_big.scan.table = "lineitem";
  count_big.scan.columns = {"l_quantity"};
  count_big.scan.predicate =
      Predicate::Cmp(qty_col, CmpOp::kEq, Value::Int(1000));
  count_big.aggregates = {{AggFn::kCount, "", "n"}};
  auto post = session.Execute(count_big);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->rows[0][0].int_value(), static_cast<int64_t>(*updated));
}

TEST_F(IntegrationTest, MergeoutPreservesResults) {
  EonSession session(cluster_.get());
  auto before = session.Execute(Q6());
  ASSERT_TRUE(before.ok());

  // Load several small batches to create merge-eligible containers.
  auto extra = GenerateTpch(TpchOptions{.scale = 0.05, .seed = 99});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(CopyInto(cluster_.get(), "customer", extra.customers).ok());
  }

  TupleMover tm(cluster_.get(), MergeoutOptions{.stratum_fanin = 2});
  auto jobs = tm.RunOnce();
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  EXPECT_GT(*jobs, 0u);

  auto after = session.Execute(Q6());
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(after->rows[0][0].dbl_value(), before->rows[0][0].dbl_value(),
              1e-9);
}

TEST_F(IntegrationTest, ReviveFromSharedStorage) {
  EonSession session(cluster_.get());
  auto before = session.Execute(Q6());
  ASSERT_TRUE(before.ok());
  const double expected = before->rows[0][0].dbl_value();

  // Make metadata durable, then lose the entire cluster.
  ASSERT_TRUE(cluster_->SyncAll(/*force_checkpoint=*/true).ok());
  ASSERT_TRUE(cluster_->UpdateClusterInfo().ok());
  const auto lease = cluster_->options().lease_duration_micros;
  cluster_.reset();

  // Lease must block an immediate revive.
  ClusterOptions copts;
  copts.num_shards = 3;
  copts.k_safety = 2;
  std::vector<NodeSpec> specs = {NodeSpec{"r1", ""}, NodeSpec{"r2", ""},
                                 NodeSpec{"r3", ""}, NodeSpec{"r4", ""}};
  auto blocked = EonCluster::Revive(store_.get(), &clock_, copts, specs);
  EXPECT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsUnavailable());

  clock_.AdvanceMicros(lease + 1);
  auto revived = EonCluster::Revive(store_.get(), &clock_, copts, specs);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();

  EonSession s2(revived->get() ? revived.value().get() : nullptr);
  auto after = s2.Execute(Q6());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NEAR(after->rows[0][0].dbl_value(), expected, 1e-9);
}

TEST_F(IntegrationTest, EnterpriseMatchesEon) {
  SimClock eclock;
  auto enterprise = EnterpriseCluster::Create(
      &eclock, EnterpriseOptions{}, {"e1", "e2", "e3", "e4"});
  ASSERT_TRUE(enterprise.ok()) << enterprise.status().ToString();
  ASSERT_TRUE(CreateTpchTables(enterprise.value()->inner()).ok());
  ASSERT_TRUE(LoadTpch(enterprise.value()->inner(), data_, 256).ok());

  auto ent = enterprise.value()->Execute(Q6());
  ASSERT_TRUE(ent.ok()) << ent.status().ToString();
  EXPECT_NEAR(ent->rows[0][0].dbl_value(), ReferenceQ6(), 1e-6);
}

}  // namespace
}  // namespace eon
