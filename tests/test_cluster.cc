// Unit tests for cluster operations: subscription state machine,
// distributed commit invariants, failure/recovery, file reaping, revive.

#include <atomic>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"

namespace eon {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    sopts.delete_latency_micros = 0;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
    MakeCluster(4, 3, 2);
  }

  void MakeCluster(int nodes, uint32_t shards, int k) {
    ClusterOptions copts;
    copts.num_shards = shards;
    copts.k_safety = k;
    std::vector<NodeSpec> specs;
    for (int i = 1; i <= nodes; ++i) {
      specs.push_back(NodeSpec{"node" + std::to_string(i), ""});
    }
    auto cluster = EonCluster::Create(store_.get(), &clock_, copts, specs);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
  }

  /// Small table + data so subscriptions have something to carry.
  void LoadSomething() {
    ASSERT_TRUE(CreateTable(cluster_.get(), "t",
                            Schema({{"id", DataType::kInt64},
                                    {"v", DataType::kDouble}}),
                            std::nullopt,
                            {ProjectionSpec{"t_super", {}, {"id"}, {"id"}}})
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 500; ++i) {
      rows.push_back(Row{Value::Int(i), Value::Dbl(i * 0.5)});
    }
    ASSERT_TRUE(CopyInto(cluster_.get(), "t", rows).ok());
  }

  int64_t CountT() {
    EonSession session(cluster_.get());
    QuerySpec q;
    q.scan.table = "t";
    q.scan.columns = {"id"};
    q.aggregates = {{AggFn::kCount, "", "n"}};
    auto r = session.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
};

TEST_F(ClusterTest, BootstrapLayoutIsKSafe) {
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  for (ShardId s = 0; s < 3; ++s) {
    auto subs = snapshot->SubscribersOf(s, {SubscriptionState::kActive});
    EXPECT_GE(subs.size(), 2u) << "shard " << s;
  }
  // All nodes share one consistent catalog version.
  for (const auto& n : cluster_->nodes()) {
    EXPECT_EQ(n->catalog()->version(),
              cluster_->node(1)->catalog()->version());
  }
}

TEST_F(ClusterTest, SubscriptionLifecycle) {
  LoadSomething();
  // Find a (node, shard) pair not yet subscribed.
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  Oid node = 0;
  ShardId shard = 0;
  bool found = false;
  for (const auto& n : cluster_->nodes()) {
    for (ShardId s = 0; s < 3 && !found; ++s) {
      if (snapshot->FindSubscription(n->oid(), s) == nullptr) {
        node = n->oid();
        shard = s;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  ASSERT_TRUE(cluster_->SubscribeNode(node, shard).ok());
  snapshot = cluster_->node(1)->catalog()->snapshot();
  const Subscription* sub = snapshot->FindSubscription(node, shard);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->state, SubscriptionState::kActive);
  // Metadata transfer happened: the node's catalog now has the shard's
  // containers.
  bool has_meta = false;
  auto node_snapshot = cluster_->node(node)->catalog()->snapshot();
  for (const auto& [oid, c] : node_snapshot->containers) {
    if (c.shard == shard) has_meta = true;
  }
  EXPECT_TRUE(has_meta);

  // Unsubscribe drops the metadata again.
  ASSERT_TRUE(cluster_->UnsubscribeNode(node, shard).ok());
  snapshot = cluster_->node(1)->catalog()->snapshot();
  EXPECT_EQ(snapshot->FindSubscription(node, shard), nullptr);
  node_snapshot = cluster_->node(node)->catalog()->snapshot();
  for (const auto& [oid, c] : node_snapshot->containers) {
    EXPECT_NE(c.shard, shard);
  }
}

TEST_F(ClusterTest, UnsubscribeRefusesToBreakFaultTolerance) {
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  // Shard 0 has exactly k=2 ACTIVE subscribers at bootstrap; dropping one
  // would leave 1 < k... the gate requires k-1 others, so dropping one of
  // two (leaving one) is allowed; dropping the second is not.
  auto subs = snapshot->SubscribersOf(0, {SubscriptionState::kActive});
  ASSERT_EQ(subs.size(), 2u);
  ASSERT_TRUE(cluster_->UnsubscribeNode(subs[0], 0).ok());
  Status second = cluster_->UnsubscribeNode(subs[1], 0);
  EXPECT_TRUE(second.IsUnavailable()) << second.ToString();
  // The subscription remains (in REMOVING) and keeps serving.
  snapshot = cluster_->node(1)->catalog()->snapshot();
  EXPECT_NE(snapshot->FindSubscription(subs[1], 0), nullptr);
}

TEST_F(ClusterTest, CommitAbortsWhenSubscriptionSneaksIn) {
  LoadSomething();
  auto snapshot = cluster_->node(1)->catalog()->snapshot();

  // Plan a transaction against the current subscriber set of shard 0.
  std::map<ShardId, std::set<Oid>> observed;
  for (Oid n : snapshot->SubscribersOf(
           0, {SubscriptionState::kActive, SubscriptionState::kPassive,
               SubscriptionState::kPending, SubscriptionState::kRemoving})) {
    observed[0].insert(n);
  }

  // A new subscriber sneaks in before commit.
  Oid newcomer = 0;
  for (const auto& n : cluster_->nodes()) {
    if (!observed[0].count(n->oid())) newcomer = n->oid();
  }
  ASSERT_NE(newcomer, 0u);
  ASSERT_TRUE(cluster_->SubscribeNode(newcomer, 0).ok());

  CatalogTxn txn;
  StorageContainerMeta c;
  c.oid = cluster_->node(1)->catalog()->NextOid();
  c.projection_oid = 1;
  c.shard = 0;
  c.base_key = "data/sneak";
  c.num_columns = 1;
  txn.PutContainer(c);
  auto v = cluster_->CommitDistributed(1, txn, &observed);
  EXPECT_TRUE(v.status().IsAborted()) << v.status().ToString();
}

TEST_F(ClusterTest, DownNodeMissesCommitsThenCatchesUp) {
  LoadSomething();
  ASSERT_TRUE(cluster_->KillNode(4).ok());
  const uint64_t down_version = cluster_->node(4)->catalog()->version();

  std::vector<Row> more;
  for (int64_t i = 500; i < 600; ++i) {
    more.push_back(Row{Value::Int(i), Value::Dbl(0)});
  }
  ASSERT_TRUE(CopyInto(cluster_.get(), "t", more).ok());
  EXPECT_EQ(cluster_->node(4)->catalog()->version(), down_version);

  ASSERT_TRUE(cluster_->RestartNode(4).ok());
  EXPECT_EQ(cluster_->node(4)->catalog()->version(),
            cluster_->node(1)->catalog()->version());
  EXPECT_EQ(CountT(), 600);
}

TEST_F(ClusterTest, InstanceLossRebuildsFromPeer) {
  LoadSomething();
  ASSERT_TRUE(cluster_->DestroyNodeInstance(2).ok());
  EXPECT_EQ(cluster_->node(2)->catalog()->version(), 0u);
  EXPECT_EQ(cluster_->node(2)->cache()->file_count(), 0u);

  ASSERT_TRUE(cluster_->RecoverDestroyedNode(2).ok());
  EXPECT_EQ(cluster_->node(2)->catalog()->version(),
            cluster_->node(1)->catalog()->version());
  // Its shard metadata is back.
  auto snapshot = cluster_->node(2)->catalog()->snapshot();
  std::set<ShardId> shards = cluster_->node(2)->SubscribedShards(
      {SubscriptionState::kActive});
  EXPECT_FALSE(shards.empty());
  // And the cache was warmed from a peer.
  EXPECT_GT(cluster_->node(2)->cache()->file_count(), 0u);
  EXPECT_EQ(CountT(), 500);
}

/// Test-local store decorator: while armed, every LIST under `prefix`
/// fails. Everything else passes straight through.
class FailListUnder : public ObjectStore {
 public:
  FailListUnder(ObjectStore* base, std::string prefix)
      : base_(base), prefix_(std::move(prefix)) {}

  void set_armed(bool armed) { armed_ = armed; }

  Status Put(const std::string& key, const std::string& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    return base_->Get(key);
  }
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t len) override {
    return base_->ReadRange(key, offset, len);
  }
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override {
    if (armed_ && prefix.rfind(prefix_, 0) == 0) {
      return Status::IOError("injected LIST failure");
    }
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  ObjectStoreMetrics metrics() const override { return base_->metrics(); }

 private:
  ObjectStore* const base_;
  const std::string prefix_;
  std::atomic<bool> armed_{false};
};

// A recovery that fails after the node was marked up (here: the WAL LIST
// of its WOS replay) must leave it DOWN, not half-recovered and serving;
// the rest of the cluster keeps answering, and a later retry succeeds.
TEST(ClusterRecoveryTest, FailedInstanceRecoveryLeavesNodeDown) {
  SimClock clock;
  SimStoreOptions sopts;
  sopts.get_latency_micros = 0;
  sopts.put_latency_micros = 0;
  sopts.list_latency_micros = 0;
  sopts.delete_latency_micros = 0;
  SimObjectStore store(sopts, &clock);
  FailListUnder faulty(&store, "wal/node2/");
  ClusterOptions copts;
  copts.num_shards = 3;
  copts.k_safety = 2;
  std::vector<NodeSpec> specs;
  for (int i = 1; i <= 4; ++i) {
    specs.push_back(NodeSpec{"node" + std::to_string(i), ""});
  }
  auto created = EonCluster::Create(&faulty, &clock, copts, specs);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<EonCluster> cluster = std::move(created).value();
  ASSERT_TRUE(CreateTable(cluster.get(), "t",
                          Schema({{"id", DataType::kInt64}}), std::nullopt,
                          {ProjectionSpec{"t_super", {}, {"id"}, {"id"}}})
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 300; ++i) rows.push_back(Row{Value::Int(i)});
  ASSERT_TRUE(CopyInto(cluster.get(), "t", rows).ok());
  auto count = [&]() -> int64_t {
    EonSession session(cluster.get());
    QuerySpec q;
    q.scan.table = "t";
    q.scan.columns = {"id"};
    q.aggregates = {{AggFn::kCount, "", "n"}};
    auto r = session.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  };

  ASSERT_TRUE(cluster->DestroyNodeInstance(2).ok());
  faulty.set_armed(true);
  EXPECT_FALSE(cluster->RecoverDestroyedNode(2).ok());
  EXPECT_FALSE(cluster->node(2)->is_up());
  EXPECT_EQ(count(), 300);

  faulty.set_armed(false);
  ASSERT_TRUE(cluster->RecoverDestroyedNode(2).ok());
  EXPECT_TRUE(cluster->node(2)->is_up());
  EXPECT_EQ(count(), 300);
}

TEST_F(ClusterTest, ViabilityShutdownOnQuorumLoss) {
  EXPECT_TRUE(cluster_->IsViable());
  ASSERT_TRUE(cluster_->KillNode(1).ok());
  EXPECT_TRUE(cluster_->IsViable());
  ASSERT_TRUE(cluster_->KillNode(2).ok());
  // 2 of 4 up = no majority: automatic shutdown (Section 3.4).
  EXPECT_FALSE(cluster_->IsViable());
  EXPECT_TRUE(cluster_->is_shutdown());
  CatalogTxn txn;
  EXPECT_TRUE(cluster_->CommitDistributed(3, txn).status().IsUnavailable());
}

TEST_F(ClusterTest, NewInstanceIdAfterRestart) {
  const NodeInstanceId before = cluster_->node(3)->instance_id();
  ASSERT_TRUE(cluster_->KillNode(3).ok());
  ASSERT_TRUE(cluster_->RestartNode(3).ok());
  EXPECT_NE(cluster_->node(3)->instance_id(), before);
}

TEST_F(ClusterTest, ReaperWaitsForQueriesAndTruncation) {
  LoadSomething();
  // Collect the table's container keys (one object per container), then
  // drop them via a fake commit.
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  std::vector<std::string> keys;
  for (const auto& [oid, c] : snapshot->containers) keys.push_back(c.base_key);
  ASSERT_FALSE(keys.empty());
  const uint64_t drop_version = cluster_->node(1)->catalog()->version();

  // A long-running query pins an older version on node 1.
  cluster_->node(1)->RegisterQuery(drop_version - 1);
  cluster_->TrackDroppedFiles(keys, drop_version);
  // Caches dropped immediately...
  EXPECT_FALSE(cluster_->node(1)->cache()->Contains(keys[0]));

  // ...but shared storage is untouched while the query runs.
  auto reaped = cluster_->ReapFiles();
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, 0u);
  EXPECT_TRUE(*store_->Exists(keys[0]));

  cluster_->node(1)->UnregisterQuery(drop_version - 1);
  // Still blocked: the dropping transaction is not durable yet.
  reaped = cluster_->ReapFiles();
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, 0u);

  ASSERT_TRUE(cluster_->SyncAll(true).ok());
  ASSERT_TRUE(cluster_->UpdateClusterInfo().ok());
  ASSERT_GE(cluster_->last_truncation_version(), drop_version);
  reaped = cluster_->ReapFiles();
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, keys.size());
  EXPECT_FALSE(*store_->Exists(keys[0]));
}

TEST_F(ClusterTest, LeakedFileCleanup) {
  LoadSomething();
  // Simulate a crash leak: a file written by a *dead* instance that no
  // catalog references.
  StorageId leaked;
  leaked.instance = NodeInstanceId::Generate(987, 654);
  leaked.local_id = 1;
  const std::string leaked_key = "data/" + leaked.ToString();
  ASSERT_TRUE(store_->Put(leaked_key, "orphan").ok());

  // A file minted by a LIVE instance must be ignored (may be mid-load).
  const std::string inflight_key =
      cluster_->node(1)->MintStorageKey("data/");
  ASSERT_TRUE(store_->Put(inflight_key, "in flight").ok());

  auto cleaned = cluster_->CleanLeakedFiles();
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(*cleaned, 1u);
  EXPECT_FALSE(*store_->Exists(leaked_key));
  EXPECT_TRUE(*store_->Exists(inflight_key));
  // Referenced table data untouched: every container's one object.
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  for (const auto& [oid, c] : snapshot->containers) {
    EXPECT_TRUE(*store_->Exists(c.base_key));
  }
  auto data = store_->List("data/");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), snapshot->containers.size() + 1);  // + in flight.
}

TEST_F(ClusterTest, RebalanceAfterClusterGrowth) {
  LoadSomething();
  // "Add" nodes by registering them in the catalog... our fixture has a
  // fixed node set, so instead verify rebalance is a no-op on a balanced
  // cluster and repairs dropped coverage.
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  auto subs0 = snapshot->SubscribersOf(0, {SubscriptionState::kActive});
  ASSERT_EQ(subs0.size(), 2u);
  ASSERT_TRUE(cluster_->UnsubscribeNode(subs0[0], 0).ok());
  snapshot = cluster_->node(1)->catalog()->snapshot();
  EXPECT_EQ(snapshot->SubscribersOf(0, {SubscriptionState::kActive}).size(),
            1u);

  ASSERT_TRUE(cluster_->Rebalance().ok());
  snapshot = cluster_->node(1)->catalog()->snapshot();
  EXPECT_GE(snapshot->SubscribersOf(0, {SubscriptionState::kActive}).size(),
            2u);
}

TEST_F(ClusterTest, CreateRejectsZeroShards) {
  ClusterOptions bad;
  bad.num_shards = 0;
  EXPECT_TRUE(EonCluster::Create(store_.get(), &clock_, bad,
                                 {NodeSpec{"n", ""}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ClusterTest, MinRunningQueryVersionIsMonotone) {
  Node* node = cluster_->node(1);
  node->RegisterQuery(5);
  EXPECT_EQ(node->MinRunningQueryVersion(), 5u);
  node->UnregisterQuery(5);
  // Idle: reports current catalog version, never less than before.
  uint64_t idle = node->MinRunningQueryVersion();
  EXPECT_GE(idle, 5u);
  node->RegisterQuery(3);  // Older registration cannot move the gossip back.
  EXPECT_GE(node->MinRunningQueryVersion(), idle);
  node->UnregisterQuery(3);
}

}  // namespace
}  // namespace eon

namespace eon {
namespace {

TEST_F(ClusterTest, CommitAbortsWhenParticipantUnsubscribes) {
  LoadSomething();
  auto snapshot = cluster_->node(1)->catalog()->snapshot();
  const std::set<SubscriptionState> all_states = {
      SubscriptionState::kPending, SubscriptionState::kPassive,
      SubscriptionState::kActive, SubscriptionState::kRemoving};

  std::map<ShardId, std::set<Oid>> observed;
  auto subs = snapshot->SubscribersOf(0, all_states);
  for (Oid n : subs) observed[0].insert(n);
  ASSERT_GE(subs.size(), 2u);

  // One observed subscriber drops out before commit (Section 4.5).
  ASSERT_TRUE(cluster_->UnsubscribeNode(subs[0], 0).ok());

  CatalogTxn txn;
  StorageContainerMeta c;
  c.oid = cluster_->node(1)->catalog()->NextOid();
  c.projection_oid = 1;
  c.shard = 0;
  c.base_key = "data/unsub";
  c.num_columns = 1;
  txn.PutContainer(c);
  auto v = cluster_->CommitDistributed(1, txn, &observed);
  EXPECT_TRUE(v.status().IsAborted()) << v.status().ToString();
}

}  // namespace
}  // namespace eon
