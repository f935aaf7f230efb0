#include "cluster/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/logging.h"

namespace eon {

namespace {

const std::set<SubscriptionState> kServingStates = {
    SubscriptionState::kActive, SubscriptionState::kRemoving};

/// Shard filter for applying one log record to `target`: the node's
/// currently subscribed shards plus any shard this very record subscribes
/// it to (so a subscription + first metadata in one txn still lands).
std::set<ShardId> FilterFor(const Node& target, const TxnLogRecord& record) {
  std::set<ShardId> filter = target.AllSubscribedShards();
  for (const CatalogOp& op : record.ops) {
    if (op.type != CatalogOp::Type::kPutSubscription) continue;
    Slice payload(op.payload);
    Result<Subscription> sub = DeserializeSubscription(&payload);
    if (sub.ok() && sub->node_oid == target.oid()) filter.insert(sub->shard);
  }
  return filter;
}

/// One row in the `dc_subscription_events` system table, recorded into
/// the affected node's collector (Figure 4 lifecycle transitions).
void RecordSubscriptionDc(Node* target, ShardId shard, const char* from,
                          const char* to, const char* reason) {
  if (target == nullptr) return;
  obs::DcSubscriptionEvent e;
  e.shard = shard;
  e.from_state = from;
  e.to_state = to;
  e.reason = reason;
  target->dc()->RecordSubscription(std::move(e));
}

}  // namespace

EonCluster::EonCluster(ObjectStore* shared_storage, Clock* clock,
                       const ClusterOptions& options)
    : shared_(shared_storage), clock_(clock), options_(options) {
  // Node caches inherit the cluster's registry unless set explicitly.
  if (options_.node.cache.registry == nullptr) {
    options_.node.cache.registry = options_.registry;
  }
  obs::MetricsRegistry* reg = obs::OrDefault(options_.registry);
  metrics_.commits = reg->GetCounter("eon_cluster_commits_total");
  metrics_.files_reaped = reg->GetCounter("eon_cluster_files_reaped_total");
  metrics_.pending_deletes = reg->GetGauge("eon_cluster_pending_deletes");
  mover_metrics_.gate_hold_micros =
      reg->GetHistogram("eon_moveout_gate_hold_micros");
  mover_metrics_.queue_wait_micros =
      reg->GetHistogram("eon_moveout_queue_wait_micros");
  mover_metrics_.backpressure_waits =
      reg->GetCounter("eon_wos_backpressure_waits_total");

  ThreadPool::Options pool_options;
  pool_options.num_threads = ResolveExecThreads(options_.exec_threads);
  pool_options.metrics_name = options_.db_name + "-exec";
  pool_options.registry = options_.registry;
  exec_pool_ = std::make_unique<ThreadPool>(pool_options);

  IoPool::Options io_options;
  io_options.num_threads = ResolveIoThreads(options_.io_threads);
  io_options.metrics_name = options_.db_name + "-io";
  io_options.registry = options_.registry;
  io_pool_ = std::make_unique<IoPool>(io_options);
  // Every node cache fetches through the shared I/O pool (BuildNodes
  // copies options_.node into each Node).
  options_.node.cache.io_pool = io_pool_.get();
  prefetch_depth_ = ResolvePrefetchDepth(options_.prefetch_depth);
  pushdown_mode_ = ResolvePushdown(options_.pushdown);
  pushdown_selectivity_cutoff_ =
      ResolvePushdownCutoff(options_.pushdown_selectivity_cutoff);
  trace_sample_ = ResolveTraceSample(options_.trace_sample);
  // Resolve the WOS fast-path knobs into the node options BuildNodes
  // copies into every node.
  options_.node.wos.enabled = ResolveWos(options_.wos);
  options_.node.wos.group_commit_micros =
      ResolveGroupCommitMicros(options_.group_commit_micros);
  options_.node.wos.flush_rows = ResolveWosFlushRows(options_.wos_flush_rows);
}

EonCluster::~EonCluster() { mover_->Stop(); }

bool EonCluster::ResolveWos(int configured) {
  if (configured >= 0) return configured != 0;
  if (const char* env = std::getenv("EON_WOS")) {
    const std::string v(env);
    if (v == "off" || v == "0" || v == "false") return false;
    return true;
  }
  return true;
}

int64_t EonCluster::ResolveGroupCommitMicros(int64_t configured) {
  if (configured >= 0) return configured;
  if (const char* env = std::getenv("EON_GROUP_COMMIT_MICROS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && v >= 0) return static_cast<int64_t>(v);
  }
  return 200;
}

uint64_t EonCluster::ResolveWosFlushRows(int64_t configured) {
  if (configured >= 0) return static_cast<uint64_t>(configured);
  if (const char* env = std::getenv("EON_WOS_FLUSH_ROWS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && v > 0) return static_cast<uint64_t>(v);
  }
  return 4096;
}

int EonCluster::ResolveExecThreads(int configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("EON_EXEC_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(hw == 0 ? 1u : hw, 8u));
}

int EonCluster::ResolveIoThreads(int configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("EON_IO_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 4;
}

int EonCluster::ResolvePrefetchDepth(int configured) {
  if (configured >= 0) return configured;
  if (const char* env = std::getenv("EON_PREFETCH_DEPTH")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 0) return static_cast<int>(v);
  }
  return 4;
}

int EonCluster::ResolvePushdown(int configured) {
  if (configured >= 0) return configured;
  if (const char* env = std::getenv("EON_PUSHDOWN")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 0 && v <= 2) return static_cast<int>(v);
  }
  return 0;
}

double EonCluster::ResolveTraceSample(double configured) {
  if (configured >= 0 && configured <= 1.0) return configured;
  if (configured <= ClusterOptions::kTraceDisabled) return -1.0;
  if (const char* env = std::getenv("EON_TRACE_SAMPLE")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env) return v < 0 ? -1.0 : std::min(v, 1.0);
  }
  return 0.0;  // Armed: collect spans, retain slow/forced traces only.
}

double EonCluster::ResolvePushdownCutoff(double configured) {
  if (configured >= 0) return configured;
  if (const char* env = std::getenv("EON_PUSHDOWN_SELECTIVITY_CUTOFF")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v >= 0 && v <= 1.0) return v;
  }
  return 0.35;
}

Status EonCluster::BuildNodes(const std::vector<NodeSpec>& specs) {
  if (specs.empty()) return Status::InvalidArgument("cluster needs nodes");
  for (size_t i = 0; i < specs.size(); ++i) {
    nodes_.push_back(std::make_unique<Node>(
        static_cast<Oid>(i + 1), specs[i].name, specs[i].subcluster, shared_,
        clock_, options_.node, options_.seed + i * 7919));
    // Replay any surviving WAL into a fresh WOS: a no-op on first
    // creation, the crash-recovery path on revive.
    EON_RETURN_IF_ERROR(nodes_.back()->RecoverWos());
  }
  return Status::OK();
}

Result<std::unique_ptr<EonCluster>> EonCluster::Create(
    ObjectStore* shared_storage, Clock* clock, const ClusterOptions& options,
    const std::vector<NodeSpec>& specs) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  auto cluster = std::unique_ptr<EonCluster>(
      new EonCluster(shared_storage, clock, options));
  EON_RETURN_IF_ERROR(cluster->BuildNodes(specs));
  cluster->incarnation_ =
      IncarnationId::Generate(options.seed, options.seed ^ 0xE0ull);
  for (auto& node : cluster->nodes_) {
    node->SetIncarnation(cluster->incarnation_);
  }

  // Bootstrap transaction: sharding config + node registry.
  CatalogTxn boot;
  ShardingConfig sharding;
  sharding.num_segment_shards = options.num_shards;
  boot.SetSharding(sharding);
  for (size_t i = 0; i < specs.size(); ++i) {
    NodeDef def;
    def.oid = static_cast<Oid>(i + 1);
    def.name = specs[i].name;
    def.subcluster = specs[i].subcluster;
    boot.PutNode(def);
  }
  {
    Result<uint64_t> v = cluster->CommitDistributed(1, boot);
    if (!v.ok()) return v.status();
  }

  // Initial subscription layout: all ACTIVE at creation (data is empty, so
  // there is nothing to transfer or warm).
  auto snapshot = cluster->nodes_[0]->catalog()->snapshot();
  std::vector<NodeDef> defs;
  for (const auto& [oid, def] : snapshot->nodes) defs.push_back(def);
  CatalogTxn subs;
  for (const auto& [node_oid, shard] :
       PlanSubscriptionLayout(*snapshot, defs, options.k_safety)) {
    subs.PutSubscription(
        Subscription{node_oid, shard, SubscriptionState::kActive});
  }
  {
    Result<uint64_t> v = cluster->CommitDistributed(1, subs);
    if (!v.ok()) return v.status();
  }

  EON_RETURN_IF_ERROR(cluster->SyncAll(/*force_checkpoint=*/true));
  EON_RETURN_IF_ERROR(cluster->UpdateClusterInfo());
  return cluster;
}

Node* EonCluster::node(Oid oid) {
  for (auto& n : nodes_) {
    if (n->oid() == oid) return n.get();
  }
  return nullptr;
}

Node* EonCluster::node_by_name(const std::string& name) {
  for (auto& n : nodes_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

std::set<Oid> EonCluster::up_node_oids() const {
  std::set<Oid> out;
  for (const auto& n : nodes_) {
    if (n->is_up()) out.insert(n->oid());
  }
  return out;
}

Node* EonCluster::AnyUpNode() {
  for (auto& n : nodes_) {
    if (n->is_up()) return n.get();
  }
  return nullptr;
}

ShardingConfig EonCluster::sharding() const {
  return nodes_.empty() ? ShardingConfig{}
                        : nodes_.front()->catalog()->snapshot()->sharding;
}

Result<uint64_t> EonCluster::CommitDistributed(
    Oid coordinator, const CatalogTxn& txn,
    const std::map<ShardId, std::set<Oid>>* observed_subscribers) {
  if (read_only_) {
    return Status::NotSupported(
        "this cluster is attached read-only (database sharing)");
  }
  if (shutdown_) return Status::Unavailable("cluster is shut down");
  Node* coord = node(coordinator);
  if (coord == nullptr || !coord->is_up()) {
    return Status::Unavailable("coordinator node is down");
  }

  // Commit point: validation, the coordinator's catalog commit, and the
  // replication of its log record to peers are one atomic section, so
  // records reach every peer in version order even when loads commit
  // concurrently (the prepare work above this point ran lock-free).
  std::lock_guard<std::mutex> commit_lock(commit_mu_);

  // Subscription invariant (Sections 3.2, 4.5): metadata was eagerly
  // pushed to the subscribers observed at planning time. If a shard
  // gained a subscriber since, that subscriber lacks the metadata; if a
  // participant dropped its subscription, it wrote data into a shard it
  // no longer serves. Either way the transaction rolls back.
  if (observed_subscribers != nullptr) {
    auto snapshot = coord->catalog()->snapshot();
    const std::set<SubscriptionState> all_states = {
        SubscriptionState::kPending, SubscriptionState::kPassive,
        SubscriptionState::kActive, SubscriptionState::kRemoving};
    for (const auto& [shard, observed] : *observed_subscribers) {
      std::vector<Oid> current = snapshot->SubscribersOf(shard, all_states);
      for (Oid sub : current) {
        if (!observed.count(sub)) {
          return Status::Aborted(
              "subscription snuck in for shard " + std::to_string(shard) +
              " (node " + std::to_string(sub) + "); transaction rolled back");
        }
      }
      const std::set<Oid> current_set(current.begin(), current.end());
      for (Oid sub : observed) {
        if (!current_set.count(sub)) {
          return Status::Aborted(
              "participant " + std::to_string(sub) +
              " unsubscribed from shard " + std::to_string(shard) +
              " during the transaction; rolled back");
        }
      }
    }
  }

  EON_ASSIGN_OR_RETURN(uint64_t version, coord->catalog()->Commit(txn));
  std::vector<TxnLogRecord> records = coord->catalog()->LogsAfter(version - 1);
  EON_CHECK(!records.empty() && records.back().version == version);
  const TxnLogRecord& record = records.back();

  for (auto& n : nodes_) {
    if (n->oid() == coordinator || !n->is_up()) continue;
    std::set<ShardId> filter = FilterFor(*n, record);
    Status s = n->catalog()->Apply(record, &filter);
    if (!s.ok()) {
      return Status::Internal("replication to node " + n->name() +
                              " failed: " + s.ToString());
    }
  }
  metrics_.commits->Increment();
  return version;
}

Status EonCluster::TransferShardMetadata(Node* target, ShardId shard) {
  // Pick any up source that serves the shard.
  for (auto& n : nodes_) {
    if (n.get() == target || !n->is_up()) continue;
    auto snapshot = n->catalog()->snapshot();
    const Subscription* sub = snapshot->FindSubscription(n->oid(), shard);
    if (sub == nullptr || sub->state != SubscriptionState::kActive) continue;

    std::vector<StorageContainerMeta> containers;
    std::vector<DeleteVectorMeta> dvs;
    for (const auto& [oid, c] : snapshot->containers) {
      if (c.shard == shard) containers.push_back(c);
    }
    for (const auto& [oid, d] : snapshot->delete_vectors) {
      if (d.shard == shard) dvs.push_back(d);
    }
    return target->catalog()->ImportStorageObjects(containers, dvs);
  }
  return Status::Unavailable("no ACTIVE source for shard " +
                             std::to_string(shard));
}

Node* EonCluster::PickWarmPeer(const Node& target, ShardId shard) {
  Node* fallback = nullptr;
  for (auto& n : nodes_) {
    if (n.get() == &target || !n->is_up()) continue;
    auto snapshot = n->catalog()->snapshot();
    const Subscription* sub = snapshot->FindSubscription(n->oid(), shard);
    if (sub == nullptr || sub->state != SubscriptionState::kActive) continue;
    if (n->subcluster() == target.subcluster()) return n.get();
    if (fallback == nullptr) fallback = n.get();
  }
  return fallback;
}

Status EonCluster::SubscribeNode(Oid node_oid, ShardId shard,
                                 bool warm_cache) {
  Node* target = node(node_oid);
  if (target == nullptr || !target->is_up()) {
    return Status::Unavailable("subscribing node is down");
  }
  Node* coord = AnyUpNode();

  // 1. Declare intent: PENDING.
  CatalogTxn pending;
  pending.PutSubscription(
      Subscription{node_oid, shard, SubscriptionState::kPending});
  {
    Result<uint64_t> v = CommitDistributed(coord->oid(), pending);
    if (!v.ok()) return v.status();
  }
  RecordSubscriptionDc(target, shard, "", "PENDING", "subscribe");

  // 2. Metadata transfer from a source subscriber, then PASSIVE. (The
  //    paper transfers checkpoint/log rounds then takes a brief commit
  //    lock for the remainder; our synchronous commit path keeps nodes in
  //    lockstep, so a snapshot import is the equivalent.)
  EON_RETURN_IF_ERROR(TransferShardMetadata(target, shard));
  CatalogTxn passive;
  passive.PutSubscription(
      Subscription{node_oid, shard, SubscriptionState::kPassive});
  {
    Result<uint64_t> v = CommitDistributed(coord->oid(), passive);
    if (!v.ok()) return v.status();
  }
  RecordSubscriptionDc(target, shard, "PENDING", "PASSIVE",
                       "metadata transferred");

  // 3. Optional cache warm from a peer (PASSIVE → ACTIVE; subscribers that
  //    skip warming jump straight to ACTIVE).
  if (warm_cache) {
    Node* peer = PickWarmPeer(*target, shard);
    if (peer != nullptr) {
      const uint64_t budget = target->cache()->capacity_bytes() -
                              std::min(target->cache()->capacity_bytes(),
                                       target->cache()->size_bytes());
      std::vector<std::string> mru = peer->cache()->MostRecentlyUsed(budget);
      PeerCacheFetcher peer_fetcher(peer->cache());
      EON_RETURN_IF_ERROR(target->cache()->WarmFrom(mru, &peer_fetcher));
    }
  }

  CatalogTxn active;
  active.PutSubscription(
      Subscription{node_oid, shard, SubscriptionState::kActive});
  Result<uint64_t> v = CommitDistributed(coord->oid(), active);
  if (!v.ok()) return v.status();
  RecordSubscriptionDc(target, shard, "PASSIVE", "ACTIVE",
                       "subscribe complete");
  return Status::OK();
}

Status EonCluster::UnsubscribeNode(Oid node_oid, ShardId shard) {
  Node* target = node(node_oid);
  if (target == nullptr) return Status::NotFound("no such node");
  Node* coord = AnyUpNode();

  // 1. Declare intent: REMOVING (keeps serving queries meanwhile).
  CatalogTxn removing;
  removing.PutSubscription(
      Subscription{node_oid, shard, SubscriptionState::kRemoving});
  {
    Result<uint64_t> v = CommitDistributed(coord->oid(), removing);
    if (!v.ok()) return v.status();
  }
  RecordSubscriptionDc(target, shard, "ACTIVE", "REMOVING", "unsubscribe");

  // 2. Fault-tolerance gate: enough OTHER ACTIVE subscribers must exist.
  auto snapshot = coord->catalog()->snapshot();
  int other_active = 0;
  for (Oid n : snapshot->SubscribersOf(shard, {SubscriptionState::kActive})) {
    if (n != node_oid) other_active++;
  }
  const int required = std::max(1, options_.k_safety - 1);
  if (other_active < required) {
    return Status::Unavailable(
        "cannot drop subscription: shard " + std::to_string(shard) +
        " would lose fault tolerance (have " + std::to_string(other_active) +
        " other ACTIVE, need " + std::to_string(required) + ")");
  }

  // 3. Drop the shard's metadata, purge cached files, drop subscription.
  std::vector<std::string> cached_keys;
  {
    auto s = target->catalog()->snapshot();
    for (const auto& [oid, c] : s->containers) {
      if (c.shard == shard) cached_keys.push_back(c.base_key);
    }
    for (const auto& [oid, d] : s->delete_vectors) {
      if (d.shard == shard) cached_keys.push_back(d.key);
    }
  }
  EON_RETURN_IF_ERROR(target->catalog()->PurgeShard(shard));
  for (const std::string& key : cached_keys) target->cache()->Drop(key);

  CatalogTxn drop;
  drop.DropSubscription(node_oid, shard);
  Result<uint64_t> v = CommitDistributed(coord->oid(), drop);
  if (!v.ok()) return v.status();
  RecordSubscriptionDc(target, shard, "REMOVING", "", "dropped");
  return Status::OK();
}

Status EonCluster::Rebalance(bool warm_cache) {
  Node* coord = AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  std::vector<NodeDef> defs;
  for (const auto& [oid, def] : snapshot->nodes) {
    Node* n = node(oid);
    if (n != nullptr && n->is_up()) defs.push_back(def);
  }
  auto desired = PlanSubscriptionLayout(*snapshot, defs, options_.k_safety);

  // Create missing subscriptions first (subscribe-before-unsubscribe keeps
  // shards fault tolerant throughout, Section 3.3).
  std::set<std::pair<Oid, ShardId>> want(desired.begin(), desired.end());
  for (const auto& [node_oid, shard] : desired) {
    if (snapshot->FindSubscription(node_oid, shard) == nullptr) {
      EON_RETURN_IF_ERROR(SubscribeNode(node_oid, shard, warm_cache));
    }
  }
  // Then retire extras.
  snapshot = coord->catalog()->snapshot();
  std::vector<std::pair<Oid, ShardId>> extras;
  for (const auto& [key, sub] : snapshot->subscriptions) {
    Node* n = node(key.first);
    if (n == nullptr || !n->is_up()) continue;  // Handled by node recovery.
    if (!want.count(key)) extras.push_back(key);
  }
  for (const auto& [node_oid, shard] : extras) {
    Status s = UnsubscribeNode(node_oid, shard);
    if (s.IsUnavailable()) continue;  // Keep it: fault tolerance first.
    EON_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status EonCluster::KillNode(Oid node_oid) {
  Node* target = node(node_oid);
  if (target == nullptr) return Status::NotFound("no such node");
  {
    std::unique_lock<std::mutex> gate;
    if (target->wos() != nullptr) gate = target->wos()->LockGate();
    target->MarkDown();
  }
  CheckViabilityAndMaybeShutdown();
  return Status::OK();
}

Status EonCluster::BringNodeUpToDate(Node* target) {
  Node* peer = nullptr;
  for (auto& n : nodes_) {
    if (n.get() != target && n->is_up()) {
      peer = n.get();
      break;
    }
  }
  if (peer == nullptr) return Status::Unavailable("no peer to catch up from");
  for (const TxnLogRecord& rec :
       peer->catalog()->LogsAfter(target->catalog()->version())) {
    std::set<ShardId> filter = FilterFor(*target, rec);
    EON_RETURN_IF_ERROR(target->catalog()->Apply(rec, &filter));
  }
  return Status::OK();
}

Status EonCluster::WarmNodeCache(Node* target) {
  for (ShardId shard : target->SubscribedShards({SubscriptionState::kActive,
                                                 SubscriptionState::kPassive,
                                                 SubscriptionState::kPending})) {
    Node* peer = PickWarmPeer(*target, shard);
    if (peer == nullptr) continue;
    const uint64_t cap = target->cache()->capacity_bytes();
    const uint64_t used = target->cache()->size_bytes();
    std::vector<std::string> mru =
        peer->cache()->MostRecentlyUsed(cap - std::min(cap, used));
    PeerCacheFetcher fetcher(peer->cache());
    EON_RETURN_IF_ERROR(target->cache()->WarmFrom(mru, &fetcher));
  }
  return Status::OK();
}

Status EonCluster::ResubscribeNode(Node* target, bool warm_cache) {
  Node* coord = AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");

  // "A transaction transitions all of the ACTIVE subscriptions for the
  // recovering node to PENDING, effectively forcing a re-subscription"
  // (Section 3.3).
  std::set<ShardId> to_resubscribe =
      target->SubscribedShards({SubscriptionState::kActive});
  if (!to_resubscribe.empty()) {
    CatalogTxn to_pending;
    for (ShardId s : to_resubscribe) {
      to_pending.PutSubscription(
          Subscription{target->oid(), s, SubscriptionState::kPending});
    }
    Result<uint64_t> v = CommitDistributed(coord->oid(), to_pending);
    if (!v.ok()) return v.status();
    for (ShardId s : to_resubscribe) {
      RecordSubscriptionDc(target, s, "ACTIVE", "PENDING", "node recovery");
    }
  }

  // Re-subscription is incremental: metadata diffs arrived with the log
  // replay; the lukewarm cache transfers fewer files (Section 6.1).
  if (warm_cache) EON_RETURN_IF_ERROR(WarmNodeCache(target));

  CatalogTxn to_active;
  for (ShardId s : to_resubscribe) {
    to_active.PutSubscription(
        Subscription{target->oid(), s, SubscriptionState::kActive});
  }
  if (!to_resubscribe.empty()) {
    Result<uint64_t> v = CommitDistributed(coord->oid(), to_active);
    if (!v.ok()) return v.status();
    for (ShardId s : to_resubscribe) {
      RecordSubscriptionDc(target, s, "PENDING", "ACTIVE", "resubscribed");
    }
  }
  return Status::OK();
}

Status EonCluster::RestartNode(Oid node_oid, bool warm_cache) {
  Node* target = node(node_oid);
  if (target == nullptr) return Status::NotFound("no such node");
  if (target->is_up()) return Status::InvalidArgument("node is already up");
  // Catch up on log records missed while down (local logs survived the
  // process termination; only the delta transfers).
  return ComeUp(target, warm_cache, std::unique_lock<std::mutex>(commit_mu_),
                [&] { return BringNodeUpToDate(target); });
}

Status EonCluster::ComeUp(Node* target, bool warm_cache,
                          std::unique_lock<std::mutex> commit_lock,
                          const std::function<Status()>& catch_up) {
  // Under the commit lock, coming up and catching up are one step for
  // concurrent commits: a commit that saw the node up before its catalog
  // caught up would replicate onto a stale version, or race the catch-up
  // into applying the same record twice.
  target->MarkUp();
  target->SetIncarnation(incarnation_);
  // The WAL lives on shared storage: replay restores committed WOS rows
  // lost with the old process's memory or the instance's local disk.
  Status s = target->RecoverWos();
  if (s.ok()) s = catch_up();
  if (s.ok()) {
    commit_lock.unlock();
    s = ResubscribeNode(target, warm_cache);
  }
  if (!s.ok()) {
    // "Failure to resubscribe is a critical failure ... the node goes
    // down to ensure visibility to the administrator" (Section 6.1): a
    // half-recovered node must never serve.
    target->MarkDown();
    return s;
  }
  CheckViabilityAndMaybeShutdown();
  return Status::OK();
}

Status EonCluster::DestroyNodeInstance(Oid node_oid) {
  Node* target = node(node_oid);
  if (target == nullptr) return Status::NotFound("no such node");
  {
    std::unique_lock<std::mutex> gate;  // As KillNode.
    if (target->wos() != nullptr) gate = target->wos()->LockGate();
    // No commit replicates onto the catalog being wiped. Gate before
    // commit lock: the order moveout takes them in.
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    target->DestroyLocalState();
  }
  CheckViabilityAndMaybeShutdown();
  return Status::OK();
}

Status EonCluster::RecoverDestroyedNode(Oid node_oid, bool warm_cache) {
  Node* target = node(node_oid);
  if (target == nullptr) return Status::NotFound("no such node");
  Node* peer = nullptr;
  for (auto& n : nodes_) {
    if (n.get() != target && n->is_up()) {
      peer = n.get();
      break;
    }
  }
  if (peer == nullptr) {
    return Status::Unavailable("no peer to rebuild metadata from");
  }

  // Rebuild metadata wholesale from a peer: instance loss loses no
  // transactions (Section 3.5). The peer checkpoint contains global
  // objects plus the peer's shards; this node's shard metadata is
  // re-imported from ACTIVE subscribers before the node comes up. The
  // commit lock spans checkpoint through import: a commit in between
  // would skip the still-down node and leave it a version behind.
  std::unique_lock<std::mutex> commit_lock(commit_mu_);
  std::string ckpt = peer->catalog()->SerializeCheckpoint();
  std::set<ShardId> filter = {};  // Storage objects re-imported below.
  EON_ASSIGN_OR_RETURN(
      std::unique_ptr<Catalog> rebuilt,
      Catalog::Restore(ckpt, {}, peer->catalog()->version(), &filter));
  target->ReplaceCatalog(std::move(rebuilt));
  return ComeUp(target, warm_cache, std::move(commit_lock), [&]() -> Status {
    for (ShardId shard : target->SubscribedShards(
             {SubscriptionState::kActive, SubscriptionState::kPassive,
              SubscriptionState::kPending, SubscriptionState::kRemoving})) {
      EON_RETURN_IF_ERROR(TransferShardMetadata(target, shard));
    }
    return Status::OK();
  });
}

bool EonCluster::IsViable() const {
  const std::set<Oid> up = up_node_oids();
  if (up.size() * 2 <= nodes_.size()) return false;  // Quorum lost.
  const Node* any = nullptr;
  for (const auto& n : nodes_) {
    if (n->is_up()) {
      any = n.get();
      break;
    }
  }
  if (any == nullptr) return false;
  auto snapshot = any->catalog()->snapshot();
  for (ShardId s = 0; s < snapshot->sharding.num_segment_shards; ++s) {
    bool covered = false;
    for (Oid n : snapshot->SubscribersOf(s, kServingStates)) {
      if (up.count(n)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

void EonCluster::CheckViabilityAndMaybeShutdown() {
  if (!IsViable()) {
    // "If sufficient nodes fail such that the constraints are violated,
    // the cluster will shutdown automatically to avoid divergence or
    // wrong answers" (Section 3.4).
    shutdown_ = true;
  } else {
    shutdown_ = false;
  }
}

Status EonCluster::SyncAll(bool force_checkpoint) {
  for (auto& n : nodes_) {
    if (!n->is_up() || n->sync() == nullptr) continue;
    EON_RETURN_IF_ERROR(n->sync()->SyncNow(*n->catalog(), force_checkpoint));
    EON_RETURN_IF_ERROR(n->sync()->DeleteStale());
  }
  return Status::OK();
}

Status EonCluster::UpdateClusterInfo() {
  Node* any = AnyUpNode();
  if (any == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = any->catalog()->snapshot();

  std::map<Oid, uint64_t> upper;
  for (auto& n : nodes_) {
    if (n->sync() == nullptr) continue;
    EON_ASSIGN_OR_RETURN(SyncInterval interval,
                         ReadSyncInterval(shared_, incarnation_, n->oid()));
    if (interval.upper > 0) upper[n->oid()] = interval.upper;
  }
  last_truncation_ = ComputeTruncationVersion(*snapshot, upper);

  ClusterInfo info;
  info.truncation_version = last_truncation_;
  info.incarnation = incarnation_;
  info.timestamp_micros = clock_->NowMicros();
  info.lease_expiry_micros =
      clock_->NowMicros() + options_.lease_duration_micros;
  info.database_name = options_.db_name;
  for (const auto& n : nodes_) info.node_names.push_back(n->name());
  return info.WriteTo(shared_);
}

Result<std::unique_ptr<EonCluster>> EonCluster::Revive(
    ObjectStore* shared_storage, Clock* clock, const ClusterOptions& options,
    const std::vector<NodeSpec>& specs) {
  EON_ASSIGN_OR_RETURN(ClusterInfo info, ClusterInfo::ReadLatest(shared_storage));
  if (info.lease_expiry_micros > clock->NowMicros()) {
    return Status::Unavailable(
        "revive aborted: another cluster's lease on this storage location "
        "has not expired");
  }
  if (specs.size() != info.node_names.size()) {
    return Status::InvalidArgument(
        "revive requires the same node count as the previous cluster (" +
        std::to_string(info.node_names.size()) + ")");
  }

  auto cluster = std::unique_ptr<EonCluster>(
      new EonCluster(shared_storage, clock, options));
  EON_RETURN_IF_ERROR(cluster->BuildNodes(specs));

  // Download each node's catalog to the best version at or below the
  // truncation version; anything past it is discarded (truncation).
  const uint64_t target = info.truncation_version;
  Node* most_advanced = nullptr;
  for (auto& n : cluster->nodes_) {
    Result<SyncInterval> interval =
        ReadSyncInterval(shared_storage, info.incarnation, n->oid());
    if (!interval.ok()) return interval.status();
    const uint64_t achievable = std::min<uint64_t>(interval->upper, target);
    if (achievable == 0) continue;  // Node never synced; repaired below.
    EON_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                         DownloadCatalog(shared_storage, info.incarnation,
                                         n->oid(), achievable));
    n->ReplaceCatalog(std::move(catalog));
    if (most_advanced == nullptr ||
        n->catalog()->version() > most_advanced->catalog()->version()) {
      most_advanced = n.get();
    }
  }
  if (most_advanced == nullptr ||
      most_advanced->catalog()->version() < target) {
    return Status::Corruption(
        "revive: no node's uploads reach the truncation version");
  }
  // Repair nodes that stopped short of the truncation version using the
  // most advanced node's (complete) log records.
  for (auto& n : cluster->nodes_) {
    if (n->catalog()->version() >= target) continue;
    for (const TxnLogRecord& rec :
         most_advanced->catalog()->LogsAfter(n->catalog()->version())) {
      if (rec.version > target) break;
      std::set<ShardId> filter = FilterFor(*n, rec);
      EON_RETURN_IF_ERROR(n->catalog()->Apply(rec, &filter));
    }
    if (n->catalog()->version() != target) {
      return Status::Corruption("revive: node " + n->name() +
                                " cannot reach the truncation version");
    }
  }

  // Adopt a fresh incarnation so the revived cluster's metadata uploads go
  // to a distinct location; the new cluster_info.json is the commit point.
  cluster->incarnation_ = IncarnationId::Generate(
      options.seed ^ info.incarnation.lo, clock->NowMicros() + 1);
  for (auto& n : cluster->nodes_) {
    n->MarkUp();
    n->SetIncarnation(cluster->incarnation_);
  }
  cluster->last_truncation_ = target;
  EON_RETURN_IF_ERROR(cluster->SyncAll(/*force_checkpoint=*/true));
  EON_RETURN_IF_ERROR(cluster->UpdateClusterInfo());
  return cluster;
}

Result<std::unique_ptr<EonCluster>> EonCluster::AttachReadOnly(
    ObjectStore* shared_storage, Clock* clock, const ClusterOptions& options,
    const std::vector<NodeSpec>& specs) {
  // Readers never take the lease: they do not conflict with the running
  // writer or with each other.
  EON_ASSIGN_OR_RETURN(ClusterInfo info,
                       ClusterInfo::ReadLatest(shared_storage));
  if (specs.size() != info.node_names.size()) {
    return Status::InvalidArgument(
        "read-only attach requires the same node count as the source (" +
        std::to_string(info.node_names.size()) + ")");
  }
  auto cluster = std::unique_ptr<EonCluster>(
      new EonCluster(shared_storage, clock, options));
  // Readers never ingest and must not adopt (or replay) the writer
  // cluster's write-ahead logs.
  cluster->options_.node.wos.enabled = false;
  EON_RETURN_IF_ERROR(cluster->BuildNodes(specs));
  cluster->read_only_ = true;
  cluster->incarnation_ = info.incarnation;  // Source provenance.
  cluster->last_truncation_ = info.truncation_version;

  const uint64_t target = info.truncation_version;
  if (target == 0) {
    return Status::Unavailable("source database has no durable version yet");
  }
  for (auto& n : cluster->nodes_) {
    EON_ASSIGN_OR_RETURN(
        std::unique_ptr<Catalog> catalog,
        DownloadCatalog(shared_storage, info.incarnation, n->oid(), target));
    n->ReplaceCatalog(std::move(catalog));
    n->MarkUp();
    // No sync service: readers never upload metadata.
  }
  return cluster;
}

Result<uint64_t> EonCluster::RefreshReadOnly() {
  if (!read_only_) {
    return Status::InvalidArgument("cluster is not a read-only attachment");
  }
  EON_ASSIGN_OR_RETURN(ClusterInfo info, ClusterInfo::ReadLatest(shared_));
  if (info.incarnation != incarnation_) {
    return Status::NotSupported(
        "source database was revived under a new incarnation; re-attach");
  }
  const uint64_t target = info.truncation_version;
  Node* any = AnyUpNode();
  if (any == nullptr) return Status::Unavailable("no up nodes");
  const uint64_t current = any->catalog()->version();
  if (target <= current) return 0;

  // Find a source node whose uploaded log stream covers (current, target].
  Oid source_node = kInvalidOid;
  for (size_t i = 1; i <= info.node_names.size(); ++i) {
    EON_ASSIGN_OR_RETURN(
        SyncInterval interval,
        ReadSyncInterval(shared_, incarnation_, static_cast<Oid>(i)));
    if (interval.upper >= target) {
      source_node = static_cast<Oid>(i);
      break;
    }
  }
  if (source_node == kInvalidOid) {
    return Status::Unavailable("no source node's uploads reach the target");
  }

  const std::string prefix =
      CatalogSync::NodePrefixFor(incarnation_, source_node);
  EON_ASSIGN_OR_RETURN(std::vector<ObjectMeta> log_objects,
                       shared_->List(prefix + "log_"));
  std::vector<TxnLogRecord> records;
  for (const ObjectMeta& m : log_objects) {
    const uint64_t v = strtoull(m.key.c_str() + prefix.size() + 4, nullptr, 10);
    if (v <= current || v > target) continue;
    EON_ASSIGN_OR_RETURN(std::string data, shared_->Get(m.key));
    EON_ASSIGN_OR_RETURN(TxnLogRecord rec, TxnLogRecord::Deserialize(data));
    records.push_back(std::move(rec));
  }
  std::sort(records.begin(), records.end(),
            [](const TxnLogRecord& a, const TxnLogRecord& b) {
              return a.version < b.version;
            });
  for (auto& n : nodes_) {
    if (!n->is_up()) continue;
    for (const TxnLogRecord& rec : records) {
      if (rec.version <= n->catalog()->version()) continue;
      std::set<ShardId> filter = FilterFor(*n, rec);
      Status s = n->catalog()->Apply(rec, &filter);
      if (!s.ok()) {
        // Trimmed logs leave a gap: fall back to a full catalog download.
        EON_ASSIGN_OR_RETURN(
            std::unique_ptr<Catalog> catalog,
            DownloadCatalog(shared_, incarnation_, n->oid(), target));
        n->ReplaceCatalog(std::move(catalog));
        break;
      }
    }
    if (n->catalog()->version() != target) {
      EON_ASSIGN_OR_RETURN(
          std::unique_ptr<Catalog> catalog,
          DownloadCatalog(shared_, incarnation_, n->oid(), target));
      n->ReplaceCatalog(std::move(catalog));
    }
  }
  last_truncation_ = target;
  return target - current;
}

void EonCluster::TrackDroppedFiles(const std::vector<std::string>& keys,
                                   uint64_t drop_version) {
  for (const std::string& key : keys) {
    // Local reference count is zero: leave every cache immediately.
    for (auto& n : nodes_) n->cache()->Drop(key);
    pending_deletes_.push_back(PendingFileDelete{key, drop_version});
  }
  metrics_.pending_deletes->Set(static_cast<int64_t>(pending_deletes_.size()));
}

Result<uint64_t> EonCluster::ReapFiles() {
  // Gossiped minimum running-query version across up nodes.
  uint64_t min_query_version = UINT64_MAX;
  for (auto& n : nodes_) {
    if (n->is_up()) {
      min_query_version =
          std::min(min_query_version, n->MinRunningQueryVersion());
    }
  }
  if (min_query_version == UINT64_MAX) {
    return Status::Unavailable("no up nodes");
  }

  uint64_t deleted = 0;
  std::vector<PendingFileDelete> remaining;
  for (const PendingFileDelete& pd : pending_deletes_) {
    // Safe when (a) no running query anywhere reads a version older than
    // the dropping commit (queries at or past it cannot see the file) and
    // (b) the dropping transaction is durable (past truncation version) —
    // otherwise a catastrophic metadata loss could revive the reference.
    if (min_query_version >= pd.drop_version &&
        last_truncation_ >= pd.drop_version) {
      Status s = shared_->Delete(pd.key);
      if (s.ok() || s.IsNotFound()) {
        deleted++;
        continue;
      }
    }
    remaining.push_back(pd);
  }
  pending_deletes_ = std::move(remaining);
  metrics_.files_reaped->Increment(deleted);
  metrics_.pending_deletes->Set(static_cast<int64_t>(pending_deletes_.size()));
  return deleted;
}

Result<uint64_t> EonCluster::CleanLeakedFiles() {
  // Aggregate every referenced key from all nodes' reference counters.
  std::set<std::string> referenced;
  for (auto& n : nodes_) {
    auto snapshot = n->catalog()->snapshot();
    for (const auto& [oid, c] : snapshot->containers) {
      referenced.insert(c.base_key);
    }
    for (const auto& [oid, d] : snapshot->delete_vectors) {
      referenced.insert(d.key);
    }
  }
  for (const PendingFileDelete& pd : pending_deletes_) {
    referenced.insert(pd.key);
  }
  // Ignore storage minted by currently running node instances — it may be
  // mid-operation and not yet announced (Section 6.5).
  std::set<std::string> live_instances;
  for (auto& n : nodes_) {
    if (n->is_up()) live_instances.insert(n->instance_id().ToHex());
  }

  uint64_t deleted = 0;
  for (const std::string& prefix : {std::string("data/"), std::string("dv/")}) {
    EON_ASSIGN_OR_RETURN(std::vector<ObjectMeta> objects,
                         shared_->List(prefix));
    for (const ObjectMeta& m : objects) {
      if (referenced.count(m.key)) continue;
      // Key layout: <prefix><48-hex SID>; instance id is hex chars
      // [2, 32) of the SID.
      const std::string sid_part = m.key.substr(prefix.size());
      if (sid_part.size() >= 32 &&
          live_instances.count(sid_part.substr(2, 30))) {
        continue;
      }
      Status s = shared_->Delete(m.key);
      if (s.ok()) deleted++;
    }
  }
  return deleted;
}

}  // namespace eon
