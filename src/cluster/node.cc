#include "cluster/node.h"

#include "common/hash.h"

namespace eon {

Node::Node(Oid oid, std::string name, std::string subcluster,
           ObjectStore* shared_storage, Clock* clock,
           const NodeOptions& options, uint64_t seed)
    : oid_(oid),
      name_(std::move(name)),
      subcluster_(std::move(subcluster)),
      shared_(shared_storage),
      clock_(clock),
      options_(options),
      seed_(seed) {
  instance_id_ = NodeInstanceId::Generate(seed_, oid_);
  catalog_ = std::make_unique<Catalog>();
  dc_ = std::make_unique<obs::DataCollector>(name_, clock_, options_.dc);
  // Label this node's cache instruments with the node name so one metrics
  // snapshot distinguishes per-node cache behavior.
  CacheOptions cache_opts = options_.cache;
  if (cache_opts.metrics_name.empty()) cache_opts.metrics_name = name_;
  if (cache_opts.collector == nullptr) cache_opts.collector = dc_.get();
  cache_ = std::make_unique<FileCache>(cache_opts, shared_);
  up_gauge_ = obs::OrDefault(cache_opts.registry)
                  ->GetGauge("eon_node_up", obs::LabelSet{{"node", name_}});
  up_gauge_->Set(1);
  // WAL + WOS live for the whole node lifetime: up/down transitions
  // close/clear them in place (see MarkDown) so in-flight statements
  // never race their destruction.
  if (options_.wos.enabled) {
    wos_ = std::make_unique<Wos>();
    WalOptions wopts;
    wopts.group_commit_micros = options_.wos.group_commit_micros;
    wopts.segment_bytes = options_.wos.wal_segment_bytes;
    wopts.registry = options_.cache.registry;
    wopts.collector = dc_.get();
    wopts.io_pool = options_.cache.io_pool;
    wal_ = std::make_unique<WalWriter>(
        shared_, WalPrefix(), clock_, wopts,
        [this](const WalRecord& record) { wos_->Apply(record); });
  }
}

NodeInstanceId Node::instance_id() const {
  std::lock_guard<std::mutex> lock(instance_mu_);
  return instance_id_;
}

std::string Node::MintStorageKey(const std::string& prefix) {
  StorageId sid;
  {
    std::lock_guard<std::mutex> lock(instance_mu_);
    sid.instance = instance_id_;
    sid.local_id = catalog_->NextOid();
  }
  return prefix + sid.ToString();
}

void Node::RotateInstanceIdLocked() {
  // A fresh process (or a wiped disk) gets a fresh strongly random
  // instance id, preserving SID uniqueness (Figure 7 discussion).
  seed_ = Mix64(seed_ + 0x517CC1B727220A95ULL);
  instance_id_ = NodeInstanceId::Generate(seed_, oid_);
}

std::set<ShardId> Node::SubscribedShards(
    const std::set<SubscriptionState>& states) const {
  std::set<ShardId> out;
  auto snapshot = catalog_->snapshot();
  for (const auto& [key, sub] : snapshot->subscriptions) {
    if (key.first == oid_ && states.count(sub.state)) out.insert(key.second);
  }
  return out;
}

std::set<ShardId> Node::AllSubscribedShards() const {
  return SubscribedShards({SubscriptionState::kPending,
                           SubscriptionState::kPassive,
                           SubscriptionState::kActive,
                           SubscriptionState::kRemoving});
}

void Node::MarkDown() {
  up_ = false;
  up_gauge_->Set(0);
  // Process termination loses the in-memory WOS; the records survive in
  // the shared-storage WAL and RecoverWos replays them on restart. The
  // writer is closed (not destroyed) so buffered-but-uncommitted appends
  // vanish exactly like a crash before group commit, while statements
  // that already hold the pointer fail their Commit cleanly instead of
  // touching freed memory.
  if (wal_ != nullptr) wal_->Close();
  if (wos_ != nullptr) wos_->Clear();
}

void Node::MarkUp() {
  {
    std::lock_guard<std::mutex> lock(instance_mu_);
    RotateInstanceIdLocked();
  }
  up_ = true;
  up_gauge_->Set(1);
}

void Node::DestroyLocalState() {
  {
    // The wiped catalog restarts NextOid at 1: keys minted from here on
    // must not reuse the old instance id, or they could repeat its keys.
    std::lock_guard<std::mutex> lock(instance_mu_);
    RotateInstanceIdLocked();
    catalog_->ReplaceWith(Catalog());
  }
  cache_->Clear();
  sync_.reset();
  // Instance loss wipes the memtable with the rest of local state; the
  // WAL lives on shared storage and survives for RecoverWos. Close/clear
  // in place — in-flight statements may still hold the pointers.
  if (wal_ != nullptr) wal_->Close();
  if (wos_ != nullptr) wos_->Clear();
  up_ = false;
  up_gauge_->Set(0);
}

void Node::ReplaceCatalog(std::unique_ptr<Catalog> catalog) {
  catalog_->ReplaceWith(std::move(*catalog));
}

void Node::SetIncarnation(const IncarnationId& incarnation) {
  sync_ = std::make_unique<CatalogSync>(shared_, incarnation, oid_);
  sync_->set_checkpoint_every(options_.sync_checkpoint_every);
}

void Node::RegisterQuery(uint64_t version) {
  std::lock_guard<std::mutex> lock(query_mu_);
  running_query_versions_.insert(version);
}

void Node::UnregisterQuery(uint64_t version) {
  std::lock_guard<std::mutex> lock(query_mu_);
  auto it = running_query_versions_.find(version);
  if (it != running_query_versions_.end()) {
    running_query_versions_.erase(it);
  }
}

Status Node::RecoverWos() {
  if (!options_.wos.enabled || wal_ == nullptr) return Status::OK();
  wos_->Clear();
  wal_->Reopen();

  EON_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(shared_, WalPrefix()));
  for (const WalRecord& record : replay.records) wos_->Apply(record);
  // Resume past the checkpoint too, not just the surviving records: a
  // moveout that flushed everything truncates the whole log, leaving
  // max_lsn == 0 with a checkpoint at L. Restarting LSNs at 1 would let
  // subsequently committed inserts land at LSNs <= L — which the NEXT
  // restart's checkpoint filter silently discards.
  const uint64_t resume = std::max(replay.max_lsn, replay.checkpoint_lsn);
  if (resume > 0) {
    wal_->SetNextLsn(resume + 1);
    obs::DcWalEvent e;
    e.kind = "replay";
    e.lsn = resume;
    e.records = replay.records.size();
    dc_->RecordWalEvent(std::move(e));
  }
  return Status::OK();
}

uint64_t Node::MinRunningQueryVersion() const {
  std::lock_guard<std::mutex> lock(query_mu_);
  uint64_t v = running_query_versions_.empty()
                   ? catalog_->version()
                   : *running_query_versions_.begin();
  // "taking care to ensure the reported value is monotonically increasing"
  // (Section 6.5).
  if (v < reported_min_version_) v = reported_min_version_;
  reported_min_version_ = v;
  return v;
}

}  // namespace eon
