#ifndef EON_CLUSTER_NODE_H_
#define EON_CLUSTER_NODE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "cache/file_cache.h"
#include "catalog/catalog.h"
#include "catalog/sync.h"
#include "common/clock.h"
#include "common/sid.h"
#include "storage/object_store.h"
#include "wal/wal.h"
#include "wos/wos.h"

namespace eon {

/// Per-node write-optimized-store configuration (WAL + WOS ingest fast
/// path). Effective values are resolved by EonCluster from the EON_WOS /
/// EON_GROUP_COMMIT_MICROS / EON_WOS_FLUSH_ROWS environment variables.
struct WosNodeOptions {
  bool enabled = true;
  /// Group-commit window passed to the node's WalWriter.
  int64_t group_commit_micros = 200;
  /// WAL segment rotation threshold (bytes).
  uint64_t wal_segment_bytes = 1 << 20;
  /// Moveout trigger: unflushed WOS rows per table at or above this count
  /// snapshot to ROS containers. Conservative upper-bound stand-in for
  /// the per-(projection, shard) threshold (any one shard holds at most
  /// this many rows when the total is below it).
  uint64_t flush_rows = 4096;
};

struct NodeOptions {
  CacheOptions cache;
  uint64_t sync_checkpoint_every = 8;
  /// Ring capacities / slow-query threshold for the node's Data Collector.
  obs::DataCollectorOptions dc;
  WosNodeOptions wos;
};

/// One Eon compute node: a catalog replica (global objects + storage
/// objects of subscribed shards), a file cache, a catalog sync service and
/// a node instance identity.
///
/// Failure model distinguishes (Section 3.5):
///  - process termination (Kill/Restart): local transaction logs survive —
///    the catalog object is retained; a restart mints a new instance id;
///  - instance loss (DestroyInstance): local disk gone — catalog and cache
///    are wiped and must be rebuilt from a peer or by revive.
class Node {
 public:
  Node(Oid oid, std::string name, std::string subcluster,
       ObjectStore* shared_storage, Clock* clock, const NodeOptions& options,
       uint64_t seed);

  Oid oid() const { return oid_; }
  const std::string& name() const { return name_; }
  const std::string& subcluster() const { return subcluster_; }
  bool is_up() const { return up_; }

  Catalog* catalog() { return catalog_.get(); }
  const Catalog* catalog() const { return catalog_.get(); }
  FileCache* cache() { return cache_.get(); }
  /// This node's Data Collector (event rings behind the dc_* system
  /// tables). Never null; survives restarts and instance loss.
  obs::DataCollector* dc() { return dc_.get(); }
  const obs::DataCollector* dc() const { return dc_.get(); }
  CatalogSync* sync() { return sync_.get(); }
  Clock* clock() { return clock_; }
  ObjectStore* shared_storage() { return shared_; }

  /// Write-optimized store (null only when the WOS fast path is disabled
  /// for the cluster). Both objects are NODE-lifetime: down/destroyed
  /// states close or clear them in place rather than freeing them, so a
  /// statement that already picked up the pointer races a node kill into
  /// a clean error, never a use-after-free.
  Wos* wos() { return wos_.get(); }
  const Wos* wos() const { return wos_.get(); }
  WalWriter* wal() { return wal_.get(); }
  bool wos_enabled() const {
    return wal_ != nullptr && wal_->is_open() && wos_ != nullptr;
  }
  const WosNodeOptions& wos_options() const { return options_.wos; }

  /// (Re)build the WOS from the node's WAL on shared storage: clear the
  /// memtable, reopen the writer, replay surviving records (checkpoint-
  /// filtered, torn tails dropped), resume LSN assignment past both the
  /// replayed maximum AND the checkpoint. Called on cluster build,
  /// restart and instance recovery; a no-op when the WOS is disabled.
  Status RecoverWos();

  /// This node's WAL object prefix on shared storage. Keyed by node name
  /// (stable across restarts and instance loss) so recovery always finds
  /// the log.
  std::string WalPrefix() const { return "wal/" + name_ + "/"; }

  NodeInstanceId instance_id() const;

  /// Mint a globally unique storage key under `prefix` ("data/", "dv/").
  /// SID = node instance id + local catalog oid (Figure 7): no
  /// coordination with other nodes, no collisions in the flat namespace.
  /// The pair is read atomically against instance changes: a catalog
  /// wipe restarts the local oids, and it draws a fresh instance id first.
  std::string MintStorageKey(const std::string& prefix);

  /// Shards this node subscribes to in any of `states` (its own catalog's
  /// view of itself).
  std::set<ShardId> SubscribedShards(
      const std::set<SubscriptionState>& states) const;

  /// All shards with a subscription row for this node, any state.
  std::set<ShardId> AllSubscribedShards() const;

  // --- Failure-model transitions; drive via EonCluster, not directly. ---

  /// Process termination: node stops serving; local state retained.
  void MarkDown();
  /// Process restart: new instance id; catalog (local disk) intact.
  void MarkUp();
  /// Instance loss: local disk wiped; fresh empty catalog and cold cache,
  /// under a fresh instance id (the wiped catalog restarts its oids).
  void DestroyLocalState();
  /// Replace the catalog wholesale (metadata rebuild from peer / revive).
  void ReplaceCatalog(std::unique_ptr<Catalog> catalog);

  /// (Re)bind the catalog sync service to a cluster incarnation; metadata
  /// uploads are qualified by it so each revived cluster writes to a
  /// distinct location (Section 3.5).
  void SetIncarnation(const IncarnationId& incarnation);

  // --- Running-query version tracking (file-deletion gossip, §6.5). ---

  /// Register a query running at catalog version `v`; call Unregister when
  /// it finishes. MinRunningQueryVersion feeds the cluster-wide gossip.
  void RegisterQuery(uint64_t version);
  void UnregisterQuery(uint64_t version);

  /// Lowest catalog version any running query on this node reads, or the
  /// node's current version when idle. Monotone non-decreasing as
  /// required by the gossip protocol.
  uint64_t MinRunningQueryVersion() const;

 private:
  /// Draws the next instance id from seed_. Caller holds instance_mu_.
  void RotateInstanceIdLocked();

  const Oid oid_;
  const std::string name_;
  const std::string subcluster_;
  ObjectStore* shared_;
  Clock* clock_;
  const NodeOptions options_;

  /// Guards seed_ and instance_id_, and makes MintStorageKey's
  /// (instance id, catalog oid) read one step against DestroyLocalState.
  mutable std::mutex instance_mu_;
  uint64_t seed_;
  NodeInstanceId instance_id_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<obs::DataCollector> dc_;  ///< Before cache_: cache records into it.
  std::unique_ptr<FileCache> cache_;
  std::unique_ptr<CatalogSync> sync_;
  /// Node-lifetime (created in the constructor when enabled, never
  /// reset): concurrent statements hold raw pointers across node
  /// up/down transitions. wos_ before wal_: the writer applies into it.
  std::unique_ptr<Wos> wos_;
  std::unique_ptr<WalWriter> wal_;
  std::atomic<bool> up_{true};
  obs::Gauge* up_gauge_ = nullptr;  ///< eon_node_up{node=<name>}.

  mutable std::mutex query_mu_;
  std::multiset<uint64_t> running_query_versions_;
  mutable uint64_t reported_min_version_ = 0;  ///< Monotonicity clamp.
};

}  // namespace eon

#endif  // EON_CLUSTER_NODE_H_
