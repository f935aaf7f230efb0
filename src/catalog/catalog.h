#ifndef EON_CATALOG_CATALOG_H_
#define EON_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/objects.h"
#include "common/result.h"

namespace eon {

/// One mutation within a catalog transaction. Storage-object operations
/// carry the shard whose subscribers must receive them; global-object
/// operations use kGlobalShard and reach every node (Section 3.1).
struct CatalogOp {
  enum class Type : uint8_t {
    kSetSharding = 0,
    kPutTable = 1,
    kDropTable = 2,
    kPutProjection = 3,
    kDropProjection = 4,
    kPutContainer = 5,
    kDropContainer = 6,
    kPutDeleteVector = 7,
    kDropDeleteVector = 8,
    kPutSubscription = 9,
    kDropSubscription = 10,
    kPutNode = 11,
    kDropNode = 12,
  };

  Type type = Type::kPutTable;
  ShardId shard = kGlobalShard;
  Oid oid = kInvalidOid;  ///< Target oid for drops.
  std::string payload;    ///< Serialized object for puts.

  bool IsGlobal() const { return shard == kGlobalShard; }
};

/// A committed transaction: the redo-log unit. Logs are totally ordered by
/// `version` (Section 2.4).
struct TxnLogRecord {
  uint64_t version = 0;
  std::vector<CatalogOp> ops;

  std::string Serialize() const;
  static Result<TxnLogRecord> Deserialize(Slice data);
};

/// Immutable snapshot of all catalog objects at one version. Read
/// operations see a consistent snapshot; commits produce a new state
/// (copy-on-write MVCC, Section 2.4).
struct CatalogState {
  uint64_t version = 0;
  ShardingConfig sharding;
  std::map<Oid, TableDef> tables;
  std::map<Oid, ProjectionDef> projections;
  std::map<Oid, StorageContainerMeta> containers;
  std::map<Oid, DeleteVectorMeta> delete_vectors;
  std::map<Oid, NodeDef> nodes;
  std::map<std::pair<Oid, ShardId>, Subscription> subscriptions;
  /// Per-object last-modified version, the OCC validation input
  /// (Section 6.3).
  std::map<Oid, uint64_t> mod_versions;

  const TableDef* FindTableByName(const std::string& name) const;
  const TableDef* FindTable(Oid oid) const;
  const ProjectionDef* FindProjection(Oid oid) const;
  std::vector<const ProjectionDef*> ProjectionsOf(Oid table_oid) const;
  /// Containers of a projection, optionally restricted to one shard.
  std::vector<const StorageContainerMeta*> ContainersOf(
      Oid projection_oid, ShardId shard = kGlobalShard) const;
  std::vector<const DeleteVectorMeta*> DeleteVectorsOf(
      Oid container_oid) const;
  const Subscription* FindSubscription(Oid node, ShardId shard) const;
  /// Node oids subscribed to `shard` in any of the given states.
  std::vector<Oid> SubscribersOf(
      ShardId shard, const std::set<SubscriptionState>& states) const;
  /// Modification version of an object (0 if never modified).
  uint64_t ModVersion(Oid oid) const;
};

/// A transaction under construction: a list of ops plus the OCC write-set
/// of expected object versions. Build offline, then Catalog::Commit
/// validates and applies atomically (Section 6.3's optimistic concurrency).
class CatalogTxn {
 public:
  void SetSharding(const ShardingConfig& cfg);
  void PutTable(const TableDef& t);
  void DropTable(Oid oid);
  void PutProjection(const ProjectionDef& p);
  void DropProjection(Oid oid);
  void PutContainer(const StorageContainerMeta& c);
  void DropContainer(Oid oid, ShardId shard);
  void PutDeleteVector(const DeleteVectorMeta& d);
  void DropDeleteVector(Oid oid, ShardId shard);
  void PutSubscription(const Subscription& s);
  void DropSubscription(Oid node, ShardId shard);
  void PutNode(const NodeDef& n);
  void DropNode(Oid oid);

  /// Record that this transaction read `oid` at modification version
  /// `version`; commit validates the object is unchanged (OCC read set).
  void ExpectVersion(Oid oid, uint64_t version);

  bool empty() const { return ops_.empty(); }
  const std::vector<CatalogOp>& ops() const { return ops_; }
  const std::map<Oid, uint64_t>& expected_versions() const {
    return expected_;
  }

 private:
  std::vector<CatalogOp> ops_;
  std::map<Oid, uint64_t> expected_;
};

/// The catalog: MVCC object store + monotonic version counter + redo log.
/// Each node owns one Catalog; in Eon mode the cluster layer replicates
/// committed log records to shard subscribers via Apply().
///
/// Thread-safe: snapshot() is wait-free for readers holding the returned
/// shared_ptr; Commit/Apply serialize internally.
class Catalog {
 public:
  Catalog();

  /// Current consistent snapshot.
  std::shared_ptr<const CatalogState> snapshot() const;
  uint64_t version() const;

  /// Mint a fresh catalog OID (the local-id half of storage identifiers).
  Oid NextOid();

  /// Validate the txn's OCC read set against current object versions and
  /// apply atomically. Returns the new catalog version, or Aborted on
  /// conflict (the caller retries: re-read, re-prepare, re-commit).
  Result<uint64_t> Commit(const CatalogTxn& txn);

  /// Apply a replicated log record. `shard_filter`, when set, drops
  /// storage-object ops for unsubscribed shards (nodes track only their
  /// shards' storage metadata, Section 3.1); global ops always apply.
  /// The record version must be exactly version()+1.
  Status Apply(const TxnLogRecord& record,
               const std::set<ShardId>* shard_filter = nullptr);

  /// All retained log records with version > `after_version`, in order.
  std::vector<TxnLogRecord> LogsAfter(uint64_t after_version) const;

  /// Subscription metadata transfer (Section 3.3): bulk-import the storage
  /// objects of a newly subscribed shard from a source node's snapshot.
  /// Mutates current state without a version bump — these objects were
  /// committed at earlier versions this node skipped under its shard
  /// filter, so version semantics are unchanged.
  Status ImportStorageObjects(
      const std::vector<StorageContainerMeta>& containers,
      const std::vector<DeleteVectorMeta>& delete_vectors);

  /// Drop all storage objects of `shard` from this node's state
  /// (unsubscription drop-metadata step, Figure 4). No version bump.
  Status PurgeShard(ShardId shard);

  /// Take over `other`'s state, log and OID cursor in place. The object
  /// itself stays, so a node's catalog pointer never dangles under
  /// concurrent readers, and snapshots they hold stay valid.
  void ReplaceWith(Catalog&& other);

  /// Serialize the current full state (a checkpoint, Section 2.4).
  std::string SerializeCheckpoint() const;

  /// Rebuild a catalog from a checkpoint plus subsequent log records,
  /// stopping at `upto_version` (used by restart, re-subscription transfer
  /// and revive truncation). Records beyond the checkpoint version that
  /// are <= upto_version are applied in order; gaps are an error.
  static Result<std::unique_ptr<Catalog>> Restore(
      Slice checkpoint, const std::vector<TxnLogRecord>& logs,
      uint64_t upto_version, const std::set<ShardId>* shard_filter = nullptr);

 private:
  Status ApplyOpsLocked(const std::vector<CatalogOp>& ops,
                        const std::set<ShardId>* shard_filter,
                        CatalogState* state);

  mutable std::mutex mu_;
  std::shared_ptr<const CatalogState> state_;
  std::vector<TxnLogRecord> log_;
  uint64_t next_oid_ = 1;
};

}  // namespace eon

#endif  // EON_CATALOG_CATALOG_H_
