#ifndef EON_ENGINE_DML_H_
#define EON_ENGINE_DML_H_

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "columnar/delete_vector.h"
#include "engine/query.h"

namespace eon {

struct CopyOptions {
  uint64_t rows_per_block = 1024;
  /// Write-through the cache at load (Section 5.2); archive loads that
  /// should not evict the working set turn this off.
  bool write_through_cache = true;
  /// Varies participating-node selection across loads.
  uint64_t variation_seed = 0;
};

/// Bulk load (COPY) following the Figure 8 workflow:
///   1. rows are segmented by each projection's hash clause into per-shard
///      streams — every container holds data of exactly one shard;
///   2. column files are written into the writer's cache (write-through),
///      uploaded to shared storage, and pushed to the caches of the
///      shard's peer subscribers (warm caches for node-down performance);
///   3. the commit point is upload-complete: catalog metadata commits only
///      after every file is durable on shared storage;
///   4. if a concurrent subscription change means a participant no longer
///      matches the shard it wrote, the transaction rolls back (Aborted)
///      and uploaded files are reclaimed.
/// Returns the commit version.
Result<uint64_t> CopyInto(EonCluster* cluster, const std::string& table,
                          const std::vector<Row>& rows,
                          const CopyOptions& options = {});

struct InsertOptions {
  /// The session's connected node: its WAL/WOS absorb the batch so the
  /// commit needs one log append instead of per-projection container
  /// uploads. Empty = any up node.
  std::string connected_node;
};

/// Real-time ingest fast path: append the rows to the coordinator's WAL
/// (durability = the group-commit upload) and absorb them into its
/// in-memory WOS; moveout later snapshots them into real ROS containers.
/// Tables that need load-time work in the commit transaction (flattened
/// denormalization, live-aggregate maintenance) and clusters with
/// EON_WOS=off fall back to the direct-ROS COPY path — both paths yield
/// bit-identical query results. Returns the number of rows inserted;
/// `profile` (optional) receives the wal block of the commit.
///
/// The status is the WAL commit's: a statement that pushes the node's
/// memtable for the table to the moveout threshold only schedules a
/// moveout on the cluster's Tuple Mover thread. Backpressure: at 4x the
/// threshold the statement first waits for that moveout, and fails
/// without appending anything if it failed and the memtable is still
/// over the cap.
Result<uint64_t> InsertInto(EonCluster* cluster, const std::string& table,
                            const std::vector<Row>& rows,
                            const InsertOptions& options = {},
                            obs::QueryProfile* profile = nullptr);

/// Moveout (TupleMover): snapshot every node's unflushed WOS rows of
/// `table` into ROS containers via the shared load path, mark them
/// flushed in each node's WAL, and truncate the logs up to the
/// node-global safe watermark. Holds every node's WOS gate twice: to
/// snapshot the rows, and across the catalog commit plus the flush
/// markers, so concurrent queries see the rows exactly once. The
/// containers are built and uploaded between the two windows. Serialized
/// with every other moveout on the cluster's moveout lock. Returns the
/// number of rows moved (0 = nothing to do).
Result<uint64_t> MoveoutWos(EonCluster* cluster, const std::string& table);

/// DELETE ... WHERE: computes matching positions in every projection's
/// containers and commits new (immutable) delete-vector objects; data
/// files are never modified (Section 2.3). Superseded delete vectors are
/// handed to the cluster reaper. WOS-resident rows are tombstoned in the
/// owning node's WAL under the same commit version. Returns the number of
/// deleted rows.
Result<uint64_t> DeleteWhere(EonCluster* cluster, const std::string& table,
                             const PredicatePtr& table_predicate);

/// UPDATE modeled as DELETE + INSERT (Section 2.3): matching rows are read
/// from the superprojection, passed through `updater`, deleted, and the
/// updated versions loaded back. Returns the number of updated rows.
Result<uint64_t> UpdateWhere(EonCluster* cluster, const std::string& table,
                             const PredicatePtr& table_predicate,
                             const std::function<void(Row*)>& updater);

/// Shared load path: write row sets into multiple tables under ONE
/// transaction (used by COPY — which also maintains any live aggregate
/// projections of the target — and by live-aggregate backfill).
Result<uint64_t> LoadIntoTables(
    EonCluster* cluster,
    const std::vector<std::pair<std::string, std::vector<Row>>>& loads,
    const CopyOptions& options = {});

/// Write containers for exactly ONE projection of `table` from complete
/// table rows (backfill of a newly added projection; loads normally write
/// all projections of the table).
Result<uint64_t> BackfillProjection(EonCluster* cluster,
                                    const std::string& table,
                                    Oid projection_oid,
                                    const std::vector<Row>& rows,
                                    const CopyOptions& options = {});

/// The partial-aggregate rows a batch of base rows (typed by
/// `base_schema`) contributes to a live aggregate projection: the group
/// fold over the LAP's group columns, one row per group in key order.
std::vector<Row> ComputeLiveAggRows(const TableDef& lap,
                                    const Schema& base_schema,
                                    const std::vector<Row>& base_rows);

/// Key → value map of one flattened-column dimension, read through the
/// engine (used by load-time denormalization and refresh).
Result<std::map<Value, Value>> BuildDimensionLookup(
    EonCluster* cluster, const CatalogState& snapshot,
    const FlattenedColDef& def);

/// Effective tombstone set of a container: the union of all its committed
/// delete vectors, fetched through `fetcher`.
Result<DeleteVector> LoadDeleteVector(const CatalogState& state,
                                      const StorageContainerMeta& container,
                                      FileFetcher* fetcher);

/// Rebind a predicate built over table column positions onto projection
/// column positions. Fails if the projection lacks a referenced column.
Result<PredicatePtr> RebindPredicate(const PredicatePtr& pred,
                                     const ProjectionDef& proj);

}  // namespace eon

#endif  // EON_ENGINE_DML_H_
