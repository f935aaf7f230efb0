#ifndef EON_TM_TUPLE_MOVER_H_
#define EON_TM_TUPLE_MOVER_H_

#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "obs/metrics.h"

namespace eon {

struct MergeoutOptions {
  /// Merge when a stratum holds at least this many containers of one
  /// (projection, shard). The exponential tiering bounds how many times
  /// each tuple is merged (Section 2.3).
  uint32_t stratum_fanin = 4;
  /// Upper bound on containers merged by a single job ("mergeout may run
  /// more aggressively to keep the ROS container count down ... and avoid
  /// expensive large fan-in merge operations", Section 2.3).
  uint32_t max_merge_fanin = 16;
  /// Byte size of the smallest stratum; each higher stratum covers
  /// `stratum_fanin`× more.
  uint64_t base_stratum_bytes = 16 * 1024;
  uint64_t rows_per_block = 1024;
  /// Farm jobs out to the shard's other subscribers instead of running
  /// everything on the coordinator — scales mergeout bandwidth with
  /// cluster size (Section 6.2).
  bool delegate_jobs = false;
  /// Metrics registry to record into; null = process default.
  obs::MetricsRegistry* registry = nullptr;
};

struct MergeoutStats {
  uint64_t jobs_run = 0;
  uint64_t containers_merged = 0;
  uint64_t containers_created = 0;
  uint64_t rows_written = 0;
  uint64_t deleted_rows_purged = 0;
  uint64_t moveout_runs = 0;  ///< RunMoveout sweeps that moved rows.
  uint64_t moveout_rows = 0;  ///< WOS rows snapshotted into ROS.
};

/// Tuple mover: mergeout (Section 6.2 — one subscriber per shard is the
/// mergeout coordinator, ensuring conflicting jobs never run concurrently;
/// on coordinator failure the cluster selects a replacement) plus moveout
/// for the ingest fast path's write-optimized store — unflushed WOS rows
/// are snapshotted into real ROS containers, which then feed the mergeout
/// strata like any freshly loaded container.
///
/// This object runs work only when called. Background moveouts run on the
/// cluster's own service thread (EonCluster::mover()): an INSERT that
/// pushes a memtable past the threshold posts a MoveoutWos job there
/// (see InsertInto, engine/dml.h). RunMoveout and direct MoveoutWos
/// calls serialize with those jobs on the cluster's moveout lock.
/// Mergeout does not run on that thread yet.
class TupleMover {
 public:
  TupleMover(EonCluster* cluster, MergeoutOptions options = {});

  /// Select and execute all eligible mergeout jobs once. Deleted rows are
  /// purged; input containers (and their delete vectors) are dropped and
  /// their files handed to the reaper. Returns the number of jobs run.
  Result<uint64_t> RunOnce();

  /// Moveout sweep: snapshot every table with unflushed WOS rows (on any
  /// up node) into ROS containers via MoveoutWos, truncating the WALs up
  /// to the safe watermark, on the calling thread. Returns the number of
  /// rows moved.
  Result<uint64_t> RunMoveout();

  /// The current mergeout coordinator of a shard; reassigned on failure.
  Result<Oid> CoordinatorFor(ShardId shard);

  /// Re-elect coordinators, e.g. after node failures: each shard's
  /// coordinator must be an up ACTIVE subscriber; assignment balances the
  /// per-node coordinator count. Coordinators can be constrained to one
  /// subcluster to isolate compaction work (Section 6.2).
  Status ReassignCoordinators(const std::string& subcluster = "");

  const MergeoutStats& stats() const { return stats_; }

 private:
  /// Run one mergeout job: merge `inputs` of (projection, shard) into a
  /// single container on `executor`.
  Status RunJob(Node* executor, const ProjectionDef& proj,
                const Schema& proj_schema,
                const std::vector<StorageContainerMeta>& inputs,
                uint32_t out_stratum, CatalogTxn* txn,
                std::vector<std::string>* dropped_keys);

  uint32_t StratumOf(const StorageContainerMeta& c) const;

  EonCluster* cluster_;
  MergeoutOptions options_;
  std::map<ShardId, Oid> coordinators_;
  MergeoutStats stats_;

  // Registry mirrors of stats_ (eon_mergeout_* counters).
  struct {
    obs::Counter* jobs_run = nullptr;
    obs::Counter* containers_merged = nullptr;
    obs::Counter* containers_created = nullptr;
    obs::Counter* rows_written = nullptr;
    obs::Counter* deleted_rows_purged = nullptr;
    obs::Counter* moveout_runs = nullptr;
    obs::Counter* moveout_rows = nullptr;
  } metrics_;
};

}  // namespace eon

#endif  // EON_TM_TUPLE_MOVER_H_
