#ifndef EON_ENGINE_EXECUTOR_H_
#define EON_ENGINE_EXECUTOR_H_

#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "engine/query.h"

namespace eon {

/// Crunch scaling mode for queries where more nodes are available than
/// shards (Section 4.4).
enum class CrunchMode : uint8_t {
  kNone = 0,
  /// Every sharing node reads the shard's full data and keeps the rows a
  /// secondary hash assigns to it: higher processing cost, preserves
  /// nothing but correctness (segmentation property is applied per row).
  kHashFilter = 1,
  /// Containers are physically split by row ranges: each row read once,
  /// but the segmentation property is lost — joins/group-bys reshuffle.
  kContainerSplit = 2,
};

/// Execution context for one query: the session's participating
/// subscriptions (Section 4.1) plus optional crunch-scaling fan-out.
struct ExecContext {
  ParticipationResult participation;
  /// When crunch is on: all nodes sharing each shard (the participation
  /// node first). Empty = one node per shard.
  std::map<ShardId, std::vector<Oid>> crunch_nodes;
  CrunchMode crunch = CrunchMode::kNone;
  /// Admission-control accounting, filled by the serving layer when the
  /// query passed through a resource pool: how long it waited for its
  /// execution slots and which pool admitted it. Both flow into the
  /// coordinator's dc_query_executions row; execution is unaffected.
  int64_t queued_micros = 0;
  std::string resource_pool;
};

/// Inputs to the per-morsel pushdown decision (near-data processing). The
/// executor fills one of these per container; exported so tests can pin
/// the planner's choices without standing up a cluster.
struct PushdownDecision {
  /// Cluster pushdown mode: 0 = off, 1 = cost-based, 2 = force.
  int mode = 0;
  bool has_predicate = false;
  bool has_aggregates = false;  ///< Aggregate partials would be pushed.
  /// Predicate selectivity prior (fraction of rows expected to survive).
  double selectivity = 1.0;
  double selectivity_cutoff = 0.35;
  /// Estimated bytes a LOCAL scan would fetch from the store: the sizes of
  /// the needed column files that are not resident in this node's cache.
  /// 0 means fully warm — a local scan touches the store not at all.
  uint64_t cold_bytes = 0;
  /// Estimated bytes a pushed scan would return (surviving rows or agg
  /// partials, plus a flat per-request surcharge).
  uint64_t pushed_bytes = 0;
};

/// Cost-based choice: push the scan to the object store iff pushdown is
/// enabled, the scan filters or aggregates (otherwise pushing ships the
/// same bytes with extra store-side work), the predicate is selective
/// enough, the cache is cold for at least one needed file, and the
/// estimated response is smaller than the estimated cold fetch. Mode 2
/// forces pushing whenever there is anything to push.
bool ChoosePushdown(const PushdownDecision& d);

/// Execute a query against the cluster under the given context. Planning
/// follows the paper's Section 4:
///  - each participating node scans only the shards the session assigned
///    to it, reading through its file cache;
///  - joins run locally (no reshuffle) when both sides are segmented on
///    their join keys — identical values hash to the same shard and are
///    served by the same node;
///  - group-bys run locally when the grouping keys cover the segmentation
///    columns; otherwise partial aggregates are merged with accounted
///    network transfer;
///  - container- and block-level min/max pruning applies throughout.
Result<QueryResult> ExecuteQuery(EonCluster* cluster, const QuerySpec& spec,
                                 const ExecContext& context);

/// Build a default context: participation via max flow with the given
/// variation seed; optional subcluster priority (connected node's
/// subcluster first, Section 4.3); optional crunch fan-out over idle
/// nodes when nodes > shards.
Result<ExecContext> BuildExecContext(EonCluster* cluster,
                                     const std::string& connected_node,
                                     uint64_t variation_seed,
                                     CrunchMode crunch = CrunchMode::kNone);

}  // namespace eon

#endif  // EON_ENGINE_EXECUTOR_H_
