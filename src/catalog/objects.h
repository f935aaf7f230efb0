#ifndef EON_CATALOG_OBJECTS_H_
#define EON_CATALOG_OBJECTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "columnar/agg.h"
#include "columnar/expression.h"
#include "columnar/schema.h"
#include "common/result.h"

namespace eon {

/// Catalog object identifier. Monotonic per catalog; the local-id half of
/// storage identifiers (Figure 7).
using Oid = uint64_t;
constexpr Oid kInvalidOid = 0;

/// Shard identifiers. Segment shards are 0..S-1; the replica shard (which
/// holds storage metadata of replicated projections, Section 3.1) is S.
using ShardId = uint32_t;
constexpr ShardId kGlobalShard = 0xFFFFFFFFu;  ///< Marker for global objects.

/// Sharding layout fixed at database creation (Section 3.1): the 32-bit
/// hash space is divided into `num_segment_shards` contiguous regions.
struct ShardingConfig {
  uint32_t num_segment_shards = 0;

  ShardId replica_shard() const { return num_segment_shards; }
  uint32_t num_shards_total() const { return num_segment_shards + 1; }

  /// Segment shard owning `hash` (contiguous regions of the hash space).
  ShardId ShardForHash(uint32_t hash) const {
    uint64_t span = (1ULL << 32) / num_segment_shards;
    ShardId s = static_cast<ShardId>(hash / span);
    return s >= num_segment_shards ? num_segment_shards - 1 : s;
  }

  /// Inclusive lower bound of the shard's hash region.
  uint32_t ShardLowerBound(ShardId s) const {
    uint64_t span = (1ULL << 32) / num_segment_shards;
    return static_cast<uint32_t>(span * s);
  }
};

/// One pre-computed aggregate of a live aggregate projection.
struct LiveAggSpec {
  AggFn fn = AggFn::kCount;
  /// Base-table column the aggregate reads (ignored for kCount).
  size_t source_column = 0;

  bool operator==(const LiveAggSpec& o) const {
    return fn == o.fn && source_column == o.source_column;
  }
};

/// One denormalized column of a flattened table (Section 2.1): at load
/// time, `target_column` is filled by joining this table's
/// `fact_key_column` against `dim_key_column` of `dim_table` and copying
/// `dim_value_column`.
struct FlattenedColDef {
  size_t target_column = 0;    ///< Position in this table's schema.
  size_t fact_key_column = 0;  ///< Join key position in this table.
  Oid dim_table = kInvalidOid;
  size_t dim_key_column = 0;   ///< Join key position in the dimension.
  size_t dim_value_column = 0; ///< Value position in the dimension.
};

/// A table: global catalog object.
///
/// A table may materialize a *live aggregate projection* of another table
/// (Section 2.1): its rows are per-group partial aggregates maintained at
/// load time. Such tables set `lap_base`/`lap_group_columns`/`lap_aggs`;
/// the optimizer rewrites matching aggregate queries onto them, and the
/// base table's update surface is restricted (no DELETE/UPDATE) while
/// live aggregates exist.
struct TableDef {
  Oid oid = kInvalidOid;
  std::string name;
  Schema schema;
  /// Intra-node horizontal partitioning (Section 2.1): optional column whose
  /// value partitions containers (usually a date column). Loads split rows
  /// so each container holds a single partition value.
  std::optional<size_t> partition_column;

  /// Live-aggregate binding (unset for ordinary tables).
  Oid lap_base = kInvalidOid;
  std::vector<size_t> lap_group_columns;  ///< Base-table column indices.
  std::vector<LiveAggSpec> lap_aggs;

  /// Flattened-table denormalization clauses (Section 2.1); empty for
  /// ordinary tables. Loads fill the target columns by dimension lookup;
  /// RefreshFlattenedTable re-derives them after dimension changes.
  std::vector<FlattenedColDef> flattened;

  bool is_live_aggregate() const { return lap_base != kInvalidOid; }
  bool is_flattened() const { return !flattened.empty(); }
};

/// A projection: sorted, segmented physical organization of a table's
/// columns (Section 2.1/2.2). Column indices below refer to positions in
/// the *projection* schema except `columns`, which maps projection position
/// to table column.
struct ProjectionDef {
  Oid oid = kInvalidOid;
  Oid table_oid = kInvalidOid;
  std::string name;
  std::vector<size_t> columns;       ///< Table column index per proj column.
  std::vector<size_t> sort_columns;  ///< Proj column positions, sort order.
  /// Segmentation clause columns (proj positions). Empty = replicated
  /// projection (every subscriber of the replica shard stores all rows).
  std::vector<size_t> segmentation_columns;

  bool replicated() const { return segmentation_columns.empty(); }

  /// Schema of rows stored in this projection, derived from `table_schema`.
  Schema DeriveSchema(const Schema& table_schema) const;

  /// Segmentation hash of a projection row (32-bit space).
  uint32_t SegHashRow(const Row& row) const;
};

/// The rows of one ROS container a load writes: its shard and its
/// projection-width rows, in the projection's sort order.
struct ContainerRows {
  ShardId shard = 0;
  std::vector<Row> rows;
};

/// The one row placement, shared by the load path and the WOS read path.
/// Projects full-width `table_rows` onto `proj`, buckets them by shard
/// (ShardForHash of SegHashRow; the replica shard for a replicated
/// projection), splits each shard's rows into ascending groups of the
/// table's partition value when `proj` carries the partition column (one
/// partition per container, Section 2.1), and stable-sorts each group on
/// the projection's sort columns. Groups come out in (shard, partition)
/// order, none empty: a load writes one container per group, in this
/// order, so a shard's groups concatenated are the rows a rescan of those
/// containers returns.
std::vector<ContainerRows> PlaceRows(const ShardingConfig& sharding,
                                     const TableDef& table,
                                     const ProjectionDef& proj,
                                     const std::vector<Row>& table_rows);

/// Storage metadata for one ROS container. In Eon mode this is a per-shard
/// catalog object replicated to every subscriber of `shard` (Section 3.1).
struct StorageContainerMeta {
  Oid oid = kInvalidOid;
  Oid projection_oid = kInvalidOid;
  ShardId shard = 0;
  std::string base_key;  ///< SID-derived object name prefix on storage.
  uint64_t row_count = 0;
  uint64_t total_bytes = 0;
  uint64_t num_columns = 0;
  std::vector<ValueRange> column_ranges;  ///< Per-column min/max for pruning.
  /// Mergeout bookkeeping: strata level (0 = freshly loaded).
  uint32_t stratum = 0;
  /// Version at which the container was committed (for delete safety).
  uint64_t create_version = 0;
};

/// Delete vector metadata: tombstones for one container (Section 2.3).
struct DeleteVectorMeta {
  Oid oid = kInvalidOid;
  Oid container_oid = kInvalidOid;
  ShardId shard = 0;
  std::string key;  ///< Object key of the serialized DeleteVector.
  uint64_t deleted_count = 0;
};

/// Subscription states (Figure 4).
enum class SubscriptionState : uint8_t {
  kPending = 0,   ///< Declared; metadata transfer in progress.
  kPassive = 1,   ///< Metadata caught up; participates in commits.
  kActive = 2,    ///< Cache warm (or warming skipped); serves queries.
  kRemoving = 3,  ///< Unsubscribing; still serves until safe to drop.
};

const char* SubscriptionStateName(SubscriptionState s);

/// A node's subscription to a shard: global catalog object controlling
/// which nodes store/serve which shards (Section 3.1).
struct Subscription {
  Oid node_oid = kInvalidOid;
  ShardId shard = 0;
  SubscriptionState state = SubscriptionState::kPending;
};

/// A compute node: global catalog object.
struct NodeDef {
  Oid oid = kInvalidOid;
  std::string name;
  /// Subcluster for workload isolation (Section 4.3); empty = default.
  std::string subcluster;
};

/// Binary serialization (catalog log records and checkpoints).
void SerializeTable(const TableDef& t, std::string* out);
Result<TableDef> DeserializeTable(Slice* in);
void SerializeProjection(const ProjectionDef& p, std::string* out);
Result<ProjectionDef> DeserializeProjection(Slice* in);
void SerializeContainer(const StorageContainerMeta& c, std::string* out);
Result<StorageContainerMeta> DeserializeContainer(Slice* in);
void SerializeDeleteVectorMeta(const DeleteVectorMeta& d, std::string* out);
Result<DeleteVectorMeta> DeserializeDeleteVectorMeta(Slice* in);
void SerializeSubscription(const Subscription& s, std::string* out);
Result<Subscription> DeserializeSubscription(Slice* in);
void SerializeNode(const NodeDef& n, std::string* out);
Result<NodeDef> DeserializeNode(Slice* in);

}  // namespace eon

#endif  // EON_CATALOG_OBJECTS_H_
