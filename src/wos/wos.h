#ifndef EON_WOS_WOS_H_
#define EON_WOS_WOS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/objects.h"
#include "columnar/types.h"
#include "common/result.h"
#include "common/slice.h"
#include "wal/wal.h"

namespace eon {

/// ---------------------------------------------------------------------
/// WAL payload codecs. The WAL frames and orders records (wal/wal.h); the
/// WOS defines what is inside them. Insert payloads are self-describing
/// (each value carries its type tag) so replay needs no catalog schema.
/// ---------------------------------------------------------------------

struct WosInsertPayload {
  Oid table_oid = kInvalidOid;
  std::vector<Row> rows;
};

/// Address of one WOS-resident row: the insert batch's LSN plus the row's
/// index within the batch. Stable across replay because LSNs are.
struct WosRowRef {
  uint64_t lsn = 0;
  uint32_t row = 0;
};

struct WosTombstonePayload {
  Oid table_oid = kInvalidOid;
  uint64_t version = 0;  ///< Catalog version of the DELETE.
  std::vector<WosRowRef> refs;
};

struct WosFlushPayload {
  Oid table_oid = kInvalidOid;
  uint64_t up_to_lsn = 0;  ///< Insert batches <= this LSN moved to ROS.
  uint64_t version = 0;    ///< Catalog version of the moveout commit.
};

std::string EncodeWosInsert(Oid table_oid, const std::vector<Row>& rows);
Result<WosInsertPayload> DecodeWosInsert(Slice payload);
std::string EncodeWosTombstone(const WosTombstonePayload& p);
Result<WosTombstonePayload> DecodeWosTombstone(Slice payload);
std::string EncodeWosFlush(const WosFlushPayload& p);
Result<WosFlushPayload> DecodeWosFlush(Slice payload);

/// One applied insert batch. Rows are shared immutably; per-row tombstone
/// versions and the batch flush version control visibility:
///   batch visible at snapshot v  iff  flush_version == 0 || flush_version > v
///   row   live    at snapshot v  iff  tombstone_version == 0
///                                     || tombstone_version > v
/// A flushed batch is retained (invisible to new snapshots, visible to
/// snapshots older than the flush) until ReleaseFlushed proves no running
/// query can still need it.
struct WosBatch {
  uint64_t lsn = 0;
  Oid table_oid = kInvalidOid;
  std::shared_ptr<const std::vector<Row>> rows;
  std::vector<uint64_t> tombstone_versions;  ///< Parallel to rows; 0 = live.
  uint64_t flush_version = 0;                ///< 0 = WOS-only.
  uint64_t bytes = 0;                        ///< Sum of RowBytes.
};

/// Per-table snapshot for the `system_wos` virtual table.
struct WosTableStats {
  Oid table_oid = kInvalidOid;
  uint64_t batches = 0;
  uint64_t rows = 0;             ///< All retained rows (incl. flushed).
  uint64_t unflushed_rows = 0;   ///< Rows not yet moved to ROS.
  uint64_t flushed_batches = 0;  ///< Retained awaiting ReleaseFlushed.
  uint64_t tombstoned_rows = 0;
  uint64_t bytes = 0;
  uint64_t min_lsn = 0;
  uint64_t max_lsn = 0;
};

/// Per-node in-memory write-optimized store (C-Store WOS, Taurus log-first
/// durability): the apply target of the node's WalWriter. All mutation
/// flows through Apply — the group-commit leader calls it in LSN order
/// after the group's object is durable, and recovery calls it with the
/// replayed records, so runtime state and post-crash state are built by
/// the same code path.
///
/// Locking: `gate` (outer) serializes moveout/delete windows against
/// readers; `data` (inner) protects the batch map. Cross-node mutators
/// take every node's gate in node-oid order. A DELETE holds them from
/// its snapshot through {catalog commit, kTombstone append + WAL commit}.
/// A moveout holds them twice: to snapshot the unflushed rows (and mark
/// the table moving), then, after building and uploading its containers
/// ungated, for {catalog commit, kFlush append + WAL commit}. The
/// executor takes the same gates (same order) around its
/// {serving-catalog snapshot, CollectVisibleLocked} capture, so a query
/// either observes the WOS entirely before the catalog commit
/// (flush_version still 0, new containers absent from its snapshots) or
/// entirely after (flush_version set, so the rule above excludes exactly
/// the rows its snapshots read from ROS) — never both, never neither.
/// Apply only takes `data`, which keeps the WAL leader (wal mutex ->
/// data) deadlock-free against a gate holder committing its marker
/// records (gate -> wal mutex -> data).
class Wos {
 public:
  Wos() = default;
  Wos(const Wos&) = delete;
  Wos& operator=(const Wos&) = delete;

  /// Install one WAL record (insert / tombstone / flush marker). Invoked
  /// by the WAL apply callback and by recovery replay. Unknown batch or
  /// row references (already truncated/released) are ignored.
  void Apply(const WalRecord& record);

  /// Rows of `table_oid` visible at snapshot `version`, in LSN order.
  /// Takes the gate, so it serializes against moveout windows.
  std::vector<Row> CollectVisible(Oid table_oid, uint64_t version) const;

  /// CollectVisible for a caller already holding this node's gate (the
  /// executor collects every node's WOS plus the serving nodes' catalog
  /// snapshots under one gate hold, so the two sides cannot straddle a
  /// moveout commit).
  std::vector<Row> CollectVisibleLocked(Oid table_oid,
                                        uint64_t version) const;

  /// Unflushed live rows + the highest unflushed batch LSN (0 = nothing
  /// to move out). Caller (moveout's snapshot window) must hold the gate.
  struct Unflushed {
    std::vector<Row> rows;
    uint64_t up_to_lsn = 0;
  };
  Unflushed GatherUnflushed(Oid table_oid) const;

  /// Tables with at least one unflushed batch (TupleMover scan).
  std::vector<Oid> TablesWithUnflushed() const;
  /// Unflushed row count for one table (moveout threshold checks).
  uint64_t UnflushedRows(Oid table_oid) const;
  /// Lowest LSN of any unflushed batch across ALL tables, or 0 when none.
  /// The WAL is shared by every table on the node, so truncation after a
  /// per-table moveout must stay strictly below this watermark.
  uint64_t MinUnflushedLsn() const;

  /// Refs of unflushed live rows matching `pred` (DELETE planning).
  /// Caller must hold the gate so moveout cannot flush them mid-delete.
  /// When `rows_out` is non-null the matching rows are appended to it in
  /// the same order as the refs — UPDATE collects its pre-images in the
  /// SAME pass that picks the tombstone targets, so a row inserted
  /// concurrently is either matched-and-tombstoned or neither.
  std::vector<WosRowRef> FindRows(Oid table_oid,
                                  const std::function<bool(const Row&)>& pred,
                                  std::vector<Row>* rows_out = nullptr) const;

  /// Acquire this node's moveout/delete gate. Cross-node mutators collect
  /// gates from every node in node-oid order before committing.
  std::unique_lock<std::mutex> LockGate() const;

  /// Drop flushed batches no running query can still see (every running
  /// snapshot has version >= flush_version). Returns batches dropped.
  size_t ReleaseFlushed(uint64_t min_running_version);

  /// Wipe all state (node process termination loses its memtable; replay
  /// rebuilds it on restart).
  void Clear();

  std::vector<WosTableStats> SnapshotStats() const;
  uint64_t total_rows() const;
  uint64_t total_unflushed_rows() const;

 private:
  struct TableWos {
    std::vector<WosBatch> batches;  ///< LSN-ascending (apply order).
  };

  mutable std::mutex gate_mu_;
  mutable std::mutex data_mu_;
  std::map<Oid, TableWos> tables_;
};

}  // namespace eon

#endif  // EON_WOS_WOS_H_
