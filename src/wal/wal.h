#ifndef EON_WAL_WAL_H_
#define EON_WAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/object_store.h"

namespace eon {

class IoPool;

namespace obs {
class DataCollector;
}  // namespace obs

/// One write-ahead-log record. The WAL is payload-agnostic: the WOS layer
/// encodes inserts / tombstones / flush markers into `payload` and decodes
/// them again on replay; the log only guarantees ordering, framing and
/// durability.
struct WalRecord {
  enum class Kind : uint8_t {
    kInsert = 0,     ///< A batch of table rows entering the WOS.
    kTombstone = 1,  ///< WOS row deletions (versioned tombstones).
    kFlush = 2,      ///< Moveout marker: rows up to an LSN are now in ROS.
  };
  Kind kind = Kind::kInsert;
  uint64_t lsn = 0;  ///< Assigned by WalWriter::Append; replay order key.
  std::string payload;
};

/// Append one CRC-framed record to `dst`:
///   [crc32c(body) fixed32][len(body) fixed32][body]
///   body = [kind u8][lsn varint64][payload...]
/// The frame is what makes torn tails detectable: a truncated or bit-
/// flipped suffix fails the length or CRC check and replay stops cleanly.
void EncodeWalRecord(const WalRecord& record, std::string* dst);

/// Decode every complete, checksum-clean record from the front of `data`,
/// appending to `out`. Returns the number of bytes consumed. A torn tail
/// (truncated frame, short body, or CRC mismatch) terminates decoding
/// WITHOUT an error — everything before the tear is returned, mirroring
/// how a crashed writer's last partial record is dropped on recovery.
size_t DecodeWalRecords(Slice data, std::vector<WalRecord>* out);

/// Durability accounting for one Commit call (profile `wal` block).
struct WalCommitInfo {
  uint64_t group_size = 0;    ///< Records made durable by the group flush.
  uint64_t group_bytes = 0;   ///< Encoded bytes of that flush.
  int64_t wait_micros = 0;    ///< Time this committer spent waiting.
  bool led_group = false;     ///< This caller performed the upload.
};

/// Cumulative writer counters (mirrored onto eon_wal_* instruments).
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t groups_flushed = 0;  ///< Objects written (one per group commit).
  uint64_t max_group_size = 0;
  uint64_t segments_created = 0;
  uint64_t parts_deleted = 0;  ///< Part objects removed by truncation.
  int64_t commit_wait_micros = 0;  ///< Summed over all committers.
};

struct WalOptions {
  /// Group-commit window: a flush leader waits this long for concurrent
  /// writers to join its group before uploading. 0 = flush immediately.
  int64_t group_commit_micros = 200;
  /// Rotate to a new segment once the current one holds this many bytes.
  uint64_t segment_bytes = 1 << 20;
  /// Metrics registry; null = process default.
  obs::MetricsRegistry* registry = nullptr;
  /// Data Collector receiving group_commit events (dc_wal_events);
  /// null = not recorded.
  obs::DataCollector* collector = nullptr;
  /// I/O pool Truncate fans its deletes out on (the node's cache pool);
  /// null = one request at a time on the caller.
  IoPool* io_pool = nullptr;
};

/// Append-only log writer over an object store. Objects are immutable (no
/// append), so each group-commit flush writes ONE new part object under
///   <prefix>seg<seg#>/p<part#>-<max lsn in part>
/// Part keys sort in write order and carry their highest LSN, so
/// truncation after moveout deletes whole parts without reading them.
///
/// Group commit: Append buffers a record and returns its LSN; Commit(lsn)
/// blocks until that LSN is durable. The first committer to find the
/// buffer unflushed becomes the leader: it waits the group-commit window,
/// takes every buffered record, uploads them as one object, applies them
/// (in LSN order, via the constructor callback) and only then publishes
/// the new durable LSN — so applied state never runs ahead of the log.
class WalWriter {
 public:
  /// `apply` is invoked by the flush leader, records in LSN order, after
  /// the group's object is durable and before Commit returns. The WOS
  /// memtable installs its state here.
  WalWriter(ObjectStore* store, std::string prefix, Clock* clock,
            const WalOptions& options,
            std::function<void(const WalRecord&)> apply);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Assign the next LSN and buffer the record. Durable only after a
  /// subsequent Commit covering the returned LSN.
  uint64_t Append(WalRecord record);

  /// Block until every record up to `lsn` is durable and applied.
  Result<WalCommitInfo> Commit(uint64_t lsn);

  /// Delete part objects whose records all have LSN <= `up_to_lsn` and
  /// write a checkpoint marker so replay skips the truncated range even
  /// if some parts straddling the boundary survive; then prune the older
  /// markers. One LIST of the whole prefix feeds both delete passes, and
  /// each pass runs in parallel on `WalOptions::io_pool`. Deletes are best
  /// effort (a survivor is caught by the next truncation); the call fails
  /// only when the listing or the marker write fails. A call at or below
  /// the last successful truncation's LSN sends no request (its marker
  /// already exists). Callers serialize truncations of one log (the
  /// cluster's moveout lock). Must not be called from an I/O-pool worker.
  Status Truncate(uint64_t up_to_lsn);

  uint64_t last_lsn() const;
  uint64_t synced_lsn() const;
  WalStats stats() const;

  /// Start LSN assignment above an existing log (recovery: the replayed
  /// records' LSNs stay unique).
  void SetNextLsn(uint64_t next);

  // --- Lifecycle. The writer is a node-lifetime object: a down node
  // closes it in place instead of destroying it, so statements that
  // already hold the pointer fail their Commit instead of touching freed
  // memory. ---

  /// Stop accepting work: buffered-but-uncommitted records are dropped
  /// (exactly like a crash before group commit), blocked committers wake
  /// with an error, later Append/Commit calls fail. Counters (LSN,
  /// segment, part) are retained so a Reopen never reuses a key.
  void Close();

  /// Accept work again after a Close (node restart). The caller replays
  /// the surviving log and calls SetNextLsn before new traffic arrives.
  void Reopen();

  bool is_open() const { return !closed_.load(std::memory_order_acquire); }

 private:
  Status FlushLocked(std::unique_lock<std::mutex>* lock,
                     uint64_t* group_size, uint64_t* group_bytes);

  ObjectStore* const store_;
  const std::string prefix_;
  Clock* const clock_;
  const WalOptions options_;
  const std::function<void(const WalRecord&)> apply_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WalRecord> pending_;
  uint64_t pending_bytes_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t synced_lsn_ = 0;
  bool flush_in_progress_ = false;
  std::atomic<bool> closed_{false};  ///< Writes under mu_; lock-free reads.
  uint64_t epoch_ = 0;  ///< Bumped by Close/Reopen: a flush that straddles
                        ///< a close must not apply into the recovered WOS
                        ///< (replay already owns those records).
  Status sticky_error_ = Status::OK();
  uint64_t segment_ = 0;
  uint64_t segment_bytes_used_ = 0;
  uint64_t part_ = 0;
  uint64_t truncated_lsn_ = 0;  ///< Last successful Truncate's LSN.
  WalStats stats_;

  struct {
    obs::Counter* records = nullptr;  ///< eon_wal_records_total
    obs::Counter* groups = nullptr;   ///< eon_wal_groups_total
    obs::Counter* bytes = nullptr;    ///< eon_wal_bytes_total
    obs::Histogram* group_size = nullptr;  ///< eon_wal_group_size
  } metrics_;
};

/// Replay state read back from a node's log prefix.
struct WalReplay {
  std::vector<WalRecord> records;  ///< LSN order, checkpoint-filtered.
  uint64_t max_lsn = 0;            ///< Highest LSN seen (0 = empty log).
  uint64_t checkpoint_lsn = 0;     ///< Records <= this were truncated.
};

/// Read every surviving part object under `prefix`, decode (tolerating a
/// torn tail in the newest part), drop records at or below the newest
/// checkpoint marker, and return the rest in LSN order.
Result<WalReplay> ReadWal(ObjectStore* store, const std::string& prefix);

}  // namespace eon

#endif  // EON_WAL_WAL_H_
