#include "wal/wal.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/codec.h"
#include "common/hash.h"
#include "common/io_pool.h"
#include "obs/dc.h"
#include "obs/trace.h"

namespace eon {

namespace {

std::string Pad(uint64_t v, int width) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%0*" PRIu64, width, v);
  return buf;
}

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Trailing "-<lsn>" of a part key, or 0 when the key is malformed.
uint64_t PartMaxLsn(const std::string& key) {
  const size_t dash = key.rfind('-');
  if (dash == std::string::npos) return 0;
  return strtoull(key.c_str() + dash + 1, nullptr, 10);
}

/// LSN of a "<prefix>ckpt/<lsn>" checkpoint marker key.
uint64_t MarkerLsn(const std::string& key) {
  const size_t slash = key.rfind('/');
  return strtoull(key.c_str() + slash + 1, nullptr, 10);
}

}  // namespace

void EncodeWalRecord(const WalRecord& record, std::string* dst) {
  std::string body;
  body.push_back(static_cast<char>(record.kind));
  PutVarint64(&body, record.lsn);
  body.append(record.payload);
  PutFixed32(dst, Crc32c(body.data(), body.size()));
  PutFixed32(dst, static_cast<uint32_t>(body.size()));
  dst->append(body);
}

size_t DecodeWalRecords(Slice data, std::vector<WalRecord>* out) {
  size_t consumed = 0;
  while (true) {
    Slice cursor = data;
    cursor.remove_prefix(consumed);
    if (cursor.size() < 8) return consumed;  // No complete header: torn.
    uint32_t crc = 0, len = 0;
    if (!GetFixed32(&cursor, &crc).ok()) return consumed;
    if (!GetFixed32(&cursor, &len).ok()) return consumed;
    if (cursor.size() < len) return consumed;  // Torn body.
    // A real record is never shorter than kind + LSN, but a zero-filled
    // torn tail decodes as crc=0 len=0 — and Crc32c of an empty body IS
    // 0, so the CRC check alone would pass it straight into body[0].
    if (len < 2) return consumed;
    Slice body(cursor.data(), len);
    if (Crc32c(body.data(), body.size()) != crc) return consumed;
    WalRecord rec;
    rec.kind = static_cast<WalRecord::Kind>(body[0]);
    body.remove_prefix(1);
    if (!GetVarint64(&body, &rec.lsn).ok()) return consumed;
    rec.payload.assign(body.data(), body.size());
    out->push_back(std::move(rec));
    consumed += 8 + len;
  }
}

WalWriter::WalWriter(ObjectStore* store, std::string prefix, Clock* clock,
                     const WalOptions& options,
                     std::function<void(const WalRecord&)> apply)
    : store_(store),
      prefix_(std::move(prefix)),
      clock_(clock),
      options_(options),
      apply_(std::move(apply)) {
  obs::MetricsRegistry* reg = obs::OrDefault(options_.registry);
  metrics_.records = reg->GetCounter("eon_wal_records_total");
  metrics_.groups = reg->GetCounter("eon_wal_groups_total");
  metrics_.bytes = reg->GetCounter("eon_wal_bytes_total");
  metrics_.group_size = reg->GetHistogram("eon_wal_group_size");
}

uint64_t WalWriter::Append(WalRecord record) {
  obs::Span span = obs::StartTraceSpan("wal_append");
  std::string encoded;
  uint64_t lsn;
  bool buffered = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lsn = next_lsn_++;
    record.lsn = lsn;
    EncodeWalRecord(record, &encoded);
    // A closed writer (node down) still burns the LSN but drops the
    // record; the caller's Commit reports the failure.
    if (!closed_.load(std::memory_order_relaxed)) {
      pending_bytes_ += encoded.size();
      stats_.records_appended++;
      stats_.bytes_appended += encoded.size();
      pending_.push_back(std::move(record));
      buffered = true;
    }
  }
  if (buffered) {
    metrics_.records->Increment();
    metrics_.bytes->Increment(encoded.size());
  }
  if (span.valid()) {
    span.SetAttribute("lsn", static_cast<int64_t>(lsn));
    span.SetAttribute("bytes", static_cast<int64_t>(encoded.size()));
  }
  return lsn;
}

Status WalWriter::FlushLocked(std::unique_lock<std::mutex>* lock,
                              uint64_t* group_size, uint64_t* group_bytes) {
  // Leader section. Called with mu_ held and flush_in_progress_ set by
  // the caller; takes the whole pending buffer as one durability group.
  std::vector<WalRecord> batch = std::move(pending_);
  pending_.clear();
  pending_bytes_ = 0;
  if (batch.empty()) return Status::OK();

  std::string data;
  for (const WalRecord& rec : batch) EncodeWalRecord(rec, &data);
  const uint64_t max_lsn = batch.back().lsn;
  *group_size = batch.size();
  *group_bytes = data.size();

  // Segment rotation by byte budget; the part counter keeps keys unique
  // and in write order within one writer lifetime.
  bool rotated = false;
  if (segment_bytes_used_ + data.size() > options_.segment_bytes &&
      segment_bytes_used_ > 0) {
    segment_++;
    segment_bytes_used_ = 0;
    stats_.segments_created++;
    rotated = true;
  }
  segment_bytes_used_ += data.size();
  const std::string key =
      prefix_ + "seg" + Pad(segment_, 6) + "/p" + Pad(part_++, 6) + "-" +
      Pad(max_lsn, 20);

  const uint64_t epoch = epoch_;
  lock->unlock();
  obs::Span span = obs::StartTraceSpan("group_commit");
  if (span.valid()) {
    span.SetAttribute("group_size", static_cast<int64_t>(batch.size()));
    span.SetAttribute("bytes", static_cast<int64_t>(data.size()));
    if (rotated) span.SetAttribute("segment_rotation", 1);
  }
  Status put = [&] {
    // The flush IS the fsync of this log: one object per group.
    obs::Span fsync_span = obs::StartTraceSpan("wal_fsync");
    if (fsync_span.valid()) fsync_span.SetAttribute("key", key);
    return store_->Put(key, data);
  }();
  span.End();
  lock->lock();

  if (!put.ok()) {
    sticky_error_ = put;
    return put;
  }
  // A close (or close+reopen) raced the upload: the group IS durable in
  // the log, but the memtable was cleared — recovery replay owns these
  // records now. Applying them here would double them after a reopen's
  // replay. The committers get an error, the ambiguity is the same as a
  // crash between upload and ack.
  if (epoch_ != epoch || closed_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("wal closed during group flush");
  }
  // Apply BEFORE publishing the durable LSN: a reader that observes
  // synced_lsn >= L is guaranteed the memtable already contains L.
  for (const WalRecord& rec : batch) {
    if (apply_) apply_(rec);
  }
  synced_lsn_ = max_lsn;
  stats_.groups_flushed++;
  stats_.max_group_size = std::max(stats_.max_group_size,
                                   static_cast<uint64_t>(batch.size()));
  metrics_.groups->Increment();
  metrics_.group_size->Observe(static_cast<double>(batch.size()));
  if (options_.collector != nullptr) {
    obs::DcWalEvent e;
    e.kind = "group_commit";
    e.lsn = max_lsn;
    e.records = batch.size();
    e.bytes = data.size();
    options_.collector->RecordWalEvent(std::move(e));
  }
  return Status::OK();
}

Result<WalCommitInfo> WalWriter::Commit(uint64_t lsn) {
  WalCommitInfo info;
  const int64_t start = SteadyMicros();
  std::unique_lock<std::mutex> lock(mu_);
  while (synced_lsn_ < lsn) {
    if (closed_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("wal is closed (node down)");
    }
    if (!sticky_error_.ok()) return sticky_error_;
    if (flush_in_progress_) {
      cv_.wait(lock);
      continue;
    }
    // Become the group leader: hold the window open so concurrent
    // writers' appends share this flush, then upload once for everyone.
    flush_in_progress_ = true;
    if (options_.group_commit_micros > 0) {
      cv_.wait_for(lock,
                   std::chrono::microseconds(options_.group_commit_micros));
    }
    uint64_t gsize = 0;
    uint64_t gbytes = 0;
    Status s = FlushLocked(&lock, &gsize, &gbytes);
    flush_in_progress_ = false;
    cv_.notify_all();
    if (!s.ok()) return s;
    if (gsize == 0 && synced_lsn_ < lsn) {
      // Nothing was pending, so `lsn` can never become durable: a Close
      // dropped its record (appended while closed, or buffered at the
      // close) and the writer has reopened since. Looping would spin
      // while holding mu_, starving the restart's SetNextLsn.
      return Status::Unavailable("wal record dropped by a node restart");
    }
    info.led_group = true;
    info.group_size = gsize;
    info.group_bytes = gbytes;
  }
  info.wait_micros = SteadyMicros() - start;
  stats_.commit_wait_micros += info.wait_micros;
  return info;
}

Status WalWriter::Truncate(uint64_t up_to_lsn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (up_to_lsn <= truncated_lsn_) return Status::OK();
  }
  obs::Span span = obs::StartTraceSpan("wal_truncate");
  // One listing of the whole log prefix serves both delete passes: the
  // covered parts and the checkpoint markers older than this one.
  EON_ASSIGN_OR_RETURN(std::vector<ObjectMeta> listed, store_->List(prefix_));
  const std::string part_prefix = prefix_ + "seg";
  const std::string marker_prefix = prefix_ + "ckpt/";
  std::vector<std::string> covered_parts;
  std::vector<std::string> stale_markers;
  int64_t parts_listed = 0;
  for (const ObjectMeta& m : listed) {
    if (Slice(m.key).starts_with(part_prefix)) {
      ++parts_listed;
      const uint64_t max_lsn = PartMaxLsn(m.key);
      if (max_lsn != 0 && max_lsn <= up_to_lsn) covered_parts.push_back(m.key);
    } else if (Slice(m.key).starts_with(marker_prefix) &&
               MarkerLsn(m.key) < up_to_lsn) {
      stale_markers.push_back(m.key);
    }
  }

  std::atomic<uint64_t> deleted{0};
  EON_RETURN_IF_ERROR(ParallelFor(
      options_.io_pool, covered_parts.size(), [&](size_t i) {
        if (store_->Delete(covered_parts[i]).ok()) deleted.fetch_add(1);
        return Status::OK();  // Best effort: retried next truncation.
      }));
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.parts_deleted += deleted.load();
  }
  if (span.valid()) {
    span.SetAttribute("parts_listed", parts_listed);
    span.SetAttribute("parts_deleted", static_cast<int64_t>(deleted.load()));
    span.SetAttribute("lanes", static_cast<int64_t>(ParallelForLanes(
                                   options_.io_pool, covered_parts.size())));
  }
  // Checkpoint marker: replay skips records at or below this LSN even
  // when a straddling part survived the deletes above.
  Status ck = store_->Put(marker_prefix + Pad(up_to_lsn, 20), "");
  if (!ck.ok() && !ck.IsAlreadyExists()) return ck;
  {
    std::lock_guard<std::mutex> lock(mu_);
    truncated_lsn_ = std::max(truncated_lsn_, up_to_lsn);
  }
  // Older markers are redundant (replay takes the max) — prune them so a
  // long-lived node doesn't accumulate one object per truncation. Best
  // effort: a survivor is picked up by the next truncation.
  return ParallelFor(options_.io_pool, stale_markers.size(), [&](size_t i) {
    store_->Delete(stale_markers[i]);
    return Status::OK();
  });
}

void WalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_.store(true, std::memory_order_release);
  epoch_++;
  // Buffered-but-uncommitted appends vanish, exactly like a crash before
  // group commit; their committers wake up into the closed check.
  pending_.clear();
  pending_bytes_ = 0;
  cv_.notify_all();
}

void WalWriter::Reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_.store(false, std::memory_order_release);
  epoch_++;
  sticky_error_ = Status::OK();
  pending_.clear();
  pending_bytes_ = 0;
}

uint64_t WalWriter::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

uint64_t WalWriter::synced_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_lsn_;
}

WalStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WalWriter::SetNextLsn(uint64_t next) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next > next_lsn_) next_lsn_ = next;
  if (next - 1 > synced_lsn_) synced_lsn_ = next - 1;
}

Result<WalReplay> ReadWal(ObjectStore* store, const std::string& prefix) {
  WalReplay replay;
  EON_ASSIGN_OR_RETURN(std::vector<ObjectMeta> ckpts,
                       store->List(prefix + "ckpt/"));
  for (const ObjectMeta& m : ckpts) {
    replay.checkpoint_lsn = std::max(replay.checkpoint_lsn, MarkerLsn(m.key));
  }

  EON_ASSIGN_OR_RETURN(std::vector<ObjectMeta> parts,
                       store->List(prefix + "seg"));
  std::vector<WalRecord> all;
  for (const ObjectMeta& m : parts) {
    EON_ASSIGN_OR_RETURN(std::string data, store->Get(m.key));
    // Torn tails are tolerated per part: a crashed upload can only have
    // damaged the newest object, and damage truncates, never errors.
    DecodeWalRecords(Slice(data), &all);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.lsn < b.lsn;
                   });
  for (WalRecord& rec : all) {
    replay.max_lsn = std::max(replay.max_lsn, rec.lsn);
    if (rec.lsn <= replay.checkpoint_lsn) continue;
    replay.records.push_back(std::move(rec));
  }
  return replay;
}

}  // namespace eon
