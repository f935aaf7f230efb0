#include "wos/wos.h"

#include <algorithm>

#include "columnar/value_codec.h"
#include "common/codec.h"

namespace eon {

namespace {

void PutTypedValue(std::string* dst, const Value& v) {
  dst->push_back(static_cast<char>(v.type()));
  PutValue(dst, v);
}

Status GetTypedValue(Slice* in, Value* out) {
  if (in->empty()) return Status::Corruption("wos value: missing type tag");
  const auto type = static_cast<DataType>((*in)[0]);
  if (type != DataType::kInt64 && type != DataType::kDouble &&
      type != DataType::kString) {
    return Status::Corruption("wos value: bad type tag");
  }
  in->remove_prefix(1);
  return GetValue(in, type, out);
}

}  // namespace

std::string EncodeWosInsert(Oid table_oid, const std::vector<Row>& rows) {
  std::string out;
  PutVarint64(&out, table_oid);
  PutVarint32(&out, static_cast<uint32_t>(rows.size()));
  PutVarint32(&out, rows.empty() ? 0
                                 : static_cast<uint32_t>(rows[0].size()));
  for (const Row& row : rows) {
    for (const Value& v : row) PutTypedValue(&out, v);
  }
  return out;
}

Result<WosInsertPayload> DecodeWosInsert(Slice payload) {
  WosInsertPayload p;
  uint64_t table_oid = 0;
  uint32_t num_rows = 0, arity = 0;
  EON_RETURN_IF_ERROR(GetVarint64(&payload, &table_oid));
  EON_RETURN_IF_ERROR(GetVarint32(&payload, &num_rows));
  EON_RETURN_IF_ERROR(GetVarint32(&payload, &arity));
  p.table_oid = table_oid;
  p.rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      Value v;
      EON_RETURN_IF_ERROR(GetTypedValue(&payload, &v));
      row.push_back(std::move(v));
    }
    p.rows.push_back(std::move(row));
  }
  return p;
}

std::string EncodeWosTombstone(const WosTombstonePayload& p) {
  std::string out;
  PutVarint64(&out, p.table_oid);
  PutVarint64(&out, p.version);
  PutVarint32(&out, static_cast<uint32_t>(p.refs.size()));
  for (const WosRowRef& ref : p.refs) {
    PutVarint64(&out, ref.lsn);
    PutVarint32(&out, ref.row);
  }
  return out;
}

Result<WosTombstonePayload> DecodeWosTombstone(Slice payload) {
  WosTombstonePayload p;
  uint64_t table_oid = 0;
  uint32_t count = 0;
  EON_RETURN_IF_ERROR(GetVarint64(&payload, &table_oid));
  EON_RETURN_IF_ERROR(GetVarint64(&payload, &p.version));
  EON_RETURN_IF_ERROR(GetVarint32(&payload, &count));
  p.table_oid = table_oid;
  p.refs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WosRowRef ref;
    EON_RETURN_IF_ERROR(GetVarint64(&payload, &ref.lsn));
    EON_RETURN_IF_ERROR(GetVarint32(&payload, &ref.row));
    p.refs.push_back(ref);
  }
  return p;
}

std::string EncodeWosFlush(const WosFlushPayload& p) {
  std::string out;
  PutVarint64(&out, p.table_oid);
  PutVarint64(&out, p.up_to_lsn);
  PutVarint64(&out, p.version);
  return out;
}

Result<WosFlushPayload> DecodeWosFlush(Slice payload) {
  WosFlushPayload p;
  uint64_t table_oid = 0;
  EON_RETURN_IF_ERROR(GetVarint64(&payload, &table_oid));
  EON_RETURN_IF_ERROR(GetVarint64(&payload, &p.up_to_lsn));
  EON_RETURN_IF_ERROR(GetVarint64(&payload, &p.version));
  p.table_oid = table_oid;
  return p;
}

void Wos::Apply(const WalRecord& record) {
  switch (record.kind) {
    case WalRecord::Kind::kInsert: {
      Result<WosInsertPayload> decoded = DecodeWosInsert(Slice(record.payload));
      if (!decoded.ok()) return;  // Corrupt payloads are dropped, not fatal.
      WosBatch batch;
      batch.lsn = record.lsn;
      batch.table_oid = decoded->table_oid;
      batch.tombstone_versions.assign(decoded->rows.size(), 0);
      for (const Row& row : decoded->rows) batch.bytes += RowBytes(row);
      batch.rows = std::make_shared<const std::vector<Row>>(
          std::move(decoded->rows));
      std::lock_guard<std::mutex> lock(data_mu_);
      tables_[batch.table_oid].batches.push_back(std::move(batch));
      break;
    }
    case WalRecord::Kind::kTombstone: {
      Result<WosTombstonePayload> decoded =
          DecodeWosTombstone(Slice(record.payload));
      if (!decoded.ok()) return;
      std::lock_guard<std::mutex> lock(data_mu_);
      auto it = tables_.find(decoded->table_oid);
      if (it == tables_.end()) return;
      std::vector<WosBatch>& batches = it->second.batches;
      for (const WosRowRef& ref : decoded->refs) {
        auto bit = std::lower_bound(
            batches.begin(), batches.end(), ref.lsn,
            [](const WosBatch& b, uint64_t lsn) { return b.lsn < lsn; });
        if (bit == batches.end() || bit->lsn != ref.lsn) continue;
        if (ref.row >= bit->tombstone_versions.size()) continue;
        if (bit->tombstone_versions[ref.row] == 0) {
          bit->tombstone_versions[ref.row] = decoded->version;
        }
      }
      break;
    }
    case WalRecord::Kind::kFlush: {
      Result<WosFlushPayload> decoded = DecodeWosFlush(Slice(record.payload));
      if (!decoded.ok()) return;
      std::lock_guard<std::mutex> lock(data_mu_);
      auto it = tables_.find(decoded->table_oid);
      if (it == tables_.end()) return;
      for (WosBatch& batch : it->second.batches) {
        if (batch.lsn > decoded->up_to_lsn) break;
        if (batch.flush_version == 0) batch.flush_version = decoded->version;
      }
      break;
    }
  }
}

std::vector<Row> Wos::CollectVisible(Oid table_oid, uint64_t version) const {
  std::lock_guard<std::mutex> gate(gate_mu_);
  return CollectVisibleLocked(table_oid, version);
}

std::vector<Row> Wos::CollectVisibleLocked(Oid table_oid,
                                           uint64_t version) const {
  std::lock_guard<std::mutex> lock(data_mu_);
  std::vector<Row> out;
  auto it = tables_.find(table_oid);
  if (it == tables_.end()) return out;
  for (const WosBatch& batch : it->second.batches) {
    if (batch.flush_version != 0 && batch.flush_version <= version) continue;
    for (size_t r = 0; r < batch.rows->size(); ++r) {
      const uint64_t ts = batch.tombstone_versions[r];
      if (ts != 0 && ts <= version) continue;
      out.push_back((*batch.rows)[r]);
    }
  }
  return out;
}

Wos::Unflushed Wos::GatherUnflushed(Oid table_oid) const {
  std::lock_guard<std::mutex> lock(data_mu_);
  Unflushed out;
  auto it = tables_.find(table_oid);
  if (it == tables_.end()) return out;
  for (const WosBatch& batch : it->second.batches) {
    if (batch.flush_version != 0) continue;
    out.up_to_lsn = std::max(out.up_to_lsn, batch.lsn);
    for (size_t r = 0; r < batch.rows->size(); ++r) {
      // Tombstoned rows are dropped here instead of being carried to ROS
      // with a delete vector: snapshots older than the tombstone keep
      // reading them from the retained WOS batch.
      if (batch.tombstone_versions[r] != 0) continue;
      out.rows.push_back((*batch.rows)[r]);
    }
  }
  return out;
}

std::vector<Oid> Wos::TablesWithUnflushed() const {
  std::lock_guard<std::mutex> lock(data_mu_);
  std::vector<Oid> out;
  for (const auto& [oid, table] : tables_) {
    for (const WosBatch& batch : table.batches) {
      if (batch.flush_version == 0) {
        out.push_back(oid);
        break;
      }
    }
  }
  return out;
}

uint64_t Wos::UnflushedRows(Oid table_oid) const {
  std::lock_guard<std::mutex> lock(data_mu_);
  auto it = tables_.find(table_oid);
  if (it == tables_.end()) return 0;
  uint64_t rows = 0;
  for (const WosBatch& batch : it->second.batches) {
    if (batch.flush_version == 0) rows += batch.rows->size();
  }
  return rows;
}

uint64_t Wos::MinUnflushedLsn() const {
  std::lock_guard<std::mutex> lock(data_mu_);
  uint64_t min_lsn = 0;
  for (const auto& [oid, table] : tables_) {
    for (const WosBatch& batch : table.batches) {
      if (batch.flush_version != 0) continue;
      if (min_lsn == 0 || batch.lsn < min_lsn) min_lsn = batch.lsn;
    }
  }
  return min_lsn;
}

std::vector<WosRowRef> Wos::FindRows(
    Oid table_oid, const std::function<bool(const Row&)>& pred,
    std::vector<Row>* rows_out) const {
  std::lock_guard<std::mutex> lock(data_mu_);
  std::vector<WosRowRef> out;
  auto it = tables_.find(table_oid);
  if (it == tables_.end()) return out;
  for (const WosBatch& batch : it->second.batches) {
    if (batch.flush_version != 0) continue;
    for (size_t r = 0; r < batch.rows->size(); ++r) {
      if (batch.tombstone_versions[r] != 0) continue;
      if (pred((*batch.rows)[r])) {
        out.push_back(WosRowRef{batch.lsn, static_cast<uint32_t>(r)});
        if (rows_out != nullptr) rows_out->push_back((*batch.rows)[r]);
      }
    }
  }
  return out;
}

std::unique_lock<std::mutex> Wos::LockGate() const {
  return std::unique_lock<std::mutex>(gate_mu_);
}

size_t Wos::ReleaseFlushed(uint64_t min_running_version) {
  std::lock_guard<std::mutex> lock(data_mu_);
  size_t dropped = 0;
  for (auto it = tables_.begin(); it != tables_.end();) {
    std::vector<WosBatch>& batches = it->second.batches;
    auto keep = std::remove_if(
        batches.begin(), batches.end(), [&](const WosBatch& b) {
          return b.flush_version != 0 && b.flush_version <= min_running_version;
        });
    dropped += static_cast<size_t>(batches.end() - keep);
    batches.erase(keep, batches.end());
    it = batches.empty() ? tables_.erase(it) : std::next(it);
  }
  return dropped;
}

void Wos::Clear() {
  std::lock_guard<std::mutex> lock(data_mu_);
  tables_.clear();
}

std::vector<WosTableStats> Wos::SnapshotStats() const {
  std::lock_guard<std::mutex> lock(data_mu_);
  std::vector<WosTableStats> out;
  for (const auto& [oid, table] : tables_) {
    WosTableStats s;
    s.table_oid = oid;
    for (const WosBatch& batch : table.batches) {
      s.batches++;
      s.rows += batch.rows->size();
      s.bytes += batch.bytes;
      if (batch.flush_version == 0) {
        s.unflushed_rows += batch.rows->size();
      } else {
        s.flushed_batches++;
      }
      for (uint64_t ts : batch.tombstone_versions) {
        if (ts != 0) s.tombstoned_rows++;
      }
      if (s.min_lsn == 0 || batch.lsn < s.min_lsn) s.min_lsn = batch.lsn;
      s.max_lsn = std::max(s.max_lsn, batch.lsn);
    }
    out.push_back(s);
  }
  return out;
}

uint64_t Wos::total_rows() const {
  std::lock_guard<std::mutex> lock(data_mu_);
  uint64_t rows = 0;
  for (const auto& [oid, table] : tables_) {
    for (const WosBatch& batch : table.batches) rows += batch.rows->size();
  }
  return rows;
}

uint64_t Wos::total_unflushed_rows() const {
  std::lock_guard<std::mutex> lock(data_mu_);
  uint64_t rows = 0;
  for (const auto& [oid, table] : tables_) {
    for (const WosBatch& batch : table.batches) {
      if (batch.flush_version == 0) rows += batch.rows->size();
    }
  }
  return rows;
}

}  // namespace eon
