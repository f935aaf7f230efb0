#include "catalog/catalog.h"

#include <algorithm>

#include "common/codec.h"
#include "common/hash.h"

namespace eon {

std::string TxnLogRecord::Serialize() const {
  std::string out;
  PutVarint64(&out, version);
  PutVarint64(&out, ops.size());
  for (const CatalogOp& op : ops) {
    out.push_back(static_cast<char>(op.type));
    PutFixed32(&out, op.shard);
    PutVarint64(&out, op.oid);
    PutLengthPrefixed(&out, op.payload);
  }
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<TxnLogRecord> TxnLogRecord::Deserialize(Slice data) {
  if (data.size() < 4) return Status::Corruption("log record too short");
  Slice body(data.data(), data.size() - 4);
  Slice crc_slice(data.data() + data.size() - 4, 4);
  uint32_t stored;
  EON_RETURN_IF_ERROR(GetFixed32(&crc_slice, &stored));
  if (Crc32c(body.data(), body.size()) != stored) {
    return Status::Corruption("log record checksum mismatch");
  }
  TxnLogRecord rec;
  EON_RETURN_IF_ERROR(GetVarint64(&body, &rec.version));
  uint64_t nops;
  EON_RETURN_IF_ERROR(GetVarint64(&body, &nops));
  rec.ops.reserve(nops);
  for (uint64_t i = 0; i < nops; ++i) {
    if (body.empty()) return Status::Corruption("op underflow");
    CatalogOp op;
    op.type = static_cast<CatalogOp::Type>(body[0]);
    body.remove_prefix(1);
    EON_RETURN_IF_ERROR(GetFixed32(&body, &op.shard));
    EON_RETURN_IF_ERROR(GetVarint64(&body, &op.oid));
    Slice payload;
    EON_RETURN_IF_ERROR(GetLengthPrefixed(&body, &payload));
    op.payload = payload.ToString();
    rec.ops.push_back(std::move(op));
  }
  return rec;
}

const TableDef* CatalogState::FindTableByName(const std::string& name) const {
  for (const auto& [oid, t] : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const TableDef* CatalogState::FindTable(Oid oid) const {
  auto it = tables.find(oid);
  return it == tables.end() ? nullptr : &it->second;
}

const ProjectionDef* CatalogState::FindProjection(Oid oid) const {
  auto it = projections.find(oid);
  return it == projections.end() ? nullptr : &it->second;
}

std::vector<const ProjectionDef*> CatalogState::ProjectionsOf(
    Oid table_oid) const {
  std::vector<const ProjectionDef*> out;
  for (const auto& [oid, p] : projections) {
    if (p.table_oid == table_oid) out.push_back(&p);
  }
  return out;
}

std::vector<const StorageContainerMeta*> CatalogState::ContainersOf(
    Oid projection_oid, ShardId shard) const {
  std::vector<const StorageContainerMeta*> out;
  for (const auto& [oid, c] : containers) {
    if (c.projection_oid != projection_oid) continue;
    if (shard != kGlobalShard && c.shard != shard) continue;
    out.push_back(&c);
  }
  return out;
}

std::vector<const DeleteVectorMeta*> CatalogState::DeleteVectorsOf(
    Oid container_oid) const {
  std::vector<const DeleteVectorMeta*> out;
  for (const auto& [oid, d] : delete_vectors) {
    if (d.container_oid == container_oid) out.push_back(&d);
  }
  return out;
}

const Subscription* CatalogState::FindSubscription(Oid node,
                                                   ShardId shard) const {
  auto it = subscriptions.find({node, shard});
  return it == subscriptions.end() ? nullptr : &it->second;
}

std::vector<Oid> CatalogState::SubscribersOf(
    ShardId shard, const std::set<SubscriptionState>& states) const {
  std::vector<Oid> out;
  for (const auto& [key, sub] : subscriptions) {
    if (key.second == shard && states.count(sub.state)) {
      out.push_back(key.first);
    }
  }
  return out;
}

uint64_t CatalogState::ModVersion(Oid oid) const {
  auto it = mod_versions.find(oid);
  return it == mod_versions.end() ? 0 : it->second;
}

void CatalogTxn::SetSharding(const ShardingConfig& cfg) {
  CatalogOp op;
  op.type = CatalogOp::Type::kSetSharding;
  PutVarint32(&op.payload, cfg.num_segment_shards);
  ops_.push_back(std::move(op));
}

void CatalogTxn::PutTable(const TableDef& t) {
  CatalogOp op;
  op.type = CatalogOp::Type::kPutTable;
  op.oid = t.oid;
  SerializeTable(t, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::DropTable(Oid oid) {
  CatalogOp op;
  op.type = CatalogOp::Type::kDropTable;
  op.oid = oid;
  ops_.push_back(std::move(op));
}

void CatalogTxn::PutProjection(const ProjectionDef& p) {
  CatalogOp op;
  op.type = CatalogOp::Type::kPutProjection;
  op.oid = p.oid;
  SerializeProjection(p, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::DropProjection(Oid oid) {
  CatalogOp op;
  op.type = CatalogOp::Type::kDropProjection;
  op.oid = oid;
  ops_.push_back(std::move(op));
}

void CatalogTxn::PutContainer(const StorageContainerMeta& c) {
  CatalogOp op;
  op.type = CatalogOp::Type::kPutContainer;
  op.shard = c.shard;
  op.oid = c.oid;
  SerializeContainer(c, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::DropContainer(Oid oid, ShardId shard) {
  CatalogOp op;
  op.type = CatalogOp::Type::kDropContainer;
  op.shard = shard;
  op.oid = oid;
  ops_.push_back(std::move(op));
}

void CatalogTxn::PutDeleteVector(const DeleteVectorMeta& d) {
  CatalogOp op;
  op.type = CatalogOp::Type::kPutDeleteVector;
  op.shard = d.shard;
  op.oid = d.oid;
  SerializeDeleteVectorMeta(d, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::DropDeleteVector(Oid oid, ShardId shard) {
  CatalogOp op;
  op.type = CatalogOp::Type::kDropDeleteVector;
  op.shard = shard;
  op.oid = oid;
  ops_.push_back(std::move(op));
}

void CatalogTxn::PutSubscription(const Subscription& s) {
  CatalogOp op;
  op.type = CatalogOp::Type::kPutSubscription;
  SerializeSubscription(s, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::DropSubscription(Oid node, ShardId shard) {
  CatalogOp op;
  op.type = CatalogOp::Type::kDropSubscription;
  Subscription s;
  s.node_oid = node;
  s.shard = shard;
  SerializeSubscription(s, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::PutNode(const NodeDef& n) {
  CatalogOp op;
  op.type = CatalogOp::Type::kPutNode;
  op.oid = n.oid;
  SerializeNode(n, &op.payload);
  ops_.push_back(std::move(op));
}

void CatalogTxn::DropNode(Oid oid) {
  CatalogOp op;
  op.type = CatalogOp::Type::kDropNode;
  op.oid = oid;
  ops_.push_back(std::move(op));
}

void CatalogTxn::ExpectVersion(Oid oid, uint64_t version) {
  expected_[oid] = version;
}

Catalog::Catalog() : state_(std::make_shared<CatalogState>()) {}

void Catalog::ReplaceWith(Catalog&& other) {
  std::scoped_lock lock(mu_, other.mu_);
  state_ = std::move(other.state_);
  log_ = std::move(other.log_);
  next_oid_ = other.next_oid_;
}

std::shared_ptr<const CatalogState> Catalog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t Catalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->version;
}

Oid Catalog::NextOid() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_oid_++;
}

Status Catalog::ApplyOpsLocked(const std::vector<CatalogOp>& ops,
                               const std::set<ShardId>* shard_filter,
                               CatalogState* state) {
  const uint64_t new_version = state->version;  // Caller already bumped.
  for (const CatalogOp& op : ops) {
    if (shard_filter && !op.IsGlobal() && !shard_filter->count(op.shard)) {
      continue;  // Storage metadata for an unsubscribed shard.
    }
    Slice payload(op.payload);
    switch (op.type) {
      case CatalogOp::Type::kSetSharding: {
        uint32_t n;
        EON_RETURN_IF_ERROR(GetVarint32(&payload, &n));
        state->sharding.num_segment_shards = n;
        break;
      }
      case CatalogOp::Type::kPutTable: {
        EON_ASSIGN_OR_RETURN(TableDef t, DeserializeTable(&payload));
        state->mod_versions[t.oid] = new_version;
        next_oid_ = std::max(next_oid_, t.oid + 1);
        state->tables[t.oid] = std::move(t);
        break;
      }
      case CatalogOp::Type::kDropTable:
        state->tables.erase(op.oid);
        state->mod_versions[op.oid] = new_version;
        break;
      case CatalogOp::Type::kPutProjection: {
        EON_ASSIGN_OR_RETURN(ProjectionDef p, DeserializeProjection(&payload));
        state->mod_versions[p.oid] = new_version;
        next_oid_ = std::max(next_oid_, p.oid + 1);
        state->projections[p.oid] = std::move(p);
        break;
      }
      case CatalogOp::Type::kDropProjection:
        state->projections.erase(op.oid);
        state->mod_versions[op.oid] = new_version;
        break;
      case CatalogOp::Type::kPutContainer: {
        EON_ASSIGN_OR_RETURN(StorageContainerMeta c,
                             DeserializeContainer(&payload));
        state->mod_versions[c.oid] = new_version;
        next_oid_ = std::max(next_oid_, c.oid + 1);
        state->containers[c.oid] = std::move(c);
        break;
      }
      case CatalogOp::Type::kDropContainer:
        state->containers.erase(op.oid);
        state->mod_versions[op.oid] = new_version;
        break;
      case CatalogOp::Type::kPutDeleteVector: {
        EON_ASSIGN_OR_RETURN(DeleteVectorMeta d,
                             DeserializeDeleteVectorMeta(&payload));
        state->mod_versions[d.oid] = new_version;
        next_oid_ = std::max(next_oid_, d.oid + 1);
        state->delete_vectors[d.oid] = std::move(d);
        break;
      }
      case CatalogOp::Type::kDropDeleteVector:
        state->delete_vectors.erase(op.oid);
        state->mod_versions[op.oid] = new_version;
        break;
      case CatalogOp::Type::kPutSubscription: {
        EON_ASSIGN_OR_RETURN(Subscription s, DeserializeSubscription(&payload));
        state->subscriptions[{s.node_oid, s.shard}] = s;
        break;
      }
      case CatalogOp::Type::kDropSubscription: {
        EON_ASSIGN_OR_RETURN(Subscription s, DeserializeSubscription(&payload));
        state->subscriptions.erase({s.node_oid, s.shard});
        break;
      }
      case CatalogOp::Type::kPutNode: {
        EON_ASSIGN_OR_RETURN(NodeDef n, DeserializeNode(&payload));
        state->mod_versions[n.oid] = new_version;
        next_oid_ = std::max(next_oid_, n.oid + 1);
        state->nodes[n.oid] = std::move(n);
        break;
      }
      case CatalogOp::Type::kDropNode:
        state->nodes.erase(op.oid);
        state->mod_versions[op.oid] = new_version;
        break;
    }
  }
  return Status::OK();
}

Result<uint64_t> Catalog::Commit(const CatalogTxn& txn) {
  std::lock_guard<std::mutex> lock(mu_);
  // OCC validation: every object in the read set must be unmodified
  // (Section 6.3). On mismatch the transaction rolls back.
  for (const auto& [oid, expected] : txn.expected_versions()) {
    auto it = state_->mod_versions.find(oid);
    uint64_t current = it == state_->mod_versions.end() ? 0 : it->second;
    if (current != expected) {
      return Status::Aborted("OCC conflict on oid " + std::to_string(oid) +
                             ": read v" + std::to_string(expected) +
                             ", now v" + std::to_string(current));
    }
  }
  auto new_state = std::make_shared<CatalogState>(*state_);
  new_state->version = state_->version + 1;
  EON_RETURN_IF_ERROR(ApplyOpsLocked(txn.ops(), nullptr, new_state.get()));
  TxnLogRecord rec;
  rec.version = new_state->version;
  rec.ops = txn.ops();
  log_.push_back(std::move(rec));
  state_ = std::move(new_state);
  return state_->version;
}

Status Catalog::Apply(const TxnLogRecord& record,
                      const std::set<ShardId>* shard_filter) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.version != state_->version + 1) {
    return Status::InvalidArgument(
        "log record version " + std::to_string(record.version) +
        " does not follow catalog version " +
        std::to_string(state_->version));
  }
  auto new_state = std::make_shared<CatalogState>(*state_);
  new_state->version = record.version;
  EON_RETURN_IF_ERROR(
      ApplyOpsLocked(record.ops, shard_filter, new_state.get()));
  log_.push_back(record);
  state_ = std::move(new_state);
  return Status::OK();
}

std::vector<TxnLogRecord> Catalog::LogsAfter(uint64_t after_version) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnLogRecord> out;
  for (const TxnLogRecord& rec : log_) {
    if (rec.version > after_version) out.push_back(rec);
  }
  return out;
}

Status Catalog::ImportStorageObjects(
    const std::vector<StorageContainerMeta>& containers,
    const std::vector<DeleteVectorMeta>& delete_vectors) {
  std::lock_guard<std::mutex> lock(mu_);
  auto new_state = std::make_shared<CatalogState>(*state_);
  for (const StorageContainerMeta& c : containers) {
    next_oid_ = std::max(next_oid_, c.oid + 1);
    new_state->containers[c.oid] = c;
  }
  for (const DeleteVectorMeta& d : delete_vectors) {
    next_oid_ = std::max(next_oid_, d.oid + 1);
    new_state->delete_vectors[d.oid] = d;
  }
  state_ = std::move(new_state);
  return Status::OK();
}

Status Catalog::PurgeShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto new_state = std::make_shared<CatalogState>(*state_);
  for (auto it = new_state->containers.begin();
       it != new_state->containers.end();) {
    it = it->second.shard == shard ? new_state->containers.erase(it)
                                   : std::next(it);
  }
  for (auto it = new_state->delete_vectors.begin();
       it != new_state->delete_vectors.end();) {
    it = it->second.shard == shard ? new_state->delete_vectors.erase(it)
                                   : std::next(it);
  }
  state_ = std::move(new_state);
  return Status::OK();
}

std::string Catalog::SerializeCheckpoint() const {
  std::shared_ptr<const CatalogState> s = snapshot();
  std::string out;
  PutVarint64(&out, s->version);
  {
    std::lock_guard<std::mutex> lock(mu_);
    PutVarint64(&out, next_oid_);
  }
  PutVarint32(&out, s->sharding.num_segment_shards);

  PutVarint64(&out, s->tables.size());
  for (const auto& [oid, t] : s->tables) SerializeTable(t, &out);
  PutVarint64(&out, s->projections.size());
  for (const auto& [oid, p] : s->projections) SerializeProjection(p, &out);
  PutVarint64(&out, s->containers.size());
  for (const auto& [oid, c] : s->containers) SerializeContainer(c, &out);
  PutVarint64(&out, s->delete_vectors.size());
  for (const auto& [oid, d] : s->delete_vectors) {
    SerializeDeleteVectorMeta(d, &out);
  }
  PutVarint64(&out, s->nodes.size());
  for (const auto& [oid, n] : s->nodes) SerializeNode(n, &out);
  PutVarint64(&out, s->subscriptions.size());
  for (const auto& [key, sub] : s->subscriptions) {
    SerializeSubscription(sub, &out);
  }
  PutVarint64(&out, s->mod_versions.size());
  for (const auto& [oid, v] : s->mod_versions) {
    PutVarint64(&out, oid);
    PutVarint64(&out, v);
  }
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<std::unique_ptr<Catalog>> Catalog::Restore(
    Slice checkpoint, const std::vector<TxnLogRecord>& logs,
    uint64_t upto_version, const std::set<ShardId>* shard_filter) {
  if (checkpoint.size() < 4) return Status::Corruption("checkpoint too short");
  Slice body(checkpoint.data(), checkpoint.size() - 4);
  Slice crc_slice(checkpoint.data() + checkpoint.size() - 4, 4);
  uint32_t stored;
  EON_RETURN_IF_ERROR(GetFixed32(&crc_slice, &stored));
  if (Crc32c(body.data(), body.size()) != stored) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  auto catalog = std::make_unique<Catalog>();
  auto state = std::make_shared<CatalogState>();
  EON_RETURN_IF_ERROR(GetVarint64(&body, &state->version));
  EON_RETURN_IF_ERROR(GetVarint64(&body, &catalog->next_oid_));
  EON_RETURN_IF_ERROR(
      GetVarint32(&body, &state->sharding.num_segment_shards));

  uint64_t n;
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    EON_ASSIGN_OR_RETURN(TableDef t, DeserializeTable(&body));
    state->tables[t.oid] = std::move(t);
  }
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    EON_ASSIGN_OR_RETURN(ProjectionDef p, DeserializeProjection(&body));
    state->projections[p.oid] = std::move(p);
  }
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    EON_ASSIGN_OR_RETURN(StorageContainerMeta c, DeserializeContainer(&body));
    if (shard_filter && !shard_filter->count(c.shard)) continue;
    state->containers[c.oid] = std::move(c);
  }
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    EON_ASSIGN_OR_RETURN(DeleteVectorMeta d, DeserializeDeleteVectorMeta(&body));
    if (shard_filter && !shard_filter->count(d.shard)) continue;
    state->delete_vectors[d.oid] = std::move(d);
  }
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    EON_ASSIGN_OR_RETURN(NodeDef nd, DeserializeNode(&body));
    state->nodes[nd.oid] = std::move(nd);
  }
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    EON_ASSIGN_OR_RETURN(Subscription sub, DeserializeSubscription(&body));
    state->subscriptions[{sub.node_oid, sub.shard}] = sub;
  }
  EON_RETURN_IF_ERROR(GetVarint64(&body, &n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t oid, ver;
    EON_RETURN_IF_ERROR(GetVarint64(&body, &oid));
    EON_RETURN_IF_ERROR(GetVarint64(&body, &ver));
    state->mod_versions[oid] = ver;
  }

  if (state->version > upto_version) {
    return Status::InvalidArgument("checkpoint is newer than target version");
  }
  catalog->state_ = std::move(state);

  // Replay subsequent logs in version order up to the target.
  std::vector<TxnLogRecord> sorted = logs;
  std::sort(sorted.begin(), sorted.end(),
            [](const TxnLogRecord& a, const TxnLogRecord& b) {
              return a.version < b.version;
            });
  for (const TxnLogRecord& rec : sorted) {
    if (rec.version <= catalog->version()) continue;
    if (rec.version > upto_version) break;
    EON_RETURN_IF_ERROR(catalog->Apply(rec, shard_filter));
  }
  if (catalog->version() != upto_version) {
    return Status::NotFound("missing log records to reach version " +
                            std::to_string(upto_version) + " (have " +
                            std::to_string(catalog->version()) + ")");
  }
  return catalog;
}

}  // namespace eon
