#include "catalog/objects.h"

#include <algorithm>
#include <map>

#include "columnar/sort.h"
#include "columnar/value_codec.h"
#include "common/codec.h"
#include "common/hash.h"

namespace eon {

const char* SubscriptionStateName(SubscriptionState s) {
  switch (s) {
    case SubscriptionState::kPending: return "PENDING";
    case SubscriptionState::kPassive: return "PASSIVE";
    case SubscriptionState::kActive: return "ACTIVE";
    case SubscriptionState::kRemoving: return "REMOVING";
  }
  return "?";
}

Schema ProjectionDef::DeriveSchema(const Schema& table_schema) const {
  std::vector<ColumnDef> cols;
  cols.reserve(columns.size());
  for (size_t table_col : columns) cols.push_back(table_schema.column(table_col));
  return Schema(std::move(cols));
}

uint32_t ProjectionDef::SegHashRow(const Row& row) const {
  uint32_t h = 0;
  bool first = true;
  for (size_t col : segmentation_columns) {
    uint32_t ch = row[col].SegHash();
    h = first ? ch : SegmentationHashCombine(h, ch);
    first = false;
  }
  return h;
}

std::vector<ContainerRows> PlaceRows(const ShardingConfig& sharding,
                                     const TableDef& table,
                                     const ProjectionDef& proj,
                                     const std::vector<Row>& table_rows) {
  std::map<ShardId, std::vector<Row>> by_shard;
  for (const Row& row : table_rows) {
    Row pr;
    pr.reserve(proj.columns.size());
    for (size_t tc : proj.columns) pr.push_back(row[tc]);
    const ShardId s = proj.replicated()
                          ? sharding.replica_shard()
                          : sharding.ShardForHash(proj.SegHashRow(pr));
    by_shard[s].push_back(std::move(pr));
  }
  std::optional<size_t> partition_pos;
  if (table.partition_column.has_value()) {
    auto it = std::find(proj.columns.begin(), proj.columns.end(),
                        *table.partition_column);
    if (it != proj.columns.end()) {
      partition_pos = static_cast<size_t>(it - proj.columns.begin());
    }
  }

  std::vector<ContainerRows> groups;
  for (auto& [shard, rows] : by_shard) {
    if (!partition_pos.has_value()) {
      groups.push_back(ContainerRows{shard, std::move(rows)});
    } else {
      std::map<Value, std::vector<Row>> by_partition;
      for (Row& row : rows) {
        by_partition[row[*partition_pos]].push_back(std::move(row));
      }
      for (auto& [value, part_rows] : by_partition) {
        groups.push_back(ContainerRows{shard, std::move(part_rows)});
      }
    }
  }
  for (ContainerRows& g : groups) SortRowsBy(&g.rows, proj.sort_columns);
  return groups;
}

namespace {

void SerializeSchema(const Schema& s, std::string* out) {
  PutVarint64(out, s.num_columns());
  for (const ColumnDef& c : s.columns()) {
    PutLengthPrefixed(out, c.name);
    out->push_back(static_cast<char>(c.type));
  }
}

Result<Schema> DeserializeSchema(Slice* in) {
  uint64_t n;
  EON_RETURN_IF_ERROR(GetVarint64(in, &n));
  std::vector<ColumnDef> cols;
  cols.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Slice name;
    EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &name));
    if (in->empty()) return Status::Corruption("schema underflow");
    DataType type = static_cast<DataType>((*in)[0]);
    in->remove_prefix(1);
    cols.push_back(ColumnDef{name.ToString(), type});
  }
  return Schema(std::move(cols));
}

void SerializeIndexVec(const std::vector<size_t>& v, std::string* out) {
  PutVarint64(out, v.size());
  for (size_t x : v) PutVarint64(out, x);
}

Status DeserializeIndexVec(Slice* in, std::vector<size_t>* v) {
  uint64_t n;
  EON_RETURN_IF_ERROR(GetVarint64(in, &n));
  v->clear();
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t x;
    EON_RETURN_IF_ERROR(GetVarint64(in, &x));
    v->push_back(static_cast<size_t>(x));
  }
  return Status::OK();
}

void SerializeRange(const ValueRange& r, std::string* out) {
  out->push_back(r.valid ? 1 : 0);
  out->push_back(r.has_null ? 1 : 0);
  if (r.valid) {
    out->push_back(static_cast<char>(r.min.type()));
    PutValue(out, r.min);
    PutValue(out, r.max);
  }
}

Status DeserializeRange(Slice* in, ValueRange* r) {
  if (in->size() < 2) return Status::Corruption("range underflow");
  r->valid = (*in)[0] != 0;
  r->has_null = (*in)[1] != 0;
  in->remove_prefix(2);
  if (r->valid) {
    if (in->empty()) return Status::Corruption("range type underflow");
    DataType type = static_cast<DataType>((*in)[0]);
    in->remove_prefix(1);
    EON_RETURN_IF_ERROR(GetValue(in, type, &r->min));
    EON_RETURN_IF_ERROR(GetValue(in, type, &r->max));
  }
  return Status::OK();
}

}  // namespace

void SerializeTable(const TableDef& t, std::string* out) {
  PutVarint64(out, t.oid);
  PutLengthPrefixed(out, t.name);
  SerializeSchema(t.schema, out);
  out->push_back(t.partition_column.has_value() ? 1 : 0);
  if (t.partition_column) PutVarint64(out, *t.partition_column);
  PutVarint64(out, t.lap_base);
  SerializeIndexVec(t.lap_group_columns, out);
  PutVarint64(out, t.lap_aggs.size());
  for (const LiveAggSpec& a : t.lap_aggs) {
    out->push_back(static_cast<char>(a.fn));
    PutVarint64(out, a.source_column);
  }
  PutVarint64(out, t.flattened.size());
  for (const FlattenedColDef& f : t.flattened) {
    PutVarint64(out, f.target_column);
    PutVarint64(out, f.fact_key_column);
    PutVarint64(out, f.dim_table);
    PutVarint64(out, f.dim_key_column);
    PutVarint64(out, f.dim_value_column);
  }
}

Result<TableDef> DeserializeTable(Slice* in) {
  TableDef t;
  EON_RETURN_IF_ERROR(GetVarint64(in, &t.oid));
  Slice name;
  EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &name));
  t.name = name.ToString();
  EON_ASSIGN_OR_RETURN(t.schema, DeserializeSchema(in));
  if (in->empty()) return Status::Corruption("table underflow");
  bool has_partition = (*in)[0] != 0;
  in->remove_prefix(1);
  if (has_partition) {
    uint64_t col;
    EON_RETURN_IF_ERROR(GetVarint64(in, &col));
    t.partition_column = static_cast<size_t>(col);
  }
  EON_RETURN_IF_ERROR(GetVarint64(in, &t.lap_base));
  EON_RETURN_IF_ERROR(DeserializeIndexVec(in, &t.lap_group_columns));
  uint64_t naggs;
  EON_RETURN_IF_ERROR(GetVarint64(in, &naggs));
  t.lap_aggs.reserve(naggs);
  for (uint64_t i = 0; i < naggs; ++i) {
    if (in->empty()) return Status::Corruption("lap agg underflow");
    LiveAggSpec a;
    a.fn = static_cast<AggFn>((*in)[0]);
    in->remove_prefix(1);
    uint64_t col;
    EON_RETURN_IF_ERROR(GetVarint64(in, &col));
    a.source_column = static_cast<size_t>(col);
    t.lap_aggs.push_back(a);
  }
  uint64_t nflat;
  EON_RETURN_IF_ERROR(GetVarint64(in, &nflat));
  t.flattened.reserve(nflat);
  for (uint64_t i = 0; i < nflat; ++i) {
    FlattenedColDef f;
    uint64_t v;
    EON_RETURN_IF_ERROR(GetVarint64(in, &v));
    f.target_column = static_cast<size_t>(v);
    EON_RETURN_IF_ERROR(GetVarint64(in, &v));
    f.fact_key_column = static_cast<size_t>(v);
    EON_RETURN_IF_ERROR(GetVarint64(in, &f.dim_table));
    EON_RETURN_IF_ERROR(GetVarint64(in, &v));
    f.dim_key_column = static_cast<size_t>(v);
    EON_RETURN_IF_ERROR(GetVarint64(in, &v));
    f.dim_value_column = static_cast<size_t>(v);
    t.flattened.push_back(f);
  }
  return t;
}

void SerializeProjection(const ProjectionDef& p, std::string* out) {
  PutVarint64(out, p.oid);
  PutVarint64(out, p.table_oid);
  PutLengthPrefixed(out, p.name);
  SerializeIndexVec(p.columns, out);
  SerializeIndexVec(p.sort_columns, out);
  SerializeIndexVec(p.segmentation_columns, out);
}

Result<ProjectionDef> DeserializeProjection(Slice* in) {
  ProjectionDef p;
  EON_RETURN_IF_ERROR(GetVarint64(in, &p.oid));
  EON_RETURN_IF_ERROR(GetVarint64(in, &p.table_oid));
  Slice name;
  EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &name));
  p.name = name.ToString();
  EON_RETURN_IF_ERROR(DeserializeIndexVec(in, &p.columns));
  EON_RETURN_IF_ERROR(DeserializeIndexVec(in, &p.sort_columns));
  EON_RETURN_IF_ERROR(DeserializeIndexVec(in, &p.segmentation_columns));
  return p;
}

void SerializeContainer(const StorageContainerMeta& c, std::string* out) {
  PutVarint64(out, c.oid);
  PutVarint64(out, c.projection_oid);
  PutFixed32(out, c.shard);
  PutLengthPrefixed(out, c.base_key);
  PutVarint64(out, c.row_count);
  PutVarint64(out, c.total_bytes);
  PutVarint64(out, c.num_columns);
  PutVarint64(out, c.column_ranges.size());
  for (const ValueRange& r : c.column_ranges) SerializeRange(r, out);
  PutVarint32(out, c.stratum);
  PutVarint64(out, c.create_version);
}

Result<StorageContainerMeta> DeserializeContainer(Slice* in) {
  StorageContainerMeta c;
  EON_RETURN_IF_ERROR(GetVarint64(in, &c.oid));
  EON_RETURN_IF_ERROR(GetVarint64(in, &c.projection_oid));
  EON_RETURN_IF_ERROR(GetFixed32(in, &c.shard));
  Slice key;
  EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &key));
  c.base_key = key.ToString();
  EON_RETURN_IF_ERROR(GetVarint64(in, &c.row_count));
  EON_RETURN_IF_ERROR(GetVarint64(in, &c.total_bytes));
  EON_RETURN_IF_ERROR(GetVarint64(in, &c.num_columns));
  uint64_t nranges;
  EON_RETURN_IF_ERROR(GetVarint64(in, &nranges));
  c.column_ranges.resize(nranges);
  for (uint64_t i = 0; i < nranges; ++i) {
    EON_RETURN_IF_ERROR(DeserializeRange(in, &c.column_ranges[i]));
  }
  EON_RETURN_IF_ERROR(GetVarint32(in, &c.stratum));
  EON_RETURN_IF_ERROR(GetVarint64(in, &c.create_version));
  return c;
}

void SerializeDeleteVectorMeta(const DeleteVectorMeta& d, std::string* out) {
  PutVarint64(out, d.oid);
  PutVarint64(out, d.container_oid);
  PutFixed32(out, d.shard);
  PutLengthPrefixed(out, d.key);
  PutVarint64(out, d.deleted_count);
}

Result<DeleteVectorMeta> DeserializeDeleteVectorMeta(Slice* in) {
  DeleteVectorMeta d;
  EON_RETURN_IF_ERROR(GetVarint64(in, &d.oid));
  EON_RETURN_IF_ERROR(GetVarint64(in, &d.container_oid));
  EON_RETURN_IF_ERROR(GetFixed32(in, &d.shard));
  Slice key;
  EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &key));
  d.key = key.ToString();
  EON_RETURN_IF_ERROR(GetVarint64(in, &d.deleted_count));
  return d;
}

void SerializeSubscription(const Subscription& s, std::string* out) {
  PutVarint64(out, s.node_oid);
  PutFixed32(out, s.shard);
  out->push_back(static_cast<char>(s.state));
}

Result<Subscription> DeserializeSubscription(Slice* in) {
  Subscription s;
  EON_RETURN_IF_ERROR(GetVarint64(in, &s.node_oid));
  EON_RETURN_IF_ERROR(GetFixed32(in, &s.shard));
  if (in->empty()) return Status::Corruption("subscription underflow");
  s.state = static_cast<SubscriptionState>((*in)[0]);
  in->remove_prefix(1);
  return s;
}

void SerializeNode(const NodeDef& n, std::string* out) {
  PutVarint64(out, n.oid);
  PutLengthPrefixed(out, n.name);
  PutLengthPrefixed(out, n.subcluster);
}

Result<NodeDef> DeserializeNode(Slice* in) {
  NodeDef n;
  EON_RETURN_IF_ERROR(GetVarint64(in, &n.oid));
  Slice name, sub;
  EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &name));
  EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &sub));
  n.name = name.ToString();
  n.subcluster = sub.ToString();
  return n;
}

}  // namespace eon
