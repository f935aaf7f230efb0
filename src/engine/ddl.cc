#include "engine/ddl.h"

#include "engine/dml.h"
#include "engine/executor.h"
#include "engine/system_tables.h"

namespace eon {

namespace {

/// "dc_" / "system_" are reserved for system tables; user DDL may not
/// claim them even for names no system table uses yet.
Status CheckNotReserved(const std::string& name) {
  if (IsReservedSystemName(name)) {
    return Status::InvalidArgument(
        "table name is in the reserved system namespace: " + name);
  }
  return Status::OK();
}

/// Build the creation transaction for a (possibly flattened) table and
/// its projections. Shared by CreateTable and CreateFlattenedTable.
Result<Oid> CommitNewTable(EonCluster* cluster, TableDef table,
                           const std::vector<ProjectionSpec>& projections) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  EON_RETURN_IF_ERROR(CheckNotReserved(table.name));
  auto snapshot = coord->catalog()->snapshot();
  if (snapshot->FindTableByName(table.name) != nullptr) {
    return Status::AlreadyExists("table exists: " + table.name);
  }
  if (projections.empty()) {
    return Status::InvalidArgument("table needs at least one projection");
  }
  table.oid = coord->catalog()->NextOid();

  CatalogTxn txn;
  txn.PutTable(table);
  const Schema& schema = table.schema;
  for (size_t pi = 0; pi < projections.size(); ++pi) {
    const ProjectionSpec& spec = projections[pi];
    ProjectionDef proj;
    proj.oid = coord->catalog()->NextOid();
    proj.table_oid = table.oid;
    proj.name = spec.name.empty() ? table.name + "_p" + std::to_string(pi)
                                  : spec.name;

    // Resolve columns (empty = all).
    if (spec.columns.empty()) {
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        proj.columns.push_back(c);
      }
    } else {
      for (const std::string& col : spec.columns) {
        EON_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
        proj.columns.push_back(idx);
      }
    }
    if (pi == 0 && proj.columns.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "first projection must be a superprojection (all columns)");
    }

    // Sort order and segmentation refer to projection positions.
    Schema proj_schema = proj.DeriveSchema(schema);
    for (const std::string& col : spec.sort_columns) {
      EON_ASSIGN_OR_RETURN(size_t idx, proj_schema.IndexOf(col));
      proj.sort_columns.push_back(idx);
    }
    for (const std::string& col : spec.segmentation_columns) {
      EON_ASSIGN_OR_RETURN(size_t idx, proj_schema.IndexOf(col));
      proj.segmentation_columns.push_back(idx);
    }
    txn.PutProjection(proj);
  }

  Result<uint64_t> v = cluster->CommitDistributed(coord->oid(), txn);
  if (!v.ok()) return v.status();
  return table.oid;
}

}  // namespace

Result<Oid> CreateTable(EonCluster* cluster, const std::string& name,
                        const Schema& schema,
                        std::optional<std::string> partition_column,
                        const std::vector<ProjectionSpec>& projections) {
  TableDef table;
  table.name = name;
  table.schema = schema;
  if (partition_column) {
    EON_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(*partition_column));
    table.partition_column = idx;
  }
  return CommitNewTable(cluster, std::move(table), projections);
}

Result<Oid> CreateFlattenedTable(
    EonCluster* cluster, const std::string& name, const Schema& base_schema,
    std::optional<std::string> partition_column,
    const std::vector<ProjectionSpec>& projections,
    const std::vector<FlattenedColumn>& flattened_columns) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  if (flattened_columns.empty()) {
    return Status::InvalidArgument("flattened table needs derived columns");
  }
  auto snapshot = coord->catalog()->snapshot();

  TableDef table;
  table.name = name;
  std::vector<ColumnDef> cols = base_schema.columns();
  for (size_t i = 0; i < flattened_columns.size(); ++i) {
    const FlattenedColumn& fc = flattened_columns[i];
    const TableDef* dim = snapshot->FindTableByName(fc.dim_table);
    if (dim == nullptr) {
      return Status::NotFound("no such dimension table: " + fc.dim_table);
    }
    FlattenedColDef def;
    def.target_column = base_schema.num_columns() + i;
    EON_ASSIGN_OR_RETURN(def.fact_key_column,
                         base_schema.IndexOf(fc.fact_key));
    def.dim_table = dim->oid;
    EON_ASSIGN_OR_RETURN(def.dim_key_column, dim->schema.IndexOf(fc.dim_key));
    EON_ASSIGN_OR_RETURN(def.dim_value_column,
                         dim->schema.IndexOf(fc.dim_value));
    cols.push_back(
        ColumnDef{fc.as, dim->schema.column(def.dim_value_column).type});
    table.flattened.push_back(def);
  }
  table.schema = Schema(std::move(cols));
  if (partition_column) {
    EON_ASSIGN_OR_RETURN(size_t idx, table.schema.IndexOf(*partition_column));
    table.partition_column = idx;
  }
  return CommitNewTable(cluster, std::move(table), projections);
}

Result<uint64_t> RefreshFlattenedTable(EonCluster* cluster,
                                       const std::string& table) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);
  if (!tdef->is_flattened()) {
    return Status::InvalidArgument(table + " is not a flattened table");
  }

  // Fresh dimension lookups.
  std::vector<std::map<Value, Value>> lookups;
  for (const FlattenedColDef& def : tdef->flattened) {
    using DimLookupMap = std::map<Value, Value>;
      EON_ASSIGN_OR_RETURN(DimLookupMap lookup,
                         BuildDimensionLookup(cluster, *snapshot, def));
    lookups.push_back(std::move(lookup));
  }

  // Read the full table and find rows whose derived values are stale.
  QuerySpec scan_all;
  scan_all.scan.table = table;
  for (const ColumnDef& c : tdef->schema.columns()) {
    scan_all.scan.columns.push_back(c.name);
  }
  EON_ASSIGN_OR_RETURN(ExecContext ctx,
                       BuildExecContext(cluster, "", tdef->oid));
  EON_ASSIGN_OR_RETURN(QueryResult all, ExecuteQuery(cluster, scan_all, ctx));

  const size_t base_arity = tdef->schema.num_columns() - tdef->flattened.size();
  uint64_t changed = 0;
  for (const Row& row : all.rows) {
    for (size_t i = 0; i < tdef->flattened.size(); ++i) {
      const FlattenedColDef& def = tdef->flattened[i];
      auto it = lookups[i].find(row[def.fact_key_column]);
      const Value fresh = it == lookups[i].end()
                              ? Value::Null(tdef->schema
                                                .column(def.target_column)
                                                .type)
                              : it->second;
      if (row[def.target_column].Compare(fresh) != 0 ||
          row[def.target_column].is_null() != fresh.is_null()) {
        changed++;
        break;
      }
    }
  }
  if (changed == 0) return 0;

  // Rewrite the table: tombstone everything, reload base columns (the
  // load path re-derives the denormalized values).
  EON_ASSIGN_OR_RETURN(uint64_t deleted,
                       DeleteWhere(cluster, table, Predicate::True()));
  (void)deleted;
  std::vector<Row> base_rows;
  base_rows.reserve(all.rows.size());
  for (Row& row : all.rows) {
    row.resize(base_arity);
    base_rows.push_back(std::move(row));
  }
  EON_ASSIGN_OR_RETURN(uint64_t version, CopyInto(cluster, table, base_rows));
  (void)version;
  return changed;
}

Result<Oid> CopyTable(EonCluster* cluster, const std::string& source,
                      const std::string& destination) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* src = snapshot->FindTableByName(source);
  if (src == nullptr) return Status::NotFound("no such table: " + source);
  EON_RETURN_IF_ERROR(CheckNotReserved(destination));
  if (snapshot->FindTableByName(destination) != nullptr) {
    return Status::AlreadyExists("table exists: " + destination);
  }
  if (src->is_live_aggregate()) {
    return Status::InvalidArgument("cannot copy a live aggregate projection");
  }

  CatalogTxn txn;
  TableDef dst = *src;
  dst.oid = coord->catalog()->NextOid();
  dst.name = destination;
  txn.PutTable(dst);

  // Mirror every projection; the new containers reference the SAME
  // immutable files — a pure metadata operation.
  for (const ProjectionDef* proj : snapshot->ProjectionsOf(src->oid)) {
    ProjectionDef new_proj = *proj;
    new_proj.oid = coord->catalog()->NextOid();
    new_proj.table_oid = dst.oid;
    new_proj.name = destination + "_" + proj->name;
    txn.PutProjection(new_proj);

    for (const StorageContainerMeta* c : snapshot->ContainersOf(proj->oid)) {
      StorageContainerMeta copy = *c;
      copy.oid = coord->catalog()->NextOid();
      copy.projection_oid = new_proj.oid;
      txn.PutContainer(copy);
      // Delete vectors carry over too (the copy sees the same tombstones).
      for (const DeleteVectorMeta* dv : snapshot->DeleteVectorsOf(c->oid)) {
        DeleteVectorMeta dv_copy = *dv;
        dv_copy.oid = coord->catalog()->NextOid();
        dv_copy.container_oid = copy.oid;
        txn.PutDeleteVector(dv_copy);
      }
    }
  }
  txn.ExpectVersion(src->oid, snapshot->ModVersion(src->oid));
  Result<uint64_t> v = cluster->CommitDistributed(coord->oid(), txn);
  if (!v.ok()) return v.status();
  return dst.oid;
}

Status DropTable(EonCluster* cluster, const std::string& table) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);
  // A dimension referenced by a flattened table cannot be dropped.
  for (const auto& [oid, t] : snapshot->tables) {
    for (const FlattenedColDef& f : t.flattened) {
      if (f.dim_table == tdef->oid) {
        return Status::NotSupported("table " + table +
                                    " is a dimension of flattened table " +
                                    t.name);
      }
    }
  }

  // Cascade: this table plus its live aggregate projections.
  std::set<Oid> doomed_tables = {tdef->oid};
  for (const auto& [oid, t] : snapshot->tables) {
    if (t.lap_base == tdef->oid) doomed_tables.insert(oid);
  }

  CatalogTxn txn;
  std::set<Oid> doomed_containers;
  std::vector<std::string> dropped_keys;
  for (Oid toid : doomed_tables) {
    txn.DropTable(toid);
    for (const ProjectionDef* proj : snapshot->ProjectionsOf(toid)) {
      txn.DropProjection(proj->oid);
      for (const StorageContainerMeta* c : snapshot->ContainersOf(proj->oid)) {
        txn.DropContainer(c->oid, c->shard);
        doomed_containers.insert(c->oid);
        dropped_keys.push_back(c->base_key);
        for (const DeleteVectorMeta* dv : snapshot->DeleteVectorsOf(c->oid)) {
          txn.DropDeleteVector(dv->oid, dv->shard);
          dropped_keys.push_back(dv->key);
        }
      }
    }
  }

  // copy_table sharing: keys still referenced by a surviving container
  // (or its delete vectors) must NOT be reclaimed (Section 6.5's
  // reference counting across tables).
  std::set<std::string> still_referenced;
  for (const auto& [oid, c] : snapshot->containers) {
    if (!doomed_containers.count(oid)) still_referenced.insert(c.base_key);
  }
  for (const auto& [oid, dv] : snapshot->delete_vectors) {
    if (!doomed_containers.count(dv.container_oid)) {
      still_referenced.insert(dv.key);
    }
  }
  std::vector<std::string> reclaimable;
  for (const std::string& key : dropped_keys) {
    if (!still_referenced.count(key)) reclaimable.push_back(key);
  }

  EON_ASSIGN_OR_RETURN(uint64_t version,
                       cluster->CommitDistributed(coord->oid(), txn));
  cluster->TrackDroppedFiles(reclaimable, version);
  return Status::OK();
}

Result<Oid> AddProjection(EonCluster* cluster, const std::string& table,
                          const ProjectionSpec& spec) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);

  ProjectionDef proj;
  proj.oid = coord->catalog()->NextOid();
  proj.table_oid = tdef->oid;
  proj.name = spec.name.empty() ? table + "_p_new" : spec.name;
  for (const auto& [poid, existing] : snapshot->projections) {
    if (existing.table_oid == tdef->oid && existing.name == proj.name) {
      return Status::AlreadyExists("projection exists: " + proj.name);
    }
  }
  if (spec.columns.empty()) {
    for (size_t c = 0; c < tdef->schema.num_columns(); ++c) {
      proj.columns.push_back(c);
    }
  } else {
    for (const std::string& col : spec.columns) {
      EON_ASSIGN_OR_RETURN(size_t idx, tdef->schema.IndexOf(col));
      proj.columns.push_back(idx);
    }
  }
  Schema proj_schema = proj.DeriveSchema(tdef->schema);
  for (const std::string& col : spec.sort_columns) {
    EON_ASSIGN_OR_RETURN(size_t idx, proj_schema.IndexOf(col));
    proj.sort_columns.push_back(idx);
  }
  for (const std::string& col : spec.segmentation_columns) {
    EON_ASSIGN_OR_RETURN(size_t idx, proj_schema.IndexOf(col));
    proj.segmentation_columns.push_back(idx);
  }

  CatalogTxn txn;
  txn.PutProjection(proj);
  txn.ExpectVersion(tdef->oid, snapshot->ModVersion(tdef->oid));
  {
    Result<uint64_t> v = cluster->CommitDistributed(coord->oid(), txn);
    if (!v.ok()) return v.status();
  }

  // Backfill: read the complete table through the engine and write the
  // new projection's containers.
  bool has_data = false;
  for (const ProjectionDef* p : snapshot->ProjectionsOf(tdef->oid)) {
    if (!snapshot->ContainersOf(p->oid).empty()) has_data = true;
  }
  if (has_data) {
    QuerySpec scan_all;
    scan_all.scan.table = table;
    for (const ColumnDef& c : tdef->schema.columns()) {
      scan_all.scan.columns.push_back(c.name);
    }
    EON_ASSIGN_OR_RETURN(ExecContext ctx,
                         BuildExecContext(cluster, "", /*seed=*/proj.oid));
    EON_ASSIGN_OR_RETURN(QueryResult all, ExecuteQuery(cluster, scan_all, ctx));
    Result<uint64_t> v =
        BackfillProjection(cluster, table, proj.oid, all.rows);
    if (!v.ok()) return v.status();
  }
  return proj.oid;
}

Result<Oid> CreateLiveAggregateProjection(
    EonCluster* cluster, const std::string& base_table,
    const std::string& name, const std::vector<std::string>& group_columns,
    const std::vector<LiveAggColumn>& aggregates) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* base = snapshot->FindTableByName(base_table);
  if (base == nullptr) return Status::NotFound("no such table: " + base_table);
  if (base->is_live_aggregate()) {
    return Status::InvalidArgument(
        "cannot build a live aggregate over a live aggregate");
  }
  EON_RETURN_IF_ERROR(CheckNotReserved(name));
  if (snapshot->FindTableByName(name) != nullptr) {
    return Status::AlreadyExists("table exists: " + name);
  }
  if (group_columns.empty() || aggregates.empty()) {
    return Status::InvalidArgument(
        "live aggregate needs group columns and aggregates");
  }

  // Resolve the definition; derive the materializing table's schema:
  // group columns (base names/types) followed by one column per aggregate.
  TableDef lap;
  lap.oid = coord->catalog()->NextOid();
  lap.name = name;
  lap.lap_base = base->oid;
  std::vector<ColumnDef> cols;
  std::set<std::string> names_taken;
  for (const std::string& g : group_columns) {
    EON_ASSIGN_OR_RETURN(size_t idx, base->schema.IndexOf(g));
    lap.lap_group_columns.push_back(idx);
    cols.push_back(base->schema.column(idx));
    names_taken.insert(g);
  }
  for (const LiveAggColumn& a : aggregates) {
    LiveAggSpec spec;
    spec.fn = a.fn;
    ColumnDef col;
    switch (a.fn) {
      case AggFn::kCount:
        col = ColumnDef{"count_rows", DataType::kInt64};
        break;
      case AggFn::kSum:
      case AggFn::kMin:
      case AggFn::kMax: {
        EON_ASSIGN_OR_RETURN(size_t idx, base->schema.IndexOf(a.column));
        spec.source_column = idx;
        col = ColumnDef{std::string(AggFnName(a.fn)) + "_" + a.column,
                        base->schema.column(idx).type};
        break;
      }
      default:
        return Status::NotSupported(
            std::string("live aggregates support COUNT/SUM/MIN/MAX, not ") +
            AggFnName(a.fn));
    }
    if (!names_taken.insert(col.name).second) {
      return Status::InvalidArgument("duplicate aggregate column: " +
                                     col.name);
    }
    lap.lap_aggs.push_back(spec);
    cols.push_back(std::move(col));
  }
  lap.schema = Schema(std::move(cols));

  // Physical design: sorted and segmented by the group columns, so every
  // group's partials co-locate on one node and merge locally.
  ProjectionDef proj;
  proj.oid = coord->catalog()->NextOid();
  proj.table_oid = lap.oid;
  proj.name = name + "_super";
  for (size_t c = 0; c < lap.schema.num_columns(); ++c) {
    proj.columns.push_back(c);
  }
  for (size_t g = 0; g < group_columns.size(); ++g) {
    proj.sort_columns.push_back(g);
    proj.segmentation_columns.push_back(g);
  }

  CatalogTxn txn;
  txn.PutTable(lap);
  txn.PutProjection(proj);
  // OCC guard: the base definition must not change while we create this.
  txn.ExpectVersion(base->oid, snapshot->ModVersion(base->oid));
  {
    Result<uint64_t> v = cluster->CommitDistributed(coord->oid(), txn);
    if (!v.ok()) return v.status();
  }

  // Backfill from existing base data (full scan of the superprojection).
  bool base_has_data = false;
  for (const ProjectionDef* p : snapshot->ProjectionsOf(base->oid)) {
    if (!snapshot->ContainersOf(p->oid).empty()) base_has_data = true;
  }
  if (base_has_data) {
    QuerySpec scan_all;
    scan_all.scan.table = base_table;
    for (const ColumnDef& c : base->schema.columns()) {
      scan_all.scan.columns.push_back(c.name);
    }
    EON_ASSIGN_OR_RETURN(ExecContext ctx,
                         BuildExecContext(cluster, "", /*seed=*/lap.oid));
    EON_ASSIGN_OR_RETURN(QueryResult all, ExecuteQuery(cluster, scan_all, ctx));
    std::vector<std::pair<std::string, std::vector<Row>>> loads;
    loads.emplace_back(name,
                       ComputeLiveAggRows(lap, base->schema, all.rows));
    Result<uint64_t> v = LoadIntoTables(cluster, loads);
    if (!v.ok()) return v.status();
  }
  return lap.oid;
}

Status AddColumn(EonCluster* cluster, const std::string& table,
                 const ColumnDef& column) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");

  // Offline preparation against a snapshot: no global catalog lock held
  // while the (potentially expensive) work happens.
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* existing = snapshot->FindTableByName(table);
  if (existing == nullptr) return Status::NotFound("no such table: " + table);
  for (const ColumnDef& c : existing->schema.columns()) {
    if (c.name == column.name) {
      return Status::AlreadyExists("column exists: " + column.name);
    }
  }

  TableDef updated = *existing;
  std::vector<ColumnDef> cols = existing->schema.columns();
  cols.push_back(column);
  updated.schema = Schema(std::move(cols));

  CatalogTxn txn;
  txn.PutTable(updated);
  // OCC write set: the table must be unchanged since our snapshot.
  txn.ExpectVersion(existing->oid, snapshot->ModVersion(existing->oid));
  Result<uint64_t> v = cluster->CommitDistributed(coord->oid(), txn);
  return v.ok() ? Status::OK() : v.status();
}

}  // namespace eon
