#include "engine/dml.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "common/io_pool.h"
#include "engine/executor.h"
#include "engine/trace.h"
#include "obs/dc.h"
#include "obs/trace.h"

namespace eon {

Result<PredicatePtr> RebindPredicate(const PredicatePtr& pred,
                                     const ProjectionDef& proj) {
  if (pred == nullptr) return PredicatePtr(nullptr);
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      return Predicate::True();
    case Predicate::Kind::kCmp: {
      for (size_t pos = 0; pos < proj.columns.size(); ++pos) {
        if (proj.columns[pos] == pred->col_index()) {
          return Predicate::Cmp(pos, pred->op(), pred->literal());
        }
      }
      return Status::InvalidArgument(
          "projection " + proj.name + " lacks predicate column " +
          std::to_string(pred->col_index()));
    }
    case Predicate::Kind::kAnd: {
      EON_ASSIGN_OR_RETURN(PredicatePtr l, RebindPredicate(pred->left(), proj));
      EON_ASSIGN_OR_RETURN(PredicatePtr r,
                           RebindPredicate(pred->right(), proj));
      return Predicate::And(std::move(l), std::move(r));
    }
    case Predicate::Kind::kOr: {
      EON_ASSIGN_OR_RETURN(PredicatePtr l, RebindPredicate(pred->left(), proj));
      EON_ASSIGN_OR_RETURN(PredicatePtr r,
                           RebindPredicate(pred->right(), proj));
      return Predicate::Or(std::move(l), std::move(r));
    }
    case Predicate::Kind::kNot: {
      EON_ASSIGN_OR_RETURN(PredicatePtr l, RebindPredicate(pred->left(), proj));
      return Predicate::Not(std::move(l));
    }
  }
  return Status::Internal("unknown predicate kind");
}

Result<DeleteVector> LoadDeleteVector(const CatalogState& state,
                                      const StorageContainerMeta& container,
                                      FileFetcher* fetcher) {
  DeleteVector merged;
  for (const DeleteVectorMeta* meta : state.DeleteVectorsOf(container.oid)) {
    EON_ASSIGN_OR_RETURN(std::string data, fetcher->Fetch(meta->key));
    EON_ASSIGN_OR_RETURN(DeleteVector dv, DeleteVector::Deserialize(data));
    merged.Union(dv);
  }
  return merged;
}

namespace {

/// InvalidArgument unless every row has `table`'s arity and column types.
Status CheckRowsMatch(const TableDef& table, const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (!table.schema.RowMatches(row)) {
      return Status::InvalidArgument("row does not match table schema of " +
                                     table.name);
    }
  }
  return Status::OK();
}

/// Up nodes with a live WOS, in node-oid order — the global lock order
/// for their moveout/delete gates.
std::vector<Node*> WosNodes(EonCluster* cluster) {
  std::vector<Node*> out;
  for (const auto& n : cluster->nodes()) {
    if (n->is_up() && n->wos_enabled()) out.push_back(n.get());
  }
  std::sort(out.begin(), out.end(),
            [](const Node* a, const Node* b) { return a->oid() < b->oid(); });
  return out;
}

using GateLocks = std::vector<std::unique_lock<std::mutex>>;

/// Every node's moveout/delete gate, taken in the order WosNodes gives.
GateLocks LockGates(const std::vector<Node*>& nodes) {
  GateLocks gates;
  gates.reserve(nodes.size());
  for (Node* n : nodes) gates.push_back(n->wos()->LockGate());
  return gates;
}

/// Memtable cap per (node, table): at this many unflushed rows an INSERT
/// waits for the Tuple Mover instead of growing the WOS further.
uint64_t BackpressureRows(uint64_t flush_rows) {
  return flush_rows > UINT64_MAX / 4 ? UINT64_MAX : 4 * flush_rows;
}

/// A load whose container objects are built, write-through cached,
/// uploaded and pushed to peer caches, but not yet committed.
struct StagedLoad {
  struct File {
    std::string key;
    std::string data;
    Node* writer = nullptr;
    ShardId shard = 0;
  };
  Node* coord = nullptr;
  CatalogTxn txn;
  std::map<ShardId, std::set<Oid>> observed_subscribers;
  std::vector<File> files;
};

/// Undo a load that will not commit: once its uploads ran, delete every
/// staged key (billed to its writer), then drop each key from every
/// cache. Only called after every upload lane has returned, so no PUT can
/// land after the DELETE that reclaims it.
void RollbackLoad(EonCluster* cluster, const StagedLoad& load,
                  bool uploads_ran) {
  if (uploads_ran) {
    ParallelFor(cluster->io_pool(), load.files.size(), [&](size_t i) {
      obs::DcNodeScope dc_scope(load.files[i].writer->name());
      cluster->shared_storage()->Delete(load.files[i].key);  // Best effort.
      return Status::OK();
    });
  }
  for (const StagedLoad::File& f : load.files) {
    for (const auto& n : cluster->nodes()) n->cache()->Drop(f.key);
  }
}

/// The commit point of a staged load: all data is on shared storage, so
/// node failure past this point cannot lose files. The subscription-
/// change invariant is checked inside CommitDistributed, which refuses
/// the transaction if it was violated; the caller then rolls back.
Result<uint64_t> CommitStaged(EonCluster* cluster, const StagedLoad& load) {
  return cluster->CommitDistributed(load.coord->oid(), load.txn,
                                    &load.observed_subscribers);
}

Result<StagedLoad> StageLoad(
    EonCluster* cluster,
    const std::vector<std::pair<std::string, std::vector<Row>>>& loads,
    const CopyOptions& options, Oid only_projection);

}  // namespace

std::vector<Row> ComputeLiveAggRows(const TableDef& lap,
                                    const Schema& base_schema,
                                    const std::vector<Row>& base_rows) {
  // Only the columns the LAP reads go into the chunk: base column
  // read[i] is chunk column i.
  std::vector<size_t> read;
  auto chunk_pos = [&read](size_t base_col) {
    auto it = std::find(read.begin(), read.end(), base_col);
    if (it != read.end()) return static_cast<size_t>(it - read.begin());
    read.push_back(base_col);
    return read.size() - 1;
  };
  std::vector<size_t> group_pos;
  for (size_t g : lap.lap_group_columns) group_pos.push_back(chunk_pos(g));
  std::vector<AggColumn> aggs;
  std::vector<DataType> input_types;
  for (const LiveAggSpec& spec : lap.lap_aggs) {
    if (spec.fn == AggFn::kCount) {  // Counts rows: no input.
      aggs.push_back(AggColumn{spec.fn, SIZE_MAX});
      input_types.push_back(DataType::kInt64);
      continue;
    }
    aggs.push_back(AggColumn{spec.fn, chunk_pos(spec.source_column)});
    input_types.push_back(base_schema.column(spec.source_column).type);
  }
  std::vector<ColumnChunk> input(1);
  for (size_t base_col : read) {
    ColumnBatch& col =
        input[0].columns.emplace_back(base_schema.column(base_col).type);
    col.Reserve(base_rows.size());
    for (const Row& row : base_rows) col.AppendValue(row[base_col]);
  }
  GroupStates groups;
  FoldChunksIntoGroups(input, group_pos, aggs, &groups,
                       /*kernel_calls=*/nullptr);
  return FinalizeSortedGroups(groups, aggs, input_types);
}

Result<std::map<Value, Value>> BuildDimensionLookup(
    EonCluster* cluster, const CatalogState& snapshot,
    const FlattenedColDef& def) {
  const TableDef* dim = snapshot.FindTable(def.dim_table);
  if (dim == nullptr) return Status::NotFound("flattened dimension dropped");
  QuerySpec q;
  q.scan.table = dim->name;
  q.scan.columns = {dim->schema.column(def.dim_key_column).name,
                    dim->schema.column(def.dim_value_column).name};
  EON_ASSIGN_OR_RETURN(ExecContext ctx,
                       BuildExecContext(cluster, "", def.dim_table));
  EON_ASSIGN_OR_RETURN(QueryResult result, ExecuteQuery(cluster, q, ctx));
  std::map<Value, Value> lookup;
  for (Row& row : result.rows) lookup[row[0]] = row[1];
  return lookup;
}

Result<uint64_t> CopyInto(EonCluster* cluster, const std::string& table,
                          const std::vector<Row>& rows,
                          const CopyOptions& options) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);
  if (tdef->is_live_aggregate()) {
    return Status::InvalidArgument(
        "cannot COPY directly into a live aggregate projection");
  }

  // Flattened-table denormalization (Section 2.1): callers load the base
  // columns; the derived columns are filled by joining the dimensions at
  // load time.
  std::vector<Row> expanded;
  const std::vector<Row>* effective_rows = &rows;
  if (tdef->is_flattened()) {
    const size_t base_arity =
        tdef->schema.num_columns() - tdef->flattened.size();
    std::vector<std::map<Value, Value>> lookups;
    for (const FlattenedColDef& def : tdef->flattened) {
      using DimLookupMap = std::map<Value, Value>;
      EON_ASSIGN_OR_RETURN(DimLookupMap lookup,
                           BuildDimensionLookup(cluster, *snapshot, def));
      lookups.push_back(std::move(lookup));
    }
    expanded.reserve(rows.size());
    for (const Row& row : rows) {
      if (row.size() != base_arity) {
        return Status::InvalidArgument(
            "flattened table load expects the base columns only");
      }
      Row full = row;
      for (size_t i = 0; i < tdef->flattened.size(); ++i) {
        const FlattenedColDef& def = tdef->flattened[i];
        const DataType type = tdef->schema.column(def.target_column).type;
        auto it = lookups[i].find(full[def.fact_key_column]);
        full.push_back(it == lookups[i].end() ? Value::Null(type)
                                              : it->second);
      }
      expanded.push_back(std::move(full));
    }
    effective_rows = &expanded;
  }

  // Live aggregate maintenance (Section 2.1): the same load transaction
  // appends each LAP's partial aggregates for this batch. The fold reads
  // the rows by schema, so they are checked before it runs.
  std::vector<std::pair<std::string, std::vector<Row>>> loads;
  loads.emplace_back(table, *effective_rows);
  for (const auto& [oid, t] : snapshot->tables) {
    if (t.lap_base != tdef->oid) continue;
    if (loads.size() == 1) {
      EON_RETURN_IF_ERROR(CheckRowsMatch(*tdef, *effective_rows));
    }
    loads.emplace_back(t.name,
                       ComputeLiveAggRows(t, tdef->schema, *effective_rows));
  }
  return LoadIntoTables(cluster, loads, options);
}

namespace {

/// Post a moveout of `table` to the cluster's Tuple Mover thread (joining
/// the one already queued for it). The job moves the table out only if
/// some node still holds at least the threshold of its rows unflushed,
/// under its own trace root. The future reads the job's status.
std::shared_future<Status> ScheduleMoveout(EonCluster* cluster,
                                           const std::string& table) {
  obs::Histogram* queue_wait = cluster->mover_metrics().queue_wait_micros;
  const int64_t posted = cluster->clock()->NowMicros();
  return cluster->mover()->Post(
      "moveout:" + table, [cluster, table, queue_wait, posted]() -> Status {
        queue_wait->Observe(
            static_cast<double>(cluster->clock()->NowMicros() - posted));
        // Triggers that queued behind a moveout which already took their
        // rows find nothing over the threshold and stop here.
        Node* coord = cluster->AnyUpNode();
        if (coord == nullptr) return Status::Unavailable("no up nodes");
        auto snapshot = coord->catalog()->snapshot();
        const TableDef* tdef = snapshot->FindTableByName(table);
        if (tdef == nullptr) return Status::NotFound("no such table: " + table);
        const std::vector<Node*> nodes = WosNodes(cluster);
        if (std::none_of(nodes.begin(), nodes.end(), [&](const Node* n) {
              return n->wos()->UnflushedRows(tdef->oid) >=
                     n->wos_options().flush_rows;
            })) {
          return Status::OK();
        }
        // Its own trace root: the moveout's spans and store requests
        // belong to no client statement.
        QueryTraceGuard trace(cluster, "tuple_mover", /*force=*/false);
        std::optional<obs::TraceScope> scope;
        if (trace.active()) scope.emplace(trace.context());
        Status moved = MoveoutWos(cluster, table).status();
        scope.reset();
        trace.Finish(obs::QueryProfile{});
        return moved;
      });
}

}  // namespace

Result<uint64_t> InsertInto(EonCluster* cluster, const std::string& table,
                            const std::vector<Row>& rows,
                            const InsertOptions& options,
                            obs::QueryProfile* profile) {
  if (rows.empty()) return 0;
  Node* coord = nullptr;
  if (!options.connected_node.empty()) {
    for (const auto& n : cluster->nodes()) {
      if (n->name() == options.connected_node && n->is_up()) {
        coord = n.get();
        break;
      }
    }
  }
  if (coord == nullptr) coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);
  if (tdef->is_live_aggregate()) {
    return Status::InvalidArgument(
        "cannot INSERT into a live aggregate projection");
  }

  // The fast path covers plain tables. Flattened targets (load-time
  // dimension joins) and LAP bases (aggregate maintenance must ride the
  // same commit) stay on the direct-ROS COPY path.
  bool direct = !coord->wos_enabled() || tdef->is_flattened();
  if (!direct) {
    for (const auto& [toid, t] : snapshot->tables) {
      if (t.lap_base == tdef->oid) {
        direct = true;
        break;
      }
    }
  }
  if (direct) {
    EON_ASSIGN_OR_RETURN(uint64_t version, CopyInto(cluster, table, rows));
    (void)version;
    return rows.size();
  }

  EON_RETURN_IF_ERROR(CheckRowsMatch(*tdef, rows));

  // Backpressure, before the append so a refused INSERT is never
  // durable: at the cap this node's memtable waits for the Tuple Mover.
  const uint64_t flush_rows = coord->wos_options().flush_rows;
  const uint64_t cap = BackpressureRows(flush_rows);
  if (coord->wos()->UnflushedRows(tdef->oid) >= cap) {
    cluster->mover_metrics().backpressure_waits->Increment();
    Status landed = ScheduleMoveout(cluster, table).get();
    if (!landed.ok() && coord->wos()->UnflushedRows(tdef->oid) >= cap) {
      return landed;
    }
  }

  obs::Span span = obs::StartTraceSpan("insert_wos");
  if (span.valid()) {
    span.SetNode(coord->name());
    span.SetAttribute("table", table);
    span.SetAttribute("rows", static_cast<int64_t>(rows.size()));
  }
  WalRecord rec;
  rec.kind = WalRecord::Kind::kInsert;
  rec.payload = EncodeWosInsert(tdef->oid, rows);
  const uint64_t lsn = coord->wal()->Append(std::move(rec));
  EON_ASSIGN_OR_RETURN(WalCommitInfo info, coord->wal()->Commit(lsn));
  if (span.valid()) {
    span.SetAttribute("lsn", static_cast<int64_t>(lsn));
    span.SetAttribute("commit_wait_micros", info.wait_micros);
    span.End();
  }
  if (profile != nullptr) {
    profile->wal_records_appended++;
    profile->wal_rows += rows.size();
    profile->wal_commit_wait_micros += info.wait_micros;
    if (info.led_group) {
      profile->wal_led_group = true;
      profile->wal_group_size = std::max(profile->wal_group_size,
                                         info.group_size);
    }
  }

  // Moveout threshold: once this node's unflushed rows for the table
  // reach the configured budget, hand the table to the Tuple Mover thread.
  // The rows are durable, so the statement's status is the WAL commit's
  // whatever that moveout does.
  if (coord->wos()->UnflushedRows(tdef->oid) >= flush_rows) {
    ScheduleMoveout(cluster, table);
  }
  return rows.size();
}

Result<uint64_t> MoveoutWos(EonCluster* cluster, const std::string& table) {
  // One moveout at a time, from the snapshot through the truncation.
  std::lock_guard<std::mutex> serial(cluster->moveout_mutex());
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);

  Clock* clock = cluster->clock();
  obs::Span span = obs::StartTraceSpan("moveout");
  if (span.valid()) span.SetAttribute("table", table);

  // Gated window 1: snapshot every node's unflushed rows up to its
  // watermark LSN and mark the table moving. Batches applied later carry
  // higher LSNs (the WAL applies in LSN order), so the flush markers
  // below cover exactly the snapshotted batches.
  struct NodeFlush {
    Node* node = nullptr;
    uint64_t up_to_lsn = 0;
    uint64_t rows = 0;
  };
  std::vector<NodeFlush> flushes;
  std::vector<Row> rows;
  int64_t gated_micros = 0;
  {
    const std::vector<Node*> wos_nodes = WosNodes(cluster);
    GateLocks gates = LockGates(wos_nodes);
    const int64_t t0 = clock->NowMicros();
    for (Node* n : wos_nodes) {
      Wos::Unflushed u = n->wos()->GatherUnflushed(tdef->oid);
      if (u.up_to_lsn == 0) continue;
      flushes.push_back(NodeFlush{n, u.up_to_lsn, u.rows.size()});
      for (Row& r : u.rows) rows.push_back(std::move(r));
    }
    if (!rows.empty()) cluster->set_moving_table(tdef->oid);
    gated_micros += clock->NowMicros() - t0;
  }
  if (rows.empty()) return 0;
  const uint64_t moved = rows.size();
  if (span.valid()) span.SetAttribute("rows", static_cast<int64_t>(moved));

  // Build and upload with the gates released: queries, INSERTs and DML on
  // other tables run on. DELETE/UPDATE on this table wait (moving mark).
  std::vector<std::pair<std::string, std::vector<Row>>> loads;
  loads.emplace_back(table, std::move(rows));
  Result<StagedLoad> staged = StageLoad(cluster, loads, {}, kInvalidOid);
  if (!staged.ok()) {
    cluster->set_moving_table(kInvalidOid);
    return staged.status();
  }

  // Gated window 2: commit the containers, then mark the moved batches
  // flushed, durably, before the gates drop — a query either collects the
  // WOS before the catalog commit (rows in memory, containers absent from
  // its snapshot) or after the markers applied (rows excluded by
  // flush_version, containers present), never both, never neither. Every
  // node's marker is appended first and all commit at once, so the window
  // pays one log round trip, not one per node. The only double-exposure
  // window left is a crash between the container commit and the markers
  // becoming durable (DESIGN.md §14).
  Status landed = Status::OK();
  uint64_t version = 0;
  bool committed = false;
  {
    GateLocks gates = LockGates(WosNodes(cluster));
    const int64_t t0 = clock->NowMicros();
    // A node killed since the snapshot lost its memtable, and replay
    // brings its rows back unflushed: committing containers for them
    // would expose them twice. KillNode takes the gate, so this check
    // holds until the markers are durable.
    for (const NodeFlush& f : flushes) {
      if (!f.node->is_up() || !f.node->wal()->is_open()) {
        landed = Status::Unavailable("node " + f.node->name() +
                                     " went down during moveout");
        break;
      }
    }
    if (landed.ok()) {
      Result<uint64_t> v = CommitStaged(cluster, *staged);
      committed = v.ok();
      if (committed) {
        version = *v;
      } else {
        landed = v.status();
      }
    }
    if (committed) {
      std::vector<uint64_t> marker_lsns;
      marker_lsns.reserve(flushes.size());
      for (const NodeFlush& f : flushes) {
        WosFlushPayload p;
        p.table_oid = tdef->oid;
        p.up_to_lsn = f.up_to_lsn;
        p.version = version;
        WalRecord rec;
        rec.kind = WalRecord::Kind::kFlush;
        rec.payload = EncodeWosFlush(p);
        marker_lsns.push_back(f.node->wal()->Append(std::move(rec)));
      }
      landed = ParallelFor(cluster->io_pool(), flushes.size(), [&](size_t i) {
        obs::DcNodeScope dc_scope(flushes[i].node->name());
        return flushes[i].node->wal()->Commit(marker_lsns[i]).status();
      });
    }
    cluster->set_moving_table(kInvalidOid);
    gated_micros += clock->NowMicros() - t0;
  }
  cluster->mover_metrics().gate_hold_micros->Observe(
      static_cast<double>(gated_micros));
  if (!committed) {
    RollbackLoad(cluster, *staged, /*uploads_ran=*/true);
    return landed;
  }
  EON_RETURN_IF_ERROR(landed);
  if (span.valid()) span.SetAttribute("version", static_cast<int64_t>(version));
  for (const NodeFlush& f : flushes) {
    obs::DcWalEvent e;
    e.kind = "moveout";
    e.table = table;
    e.lsn = f.up_to_lsn;
    e.records = f.rows;
    f.node->dc()->RecordWalEvent(std::move(e));
  }
  span.End();

  // Log truncation, outside the gates but under the moveout lock, so two
  // truncations of one log never overlap. The WAL is shared by every table
  // on a node, so each node's safe watermark is just below its oldest
  // still-unflushed batch (any table); with nothing unflushed the whole
  // synced log can go. Each Truncate fans its deletes out on the I/O pool
  // and bills them to its node.
  for (const NodeFlush& f : flushes) {
    const uint64_t min_unflushed = f.node->wos()->MinUnflushedLsn();
    const uint64_t safe = min_unflushed == 0 ? f.node->wal()->synced_lsn()
                                             : min_unflushed - 1;
    if (safe == 0) continue;
    obs::DcNodeScope dc_scope(f.node->name());
    Status truncated = f.node->wal()->Truncate(safe);
    if (!truncated.ok()) continue;  // Retried by the next moveout.
    obs::DcWalEvent e;
    e.kind = "checkpoint";
    e.lsn = safe;
    f.node->dc()->RecordWalEvent(std::move(e));
  }

  // Drop retained flushed batches no running query can still read
  // (Section 6.5 gossip: the minimum running-query version across nodes).
  uint64_t min_running = UINT64_MAX;
  for (const auto& n : cluster->nodes()) {
    if (n->is_up()) {
      min_running = std::min(min_running, n->MinRunningQueryVersion());
    }
  }
  if (min_running != UINT64_MAX) {
    for (Node* n : WosNodes(cluster)) n->wos()->ReleaseFlushed(min_running);
  }
  return moved;
}

namespace {

/// Build, cache and upload every container object of `loads` (for
/// `only_projection` alone when set: new-projection backfill) and collect
/// the catalog transaction that commits them. On failure nothing is left
/// behind: every staged key is deleted and dropped from every cache.
Result<StagedLoad> StageLoad(
    EonCluster* cluster,
    const std::vector<std::pair<std::string, std::vector<Row>>>& loads,
    const CopyOptions& options, Oid only_projection) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  for (const auto& [table, rows] : loads) {
    const TableDef* tdef = snapshot->FindTableByName(table);
    if (tdef == nullptr) return Status::NotFound("no such table: " + table);
    EON_RETURN_IF_ERROR(CheckRowsMatch(*tdef, rows));
  }

  ParticipationOptions popts;
  popts.variation_seed = options.variation_seed;
  EON_ASSIGN_OR_RETURN(
      ParticipationResult participation,
      SelectParticipatingNodes(*snapshot, cluster->up_node_oids(), popts));

  const std::set<SubscriptionState> receiving = {
      SubscriptionState::kPending, SubscriptionState::kPassive,
      SubscriptionState::kActive, SubscriptionState::kRemoving};

  // Every container object of the load, built and write-through cached on
  // its writer, waiting for the one upload fan-out below.
  StagedLoad load;
  load.coord = coord;
  auto fail = [&](Status s, bool uploads_ran) {
    RollbackLoad(cluster, load, uploads_ran);
    return s;
  };

  for (const auto& [load_table, rows] : loads) {
  const TableDef* tdef = snapshot->FindTableByName(load_table);
  for (const auto& [poid, proj] : snapshot->projections) {
    if (proj.table_oid != tdef->oid) continue;
    if (only_projection != kInvalidOid && proj.oid != only_projection) {
      continue;
    }

    const Schema proj_schema = proj.DeriveSchema(tdef->schema);
    for (ContainerRows& group :
         PlaceRows(snapshot->sharding, *tdef, proj, rows)) {
      // Writer: the participating node for segment shards; replicated
      // projections use a single participating node as the writer.
      Oid writer_oid;
      if (group.shard == snapshot->sharding.replica_shard()) {
        writer_oid = *participation.Nodes().begin();
      } else {
        writer_oid = participation.shard_to_node.at(group.shard);
      }
      Node* writer = cluster->node(writer_oid);
      if (writer == nullptr || !writer->is_up()) {
        return fail(Status::Unavailable("writer node is down"), false);
      }
      for (Oid sub : snapshot->SubscribersOf(group.shard, receiving)) {
        load.observed_subscribers[group.shard].insert(sub);
      }

      const std::string base_key = writer->MintStorageKey("data/");
      RosWriteOptions wopts;
      wopts.rows_per_block = options.rows_per_block;
      Result<RosBuildResult> built =
          RosContainerWriter::Build(proj_schema, group.rows, wopts);
      if (!built.ok()) return fail(built.status(), false);

      load.files.push_back(StagedLoad::File{base_key, std::move(built->data),
                                            writer, group.shard});
      if (options.write_through_cache) {
        const StagedLoad::File& f = load.files.back();
        Status s = writer->cache()->Insert(f.key, f.data);
        if (!s.ok()) return fail(s, false);
      }

      StorageContainerMeta meta;
      meta.oid = coord->catalog()->NextOid();
      meta.projection_oid = proj.oid;
      meta.shard = group.shard;
      meta.base_key = base_key;
      meta.row_count = built->row_count;
      meta.total_bytes = built->total_bytes;
      meta.num_columns = proj_schema.num_columns();
      meta.column_ranges = built->column_ranges;
      meta.stratum = 0;
      meta.create_version = snapshot->version + 1;  // Best-effort tag.
      load.txn.PutContainer(meta);
    }
  }
  }

  // Upload every staged container at once: the load costs a few store
  // round trips, not one per container. Each PUT is billed to its writing
  // node.
  Status uploaded =
      ParallelFor(cluster->io_pool(), load.files.size(), [&](size_t i) {
        obs::DcNodeScope dc_scope(load.files[i].writer->name());
        return cluster->shared_storage()->Put(load.files[i].key,
                                              load.files[i].data);
      });
  if (!uploaded.ok()) return fail(uploaded, true);
  // Durable: push the objects to the caches of the shard's peer
  // subscribers.
  if (options.write_through_cache) {
    for (const StagedLoad::File& f : load.files) {
      for (Oid sub : load.observed_subscribers[f.shard]) {
        Node* peer = cluster->node(sub);
        if (peer == nullptr || peer == f.writer || !peer->is_up()) continue;
        peer->cache()->Insert(f.key, f.data);
      }
    }
  }
  return load;
}

/// Stage and commit in one go (COPY, backfill).
Result<uint64_t> LoadIntoTablesFiltered(
    EonCluster* cluster,
    const std::vector<std::pair<std::string, std::vector<Row>>>& loads,
    const CopyOptions& options, Oid only_projection) {
  EON_ASSIGN_OR_RETURN(StagedLoad load,
                       StageLoad(cluster, loads, options, only_projection));
  Result<uint64_t> version = CommitStaged(cluster, load);
  if (!version.ok()) RollbackLoad(cluster, load, /*uploads_ran=*/true);
  return version;
}

}  // namespace

Result<uint64_t> LoadIntoTables(
    EonCluster* cluster,
    const std::vector<std::pair<std::string, std::vector<Row>>>& loads,
    const CopyOptions& options) {
  return LoadIntoTablesFiltered(cluster, loads, options, kInvalidOid);
}

Result<uint64_t> BackfillProjection(EonCluster* cluster,
                                    const std::string& table,
                                    Oid projection_oid,
                                    const std::vector<Row>& rows,
                                    const CopyOptions& options) {
  std::vector<std::pair<std::string, std::vector<Row>>> loads;
  loads.emplace_back(table, rows);
  return LoadIntoTablesFiltered(cluster, loads, options, projection_oid);
}

namespace {

/// Shared core of DELETE and UPDATE. When `matched_out` is non-null
/// (UPDATE), the full pre-image rows of every tombstoned/position-deleted
/// superprojection row are collected INSIDE the same gated window that
/// picks the delete targets — collecting them in a separate earlier pass
/// would let a row inserted between the two passes be deleted here yet
/// be missing from the reinsert set, losing it entirely.
Result<uint64_t> DeleteWhereImpl(EonCluster* cluster, const std::string& table,
                                 const PredicatePtr& table_predicate,
                                 std::vector<Row>* matched_out) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  // WOS gates before the snapshot: with the gates held, no moveout can
  // commit between the container sweep below (which would miss its new
  // containers) and the WOS sweep (which would find its rows already
  // flushed) — every matching row is in exactly one of the two stores
  // this statement reads.
  std::vector<Node*> wos_nodes = WosNodes(cluster);
  GateLocks gates = LockGates(wos_nodes);
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);
  // A moveout between its two gated windows has copied this table's
  // unflushed rows into containers it has not committed yet: a tombstone
  // now would miss them. Wait it out — drop the gates, take the moveout
  // lock (free once that moveout is done, and no other can start while
  // this statement holds it), then gate again. One path, no retry.
  std::unique_lock<std::mutex> no_moveout;
  if (cluster->moving_table() == tdef->oid) {
    gates.clear();
    no_moveout = std::unique_lock<std::mutex>(cluster->moveout_mutex());
    wos_nodes = WosNodes(cluster);
    gates = LockGates(wos_nodes);
    snapshot = coord->catalog()->snapshot();
    tdef = snapshot->FindTableByName(table);
    if (tdef == nullptr) return Status::NotFound("no such table: " + table);
  }
  // Live aggregates trade pre-computation for update restrictions
  // (Section 2.1): a base with LAPs cannot be deleted from, and LAPs are
  // never targeted directly.
  if (tdef->is_live_aggregate()) {
    return Status::InvalidArgument(
        "cannot DELETE from a live aggregate projection");
  }
  for (const auto& [toid, t] : snapshot->tables) {
    if (t.lap_base == tdef->oid) {
      return Status::NotSupported(
          "table " + table + " has live aggregate projection " + t.name +
          "; DELETE/UPDATE are restricted (drop the projection first)");
    }
  }

  // UPDATE reads complete matching tuples from the superprojection.
  const ProjectionDef* super = nullptr;
  if (matched_out != nullptr) {
    for (const auto& [poid, proj] : snapshot->projections) {
      if (proj.table_oid == tdef->oid &&
          proj.columns.size() == tdef->schema.num_columns()) {
        super = &proj;
        break;
      }
    }
    if (super == nullptr) {
      return Status::InvalidArgument("table lacks a superprojection");
    }
  }

  ParticipationOptions popts;
  EON_ASSIGN_OR_RETURN(
      ParticipationResult participation,
      SelectParticipatingNodes(*snapshot, cluster->up_node_oids(), popts));

  CatalogTxn txn;
  std::map<ShardId, std::set<Oid>> observed_subscribers;
  const std::set<SubscriptionState> receiving = {
      SubscriptionState::kPending, SubscriptionState::kPassive,
      SubscriptionState::kActive, SubscriptionState::kRemoving};
  std::vector<std::string> superseded_dv_keys;
  uint64_t deleted_rows = 0;
  bool first_projection = true;

  for (const auto& [poid, proj] : snapshot->projections) {
    if (proj.table_oid != tdef->oid) continue;
    EON_ASSIGN_OR_RETURN(PredicatePtr pred,
                         RebindPredicate(table_predicate, proj));
    const Schema proj_schema = proj.DeriveSchema(tdef->schema);

    for (const StorageContainerMeta* container :
         snapshot->ContainersOf(proj.oid)) {
      // Executor for this shard: the participating node (replica shard:
      // any participant). It computes positions and the new delete vector.
      Oid exec_oid = container->shard == snapshot->sharding.replica_shard()
                         ? *participation.Nodes().begin()
                         : participation.shard_to_node.at(container->shard);
      Node* executor = cluster->node(exec_oid);
      if (executor == nullptr || !executor->is_up()) {
        return Status::Unavailable("executor node is down");
      }

      EON_ASSIGN_OR_RETURN(
          DeleteVector existing,
          LoadDeleteVector(*snapshot, *container, executor->cache()));
      EON_ASSIGN_OR_RETURN(
          std::vector<uint64_t> positions,
          FindMatchingPositions(proj_schema, container->base_key,
                                executor->cache(), pred, &existing));
      if (positions.empty()) continue;
      if (first_projection) deleted_rows += positions.size();

      if (super != nullptr && proj.oid == super->oid) {
        // Pre-images of exactly the rows this statement deletes, read
        // under the same gates and against the same delete vector.
        RosScanOptions mscan;
        for (size_t c = 0; c < proj_schema.num_columns(); ++c) {
          mscan.output_columns.push_back(c);
        }
        mscan.predicate = pred;
        mscan.deletes = &existing;
        EON_ASSIGN_OR_RETURN(
            ColumnChunk matched,
            ScanRosContainer(proj_schema, container->base_key,
                             executor->cache(), mscan));
        AppendChunkRows(matched, matched_out);
      }

      DeleteVector merged(positions);
      merged.Union(existing);

      const std::string dv_key = executor->MintStorageKey("dv/");
      const std::string dv_data = merged.Serialize();
      EON_RETURN_IF_ERROR(executor->cache()->Insert(dv_key, dv_data));
      {
        obs::DcNodeScope dc_scope(executor->name());
        EON_RETURN_IF_ERROR(cluster->shared_storage()->Put(dv_key, dv_data));
      }

      DeleteVectorMeta meta;
      meta.oid = coord->catalog()->NextOid();
      meta.container_oid = container->oid;
      meta.shard = container->shard;
      meta.key = dv_key;
      meta.deleted_count = merged.count();
      txn.PutDeleteVector(meta);

      // The merged vector supersedes all previous ones for the container.
      for (const DeleteVectorMeta* old :
           snapshot->DeleteVectorsOf(container->oid)) {
        txn.DropDeleteVector(old->oid, old->shard);
        superseded_dv_keys.push_back(old->key);
      }
      for (Oid sub : snapshot->SubscribersOf(container->shard, receiving)) {
        observed_subscribers[container->shard].insert(sub);
      }
    }
    first_projection = false;
  }

  // WOS sweep: the DELETE predicate is bound to table column positions
  // and memtable rows are full-width table rows, so it evaluates directly.
  std::vector<std::pair<Node*, std::vector<WosRowRef>>> wos_hits;
  uint64_t wos_deleted = 0;
  for (Node* n : wos_nodes) {
    std::vector<WosRowRef> refs = n->wos()->FindRows(
        tdef->oid,
        [&](const Row& row) {
          return table_predicate == nullptr || table_predicate->Eval(row);
        },
        matched_out);
    if (refs.empty()) continue;
    wos_deleted += refs.size();
    wos_hits.emplace_back(n, std::move(refs));
  }

  if (txn.empty() && wos_hits.empty()) return 0;
  // A WOS-only DELETE still commits (an empty transaction mints a
  // version): the tombstones need a snapshot boundary to be MVCC-visible.
  EON_ASSIGN_OR_RETURN(
      uint64_t version,
      cluster->CommitDistributed(coord->oid(), txn, &observed_subscribers));
  for (auto& [n, refs] : wos_hits) {
    WosTombstonePayload p;
    p.table_oid = tdef->oid;
    p.version = version;
    p.refs = std::move(refs);
    WalRecord rec;
    rec.kind = WalRecord::Kind::kTombstone;
    rec.payload = EncodeWosTombstone(p);
    const uint64_t lsn = n->wal()->Append(std::move(rec));
    EON_ASSIGN_OR_RETURN(WalCommitInfo committed, n->wal()->Commit(lsn));
    (void)committed;
  }
  cluster->TrackDroppedFiles(superseded_dv_keys, version);
  return deleted_rows + wos_deleted;
}

}  // namespace

Result<uint64_t> DeleteWhere(EonCluster* cluster, const std::string& table,
                             const PredicatePtr& table_predicate) {
  return DeleteWhereImpl(cluster, table, table_predicate, nullptr);
}

Result<uint64_t> UpdateWhere(EonCluster* cluster, const std::string& table,
                             const PredicatePtr& table_predicate,
                             const std::function<void(Row*)>& updater) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();
  const TableDef* tdef = snapshot->FindTableByName(table);
  if (tdef == nullptr) return Status::NotFound("no such table: " + table);

  // Match collection and deletion happen in ONE gated window inside
  // DeleteWhereImpl: a row inserted concurrently is either in `matched`
  // AND tombstoned (so the reinsert below carries it, updated) or
  // neither (it survives untouched) — never tombstoned without being
  // reinserted. The superprojection's column order equals the table's,
  // so the collected pre-images reinsert unprojected.
  std::vector<Row> matched;
  EON_ASSIGN_OR_RETURN(
      uint64_t deleted,
      DeleteWhereImpl(cluster, table, table_predicate, &matched));
  (void)deleted;
  if (matched.empty()) return 0;

  for (Row& row : matched) updater(&row);
  // Flattened tables reload base columns; derived values are re-looked-up.
  if (tdef->is_flattened()) {
    const size_t base_arity =
        tdef->schema.num_columns() - tdef->flattened.size();
    for (Row& row : matched) row.resize(base_arity);
  }
  EON_ASSIGN_OR_RETURN(uint64_t version, CopyInto(cluster, table, matched));
  (void)version;
  return matched.size();
}

}  // namespace eon
