#include "tm/tuple_mover.h"

#include <algorithm>

#include "columnar/sort.h"
#include "engine/dml.h"
#include "obs/dc.h"

namespace eon {

TupleMover::TupleMover(EonCluster* cluster, MergeoutOptions options)
    : cluster_(cluster), options_(options) {
  obs::MetricsRegistry* reg = obs::OrDefault(options_.registry);
  metrics_.jobs_run = reg->GetCounter("eon_mergeout_jobs_total");
  metrics_.containers_merged =
      reg->GetCounter("eon_mergeout_containers_merged_total");
  metrics_.containers_created =
      reg->GetCounter("eon_mergeout_containers_created_total");
  metrics_.rows_written = reg->GetCounter("eon_mergeout_rows_written_total");
  metrics_.deleted_rows_purged =
      reg->GetCounter("eon_mergeout_deleted_rows_purged_total");
  metrics_.moveout_runs = reg->GetCounter("eon_moveout_runs_total");
  metrics_.moveout_rows = reg->GetCounter("eon_moveout_rows_total");
}

Result<uint64_t> TupleMover::RunMoveout() {
  Node* coord = cluster_->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();

  // Union of tables holding unflushed WOS rows on any up node; MoveoutWos
  // itself gathers across every node, so each table is swept once. Each
  // call waits its turn on the cluster's moveout lock.
  std::set<Oid> table_oids;
  for (const auto& n : cluster_->nodes()) {
    if (!n->is_up() || !n->wos_enabled()) continue;
    for (Oid oid : n->wos()->TablesWithUnflushed()) table_oids.insert(oid);
  }

  uint64_t moved_total = 0;
  for (Oid oid : table_oids) {
    const TableDef* table = snapshot->FindTable(oid);
    if (table == nullptr) continue;  // Dropped after the rows landed.
    EON_ASSIGN_OR_RETURN(uint64_t moved, MoveoutWos(cluster_, table->name));
    moved_total += moved;
  }
  if (moved_total > 0) {
    stats_.moveout_runs++;
    stats_.moveout_rows += moved_total;
    metrics_.moveout_runs->Increment();
    metrics_.moveout_rows->Increment(moved_total);
  }
  return moved_total;
}

uint32_t TupleMover::StratumOf(const StorageContainerMeta& c) const {
  // Exponential tiers by container size: stratum s covers
  // [base * fanin^s, base * fanin^(s+1)).
  uint64_t bound = options_.base_stratum_bytes;
  uint32_t stratum = 0;
  while (c.total_bytes >= bound && stratum < 30) {
    bound *= options_.stratum_fanin;
    stratum++;
  }
  return stratum;
}

Result<Oid> TupleMover::CoordinatorFor(ShardId shard) {
  auto it = coordinators_.find(shard);
  if (it != coordinators_.end()) {
    Node* n = cluster_->node(it->second);
    if (n != nullptr && n->is_up()) return it->second;
  }
  EON_RETURN_IF_ERROR(ReassignCoordinators());
  it = coordinators_.find(shard);
  if (it == coordinators_.end()) {
    return Status::Unavailable("no coordinator for shard " +
                               std::to_string(shard));
  }
  return it->second;
}

Status TupleMover::ReassignCoordinators(const std::string& subcluster) {
  Node* coord = cluster_->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  auto snapshot = coord->catalog()->snapshot();

  // Keep healthy assignments; re-elect the rest balancing per-node load.
  std::map<Oid, int> load;
  for (auto it = coordinators_.begin(); it != coordinators_.end();) {
    Node* n = cluster_->node(it->second);
    const Subscription* sub =
        snapshot->FindSubscription(it->second, it->first);
    if (n != nullptr && n->is_up() && sub != nullptr &&
        sub->state == SubscriptionState::kActive) {
      load[it->second]++;
      ++it;
    } else {
      it = coordinators_.erase(it);
    }
  }

  const uint32_t total = snapshot->sharding.num_shards_total();
  for (ShardId shard = 0; shard < total; ++shard) {
    if (coordinators_.count(shard)) continue;
    Oid best = kInvalidOid;
    int best_load = INT32_MAX;
    for (Oid n :
         snapshot->SubscribersOf(shard, {SubscriptionState::kActive})) {
      Node* node = cluster_->node(n);
      if (node == nullptr || !node->is_up()) continue;
      if (!subcluster.empty() && node->subcluster() != subcluster) continue;
      if (load[n] < best_load) {
        best_load = load[n];
        best = n;
      }
    }
    if (best == kInvalidOid) {
      // Subcluster restriction may make a shard unassignable; fall back.
      if (!subcluster.empty()) continue;
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " has no live ACTIVE subscriber");
    }
    coordinators_[shard] = best;
    load[best]++;
  }
  return Status::OK();
}

Status TupleMover::RunJob(Node* executor, const ProjectionDef& proj,
                          const Schema& proj_schema,
                          const std::vector<StorageContainerMeta>& inputs,
                          uint32_t out_stratum, CatalogTxn* txn,
                          std::vector<std::string>* dropped_keys) {
  Node* coord = cluster_->AnyUpNode();
  auto snapshot = coord->catalog()->snapshot();
  const int64_t job_sim_t0 = cluster_->clock()->NowMicros();

  // Read every input run, purging deleted rows (Section 2.3).
  std::vector<std::vector<Row>> runs;
  for (const StorageContainerMeta& input : inputs) {
    EON_ASSIGN_OR_RETURN(DeleteVector deletes,
                         LoadDeleteVector(*snapshot, input, executor->cache()));
    stats_.deleted_rows_purged += deletes.count();
    metrics_.deleted_rows_purged->Increment(deletes.count());
    RosScanOptions scan;
    for (size_t c = 0; c < proj_schema.num_columns(); ++c) {
      scan.output_columns.push_back(c);
    }
    scan.deletes = &deletes;
    EON_ASSIGN_OR_RETURN(
        ColumnChunk chunk,
        ScanRosContainer(proj_schema, input.base_key, executor->cache(), scan));
    runs.push_back(ChunkToRows(chunk));
  }

  // Containers are each sorted; a k-way merge yields the new sorted run
  // without a full re-sort.
  std::vector<Row> merged = MergeSortedRuns(std::move(runs),
                                            proj.sort_columns);
  stats_.rows_written += merged.size();
  metrics_.rows_written->Increment(merged.size());

  const ShardId shard = inputs.front().shard;
  const std::string base_key = executor->MintStorageKey("data/");
  RosWriteOptions wopts;
  wopts.rows_per_block = options_.rows_per_block;
  EON_ASSIGN_OR_RETURN(
      RosBuildResult built,
      RosContainerWriter::Build(proj_schema, merged, wopts));

  // Output goes into the cache and up to shared storage (Section 5.2).
  const std::set<SubscriptionState> receiving = {SubscriptionState::kActive,
                                                 SubscriptionState::kPassive};
  EON_RETURN_IF_ERROR(executor->cache()->Insert(base_key, built.data));
  {
    // Attribute the mergeout upload's request cost to the executor.
    obs::DcNodeScope dc_scope(executor->name());
    EON_RETURN_IF_ERROR(cluster_->shared_storage()->Put(base_key, built.data));
  }
  for (Oid sub : snapshot->SubscribersOf(shard, receiving)) {
    Node* peer = cluster_->node(sub);
    if (peer != nullptr && peer->is_up() && peer != executor) {
      peer->cache()->Insert(base_key, built.data);
    }
  }

  StorageContainerMeta meta;
  meta.oid = coord->catalog()->NextOid();
  meta.projection_oid = proj.oid;
  meta.shard = shard;
  meta.base_key = base_key;
  meta.row_count = built.row_count;
  meta.total_bytes = built.total_bytes;
  meta.num_columns = proj_schema.num_columns();
  meta.column_ranges = built.column_ranges;
  meta.stratum = out_stratum;
  txn->PutContainer(meta);
  stats_.containers_created++;
  metrics_.containers_created->Increment();

  // Inputs (and their delete vectors) drop at the end of the mergeout
  // transaction; the files go to the reaper.
  for (const StorageContainerMeta& input : inputs) {
    txn->DropContainer(input.oid, input.shard);
    dropped_keys->push_back(input.base_key);
    for (const DeleteVectorMeta* dv : snapshot->DeleteVectorsOf(input.oid)) {
      txn->DropDeleteVector(dv->oid, dv->shard);
      dropped_keys->push_back(dv->key);
    }
    stats_.containers_merged++;
    metrics_.containers_merged->Increment();
  }

  obs::DcMergeoutEvent event;
  event.projection = proj.name;
  event.shard = shard;
  event.inputs = inputs.size();
  event.rows_written = merged.size();
  event.stratum = out_stratum;
  event.sim_micros = cluster_->clock()->NowMicros() - job_sim_t0;
  executor->dc()->RecordMergeout(std::move(event));
  return Status::OK();
}

Result<uint64_t> TupleMover::RunOnce() {
  Node* coord = cluster_->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  EON_RETURN_IF_ERROR(ReassignCoordinators());
  auto snapshot = coord->catalog()->snapshot();

  uint64_t jobs = 0;
  CatalogTxn txn;
  std::vector<std::string> dropped_keys;
  std::map<ShardId, std::set<Oid>> observed_subscribers;
  const std::set<SubscriptionState> all_states = {
      SubscriptionState::kPending, SubscriptionState::kPassive,
      SubscriptionState::kActive, SubscriptionState::kRemoving};

  // Round-robin delegation cursor per shard.
  std::map<ShardId, size_t> delegate_cursor;

  for (const auto& [poid, proj] : snapshot->projections) {
    const TableDef* table = snapshot->FindTable(proj.table_oid);
    if (table == nullptr) continue;
    const Schema proj_schema = proj.DeriveSchema(table->schema);

    // Group containers by (shard, stratum).
    std::map<std::pair<ShardId, uint32_t>, std::vector<StorageContainerMeta>>
        tiers;
    for (const StorageContainerMeta* c : snapshot->ContainersOf(proj.oid)) {
      tiers[{c->shard, StratumOf(*c)}].push_back(*c);
    }

    for (auto& [key, containers] : tiers) {
      const auto& [shard, stratum] = key;
      if (containers.size() < options_.stratum_fanin) continue;

      EON_ASSIGN_OR_RETURN(Oid coordinator_oid, CoordinatorFor(shard));
      Node* executor = cluster_->node(coordinator_oid);
      if (options_.delegate_jobs) {
        // Farm the job out over the shard's ACTIVE subscribers.
        std::vector<Oid> subs =
            snapshot->SubscribersOf(shard, {SubscriptionState::kActive});
        std::vector<Oid> live;
        for (Oid s : subs) {
          Node* n = cluster_->node(s);
          if (n != nullptr && n->is_up()) live.push_back(s);
        }
        if (!live.empty()) {
          executor = cluster_->node(live[delegate_cursor[shard]++ %
                                         live.size()]);
        }
      }
      if (executor == nullptr || !executor->is_up()) continue;

      // Merge oldest-first in groups of up to max_merge_fanin.
      std::sort(containers.begin(), containers.end(),
                [](const StorageContainerMeta& a,
                   const StorageContainerMeta& b) { return a.oid < b.oid; });
      for (size_t start = 0;
           start < containers.size() &&
           containers.size() - start >= options_.stratum_fanin;
           start += options_.max_merge_fanin) {
        const size_t end = std::min<size_t>(
            start + options_.max_merge_fanin, containers.size());
        std::vector<StorageContainerMeta> group(
            containers.begin() + static_cast<ptrdiff_t>(start),
            containers.begin() + static_cast<ptrdiff_t>(end));
        if (group.size() < 2) break;
        EON_RETURN_IF_ERROR(RunJob(executor, proj, proj_schema, group,
                                   stratum + 1, &txn, &dropped_keys));
        for (Oid sub : snapshot->SubscribersOf(shard, all_states)) {
          observed_subscribers[shard].insert(sub);
        }
        jobs++;
      }
    }
  }

  if (jobs == 0) return 0;
  // The job commit informs the other subscribers of the result.
  EON_ASSIGN_OR_RETURN(
      uint64_t version,
      cluster_->CommitDistributed(coord->oid(), txn, &observed_subscribers));
  cluster_->TrackDroppedFiles(dropped_keys, version);
  stats_.jobs_run += jobs;
  metrics_.jobs_run->Increment(jobs);
  return jobs;
}

}  // namespace eon
