#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <set>

#include "cache/file_cache.h"
#include "columnar/agg.h"
#include "columnar/batch.h"
#include "columnar/kernels.h"
#include "columnar/key_table.h"
#include "columnar/ndp.h"
#include "columnar/ros.h"
#include "common/codec.h"
#include "common/thread_pool.h"
#include "engine/dml.h"
#include "engine/system_tables.h"
#include "engine/trace.h"
#include "obs/dc.h"
#include "obs/trace.h"

namespace eon {

namespace {

/// Morsel-parallel execution harness for one query. Wraps the cluster's
/// exec pool with per-lane CPU accounting (thread CPU clock, so numbers
/// stay meaningful on oversubscribed cores) that feeds the profile's
/// exec.parallelism stat. With pool width 1 every task runs inline on the
/// calling thread — the serial fallback is the same code path.
class ExecParallel {
 public:
  explicit ExecParallel(ThreadPool* pool)
      : pool_(pool), busy_(pool->width(), 0) {}

  /// Run fn(0..n-1) across the pool and wait for all of them (barrier).
  /// Tasks must only write state owned by their own index; the caller
  /// merges results in index order afterwards so output is deterministic
  /// regardless of pool width or scheduling.
  void Run(size_t n, const std::function<void(size_t)>& fn) {
    tasks_ += n;
    pool_->ParallelFor(n, [&](size_t i) {
      const int64_t start = ThreadCpuMicros();
      fn(i);
      // Each pool lane is one thread, so this element is only ever
      // touched by the current thread.
      busy_[pool_->CurrentSlot()] += ThreadCpuMicros() - start;
    });
  }

  int width() const { return pool_->width(); }

  void Flush(obs::QueryProfile* profile) const {
    profile->exec_threads = static_cast<uint64_t>(pool_->width());
    profile->exec_tasks = tasks_;
    int64_t total = 0;
    int64_t critical = 0;
    for (int64_t b : busy_) {
      total += b;
      critical = std::max(critical, b);
    }
    profile->exec_task_cpu_micros = total;
    profile->exec_critical_cpu_micros = critical;
  }

 private:
  ThreadPool* pool_;
  std::vector<int64_t> busy_;  ///< Task CPU per pool lane.
  uint64_t tasks_ = 0;
};

/// What one operator hands the next: chunks partitioned by the node
/// holding them, under one named schema (a scan's output, then the
/// join's). Each node's chunks stay in morsel order, and none is empty;
/// a node with an entry but no chunks took part with no rows.
struct NodeChunks {
  Schema schema;  ///< Output columns (named).
  std::map<Oid, std::vector<ColumnChunk>> chunks_by_node;
  /// Name of the output column equal to the projection's (single)
  /// segmentation column, when the rows are still placed by its hash —
  /// the locality token joins and group-bys test.
  std::string segmented_by;
  /// Store-side partial aggregates from pushed-aggregate morsels, merged
  /// per executing node in morsel order as they arrive (empty when the
  /// fold stayed local). AggregateByNode merges each into its node's
  /// groups.
  std::map<Oid, GroupStates> partials_by_node;
};

Result<const ProjectionDef*> ChooseProjection(
    const CatalogState& state, const TableDef& table,
    const std::set<size_t>& needed_table_cols,
    std::optional<size_t> prefer_seg_table_col) {
  const ProjectionDef* best = nullptr;
  int best_score = -1;
  for (const ProjectionDef* proj : state.ProjectionsOf(table.oid)) {
    std::set<size_t> have(proj->columns.begin(), proj->columns.end());
    bool covers = true;
    for (size_t c : needed_table_cols) {
      if (!have.count(c)) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    // Prefer a projection segmented exactly on the join/group column, then
    // narrower projections (less I/O).
    int score = 0;
    if (prefer_seg_table_col && proj->segmentation_columns.size() == 1 &&
        proj->columns[proj->segmentation_columns[0]] ==
            *prefer_seg_table_col) {
      score += 1000;
    }
    score += static_cast<int>(table.schema.num_columns() -
                              proj->columns.size());
    if (score > best_score) {
      best_score = score;
      best = proj;
    }
  }
  if (best == nullptr) {
    return Status::InvalidArgument(
        "no projection of " + table.name + " covers the required columns");
  }
  return best;
}

/// Phase timing scope: one span under the current trace (inert when the
/// query is untraced) plus the (sim, wall) accumulation into the
/// profile. While open it re-parents the thread's trace context under
/// its own span, so work inside the phase — morsel tasks captured onto
/// the exec pool, fetches hopping to the I/O pool — nests under the
/// phase span. End() is idempotent; destruction accounts early error
/// returns. PhaseScopes are strictly LIFO on the coordinator thread.
class PhaseScope {
 public:
  PhaseScope(Clock* clock, obs::QueryProfile* profile, obs::QueryPhase phase)
      : clock_(clock),
        profile_(profile),
        phase_(phase),
        span_(obs::StartTraceSpan(obs::QueryPhaseName(phase))),
        sim_start_(clock->NowMicros()),
        wall_start_(std::chrono::steady_clock::now()) {
    if (span_.valid()) {
      scope_.emplace(obs::CurrentTraceWithParent(span_.id()));
    }
  }
  ~PhaseScope() { End(); }

  void End() {
    if (ended_) return;
    ended_ = true;
    scope_.reset();
    span_.End();
    obs::PhaseTiming& t = profile_->Phase(phase_);
    t.sim_micros += clock_->NowMicros() - sim_start_;
    t.wall_micros += std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - wall_start_)
                         .count();
  }

 private:
  Clock* clock_;
  obs::QueryProfile* profile_;
  obs::QueryPhase phase_;
  obs::Span span_;
  std::optional<obs::TraceScope> scope_;
  int64_t sim_start_;
  std::chrono::steady_clock::time_point wall_start_;
  bool ended_ = false;
};

/// One chunk holding `chunks`' rows in order; a single chunk is moved,
/// not copied. Empty input gives a chunk with no columns.
ColumnChunk ConcatChunks(std::vector<ColumnChunk>* chunks) {
  if (chunks->size() == 1) return std::move(chunks->front());
  ColumnChunk out;
  if (chunks->empty()) return out;
  for (size_t k = 0; k < chunks->front().columns.size(); ++k) {
    out.columns.push_back(ConcatColumn(*chunks, k));
  }
  return out;
}

/// Scan one table across the participating nodes. Each (node, container,
/// rank) triple is an independent morsel executed on `par`, producing one
/// chunk; chunks are merged in morsel-construction order, so the output is
/// identical to the old serial nested loop at any pool width.
Result<NodeChunks> ScanDistributed(EonCluster* cluster,
                                   const ExecContext& context,
                                   const CatalogState& snapshot,
                                   const ScanSpec& spec,
                                   const std::vector<std::string>& extra_cols,
                                   const QuerySpec* agg_push,
                                   obs::QueryProfile* profile,
                                   ExecParallel* par) {
  const TableDef* table = snapshot.FindTableByName(spec.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + spec.table);
  }

  // Output column names: requested + extras (deduplicated, order kept).
  std::vector<std::string> out_names;
  std::set<std::string> seen;
  for (const std::string& c : spec.columns) {
    if (seen.insert(c).second) out_names.push_back(c);
  }
  for (const std::string& c : extra_cols) {
    if (seen.insert(c).second) out_names.push_back(c);
  }

  std::set<size_t> needed_table_cols;
  std::vector<size_t> out_table_cols;
  for (const std::string& name : out_names) {
    EON_ASSIGN_OR_RETURN(size_t idx, table->schema.IndexOf(name));
    out_table_cols.push_back(idx);
    needed_table_cols.insert(idx);
  }
  if (spec.predicate) {
    std::set<size_t> pred_cols;
    spec.predicate->CollectColumns(&pred_cols);
    needed_table_cols.insert(pred_cols.begin(), pred_cols.end());
  }

  // Prefer a projection segmented on the first extra column (the join or
  // group key) so downstream operators stay local.
  std::optional<size_t> prefer_seg;
  if (!extra_cols.empty()) {
    Result<size_t> idx = table->schema.IndexOf(extra_cols[0]);
    if (idx.ok()) prefer_seg = *idx;
  }
  EON_ASSIGN_OR_RETURN(
      const ProjectionDef* proj,
      ChooseProjection(snapshot, *table, needed_table_cols, prefer_seg));
  const Schema proj_schema = proj->DeriveSchema(table->schema);
  EON_ASSIGN_OR_RETURN(PredicatePtr pred,
                       RebindPredicate(spec.predicate, *proj));
  // Predicate-vs-output column split (projection positions), computed once
  // per scan instead of once per morsel: the late-materialization scan
  // fetches and evaluates these columns in phase 1.
  std::vector<size_t> pred_proj_cols;
  if (pred) {
    std::set<size_t> cols;
    pred->CollectColumns(&cols);
    pred_proj_cols.assign(cols.begin(), cols.end());
  }

  // Map output table columns to projection positions.
  std::vector<size_t> out_proj_cols;
  for (size_t table_col : out_table_cols) {
    bool found = false;
    for (size_t pos = 0; pos < proj->columns.size(); ++pos) {
      if (proj->columns[pos] == table_col) {
        out_proj_cols.push_back(pos);
        found = true;
        break;
      }
    }
    EON_CHECK(found);
  }

  // Hash-filter crunch needs the segmentation column values per row: make
  // sure they ride along, then strip them after filtering.
  const bool sharing =
      context.crunch != CrunchMode::kNone && !context.crunch_nodes.empty();
  std::vector<size_t> scan_cols = out_proj_cols;
  std::vector<size_t> seg_positions_in_scan;
  if (sharing && context.crunch == CrunchMode::kHashFilter &&
      !proj->replicated()) {
    for (size_t seg_col : proj->segmentation_columns) {
      auto it = std::find(scan_cols.begin(), scan_cols.end(), seg_col);
      if (it == scan_cols.end()) {
        seg_positions_in_scan.push_back(scan_cols.size());
        scan_cols.push_back(seg_col);
      } else {
        seg_positions_in_scan.push_back(
            static_cast<size_t>(it - scan_cols.begin()));
      }
    }
  }

  NodeChunks output;
  {
    std::vector<ColumnDef> cols;
    for (size_t pos : out_proj_cols) cols.push_back(proj_schema.column(pos));
    // Column names in the output are the table names requested.
    for (size_t i = 0; i < cols.size(); ++i) cols[i].name = out_names[i];
    output.schema = Schema(std::move(cols));
  }
  if (proj->segmentation_columns.size() == 1 && !proj->replicated() &&
      context.crunch != CrunchMode::kContainerSplit) {
    const size_t seg_table_col = proj->columns[proj->segmentation_columns[0]];
    for (size_t i = 0; i < out_table_cols.size(); ++i) {
      if (out_table_cols[i] == seg_table_col) {
        output.segmented_by = out_names[i];
        break;
      }
    }
  }

  // Aggregate-push resolution: when the caller's aggregation phase is
  // eligible (no join, no crunch — the caller only passes `agg_push`
  // then), map its grouping keys and aggregate inputs onto positions in
  // the output row and keep them only if EVERY aggregate is exactly
  // mergeable store-side (IsPushableAggregate). Any miss disables
  // aggregate pushdown for the whole scan; row pushdown is unaffected.
  std::vector<size_t> push_group_pos;
  std::vector<AggColumn> push_agg_specs;
  bool agg_push_ok = agg_push != nullptr && !agg_push->aggregates.empty() &&
                     cluster->pushdown_mode() > 0;
  if (agg_push_ok) {
    for (const std::string& g : agg_push->group_by) {
      auto it = std::find(out_names.begin(), out_names.end(), g);
      if (it == out_names.end()) {
        agg_push_ok = false;
        break;
      }
      push_group_pos.push_back(static_cast<size_t>(it - out_names.begin()));
    }
    for (const AggSpec& a : agg_push->aggregates) {
      if (!agg_push_ok) break;
      AggColumn s;
      s.fn = a.fn;
      if (!a.column.empty()) {  // Empty is COUNT(*): no input to map.
        auto it = std::find(out_names.begin(), out_names.end(), a.column);
        if (it == out_names.end()) {
          agg_push_ok = false;
          break;
        }
        s.column = static_cast<size_t>(it - out_names.begin());
        if (!IsPushableAggregate(a.fn, output.schema.column(s.column).type)) {
          agg_push_ok = false;
          break;
        }
      }
      push_agg_specs.push_back(s);
    }
  }

  // Shard worklist: segment shards for segmented projections; the replica
  // shard (served by one participating node) for replicated ones.
  struct ShardWork {
    ShardId shard;
    std::vector<Oid> nodes;
  };
  std::vector<ShardWork> work;
  if (proj->replicated()) {
    work.push_back(ShardWork{snapshot.sharding.replica_shard(),
                             {*context.participation.Nodes().begin()}});
  } else {
    for (const auto& [shard, node] : context.participation.shard_to_node) {
      auto it = context.crunch_nodes.find(shard);
      if (sharing && it != context.crunch_nodes.end() &&
          it->second.size() > 1) {
        work.push_back(ShardWork{shard, it->second});
      } else {
        work.push_back(ShardWork{shard, {node}});
      }
    }
  }

  // Read point: the serving nodes' catalog snapshots (ROS container
  // lists, "the node subscribed to the shard tracks its storage
  // metadata", Section 4) and the WOS memtable rows, captured TOGETHER
  // under every WOS node's moveout/delete gate. Moveout commits its new
  // containers and marks the moved batches flushed while holding all the
  // gates, so a gated capture sees either fully-before (rows in the WOS,
  // containers absent) or fully-after (rows flush-excluded, containers
  // present) — capturing the two sides without the gates is the race
  // that double-counts rows a concurrent moveout is landing in ROS. The
  // WOS visibility version is the newest serving snapshot version, which
  // under the gates agrees with the container lists on every gate-held
  // commit. After the gates drop, memtable rows are placed per shard by
  // the load path's own placement (PlaceRows), the row stream a moveout
  // of them would persist, so the unioned scan is bit-identical to a
  // flush-then-query oracle. Each shard's rows become one full
  // projection-width chunk; the morsel task gathers the scan columns of
  // the predicate's survivors from it.
  std::map<Oid, std::shared_ptr<const CatalogState>> serving_snapshots;
  std::vector<Row> wos_rows;
  {
    std::vector<Node*> wos_nodes;
    for (const auto& n : cluster->nodes()) {
      if (n->is_up() && n->wos_enabled()) wos_nodes.push_back(n.get());
    }
    std::sort(wos_nodes.begin(), wos_nodes.end(),
              [](const Node* a, const Node* b) { return a->oid() < b->oid(); });
    // Gates in node-oid order — the same global lock order moveout and
    // DELETE use (dml.cc WosNodes).
    std::vector<std::unique_lock<std::mutex>> gates;
    gates.reserve(wos_nodes.size());
    for (Node* n : wos_nodes) gates.push_back(n->wos()->LockGate());

    uint64_t read_version = snapshot.version;
    for (const ShardWork& sw : work) {
      Node* serving = cluster->node(sw.nodes[0]);
      if (serving == nullptr || !serving->is_up()) {
        return Status::Unavailable("participating node is down");
      }
      auto [it, inserted] =
          serving_snapshots.emplace(serving->oid(), nullptr);
      if (inserted) it->second = serving->catalog()->snapshot();
      read_version = std::max(read_version, it->second->version);
    }

    for (Node* n : wos_nodes) {
      std::vector<Row> visible =
          n->wos()->CollectVisibleLocked(table->oid, read_version);
      for (Row& r : visible) wos_rows.push_back(std::move(r));
    }
  }
  // Each shard's placed groups append, in placement order, to its chunk.
  std::map<ShardId, std::shared_ptr<ColumnChunk>> wos_by_shard;
  for (const ContainerRows& group :
       PlaceRows(snapshot.sharding, *table, *proj, wos_rows)) {
    std::shared_ptr<ColumnChunk>& chunk = wos_by_shard[group.shard];
    if (chunk == nullptr) {
      chunk = std::make_shared<ColumnChunk>();
      for (const ColumnDef& c : proj_schema.columns()) {
        chunk->columns.emplace_back(c.type);
      }
    }
    for (size_t c = 0; c < chunk->columns.size(); ++c) {
      ColumnBatch& col = chunk->columns[c];
      col.Reserve(col.size() + group.rows.size());
      for (const Row& row : group.rows) col.AppendValue(row[c]);
    }
  }

  // Morsel construction is serial: walk shards/containers in plan order,
  // apply pruning, and emit one morsel per (container, sharing rank). The
  // fixed decomposition is independent of pool width — only the morsel
  // EXECUTION below is parallel — which is what makes results reproducible
  // across thread counts.
  struct Morsel {
    Oid node = 0;              ///< Executing node (cache owner + chunk sink).
    Node* executor = nullptr;  ///< Resolved node pointer.
    /// Keeps the serving node's catalog snapshot (and thus `container`)
    /// alive for the duration of the parallel section.
    std::shared_ptr<const CatalogState> snapshot;
    /// Null for a WOS morsel (whose rows live in `wos_chunk` instead).
    const StorageContainerMeta* container = nullptr;
    size_t k = 1;     ///< Sharing-group size (crunch fan-out).
    size_t rank = 0;  ///< This morsel's rank within the sharing group.
    bool push = false;       ///< Planner chose the near-data scan path.
    bool push_aggs = false;  ///< The store folds partial aggregates too.
    uint64_t cold_bytes = 0;  ///< Planner's cold-fetch estimate (profile).
    /// WOS morsel source: this shard's memtable rows as one chunk (full
    /// projection width, placement order). Shared so ranks of a sharing
    /// group read one copy.
    std::shared_ptr<const ColumnChunk> wos_chunk;
  };

  // Per-morsel pushdown inputs that do not depend on the container: the
  // estimated wire size of one output row (fixed-width values ship as ~9
  // bytes of tag + payload, strings as ~24), and the predicate
  // selectivity prior.
  const int pushdown_mode = cluster->pushdown_mode();
  uint64_t est_row_bytes = 0;
  for (size_t pos : out_proj_cols) {
    est_row_bytes +=
        proj_schema.column(pos).type == DataType::kString ? 24 : 9;
  }
  const double selectivity = pred ? pred->EstimatedSelectivity() : 1.0;
  std::vector<Morsel> morsels;
  for (const ShardWork& sw : work) {
    // Container list from the serving node's catalog snapshot captured
    // under the WOS gates above (one consistent cut with the memtable).
    const std::shared_ptr<const CatalogState>& serving_snapshot =
        serving_snapshots.at(sw.nodes[0]);
    for (const StorageContainerMeta* container :
         serving_snapshot->ContainersOf(proj->oid, sw.shard)) {
      profile->containers_total++;
      // Container-level pruning via catalog min/max (Section 2.1).
      if (pred && !container->column_ranges.empty() &&
          !pred->CouldMatch(container->column_ranges)) {
        profile->containers_pruned++;
        continue;
      }
      const size_t k = sw.nodes.size();
      for (size_t rank = 0; rank < k; ++rank) {
        Node* executor = cluster->node(sw.nodes[rank]);
        if (executor == nullptr || !executor->is_up()) {
          return Status::Unavailable("participating node is down");
        }
        Morsel m;
        m.node = sw.nodes[rank];
        m.executor = executor;
        m.snapshot = serving_snapshot;
        m.container = container;
        m.k = k;
        m.rank = rank;
        if (pushdown_mode > 0) {
          // Cost-based near-data decision, per morsel: estimate what a
          // LOCAL scan would fetch cold (the whole container object unless
          // it is resident in this node's cache) against what a PUSHED
          // scan would return (selectivity prior x rows x row wire size,
          // or flat partials for an aggregate push, plus a per-request
          // surcharge).
          PushdownDecision d;
          d.mode = pushdown_mode;
          d.has_predicate = pred != nullptr;
          d.has_aggregates = agg_push_ok;
          d.selectivity = selectivity;
          d.selectivity_cutoff = cluster->pushdown_selectivity_cutoff();
          if (!executor->cache()->Contains(container->base_key)) {
            d.cold_bytes = container->total_bytes;
          }
          uint64_t range_rows = container->row_count;
          if (k > 1 && context.crunch == CrunchMode::kContainerSplit) {
            range_rows = container->row_count * (rank + 1) / k -
                         container->row_count * rank / k;
          }
          d.pushed_bytes =
              agg_push_ok ? 1024
                          : static_cast<uint64_t>(selectivity * range_rows *
                                                  est_row_bytes) +
                                256;
          m.cold_bytes = d.cold_bytes;
          m.push = ChoosePushdown(d);
          m.push_aggs = m.push && agg_push_ok;
        }
        morsels.push_back(std::move(m));
      }
    }
    // WOS morsels last within the shard: the union scan appends memtable
    // rows after the shard's containers, matching the order a moveout
    // followed by a rescan would produce (new containers commit after the
    // existing ones in oid order).
    auto wit = wos_by_shard.find(sw.shard);
    if (wit != wos_by_shard.end() && wit->second->num_rows() > 0) {
      const size_t k = sw.nodes.size();
      for (size_t rank = 0; rank < k; ++rank) {
        Node* executor = cluster->node(sw.nodes[rank]);
        if (executor == nullptr || !executor->is_up()) {
          return Status::Unavailable("participating node is down");
        }
        Morsel m;
        m.node = sw.nodes[rank];
        m.executor = executor;
        m.k = k;
        m.rank = rank;
        m.wos_chunk = wit->second;
        morsels.push_back(std::move(m));
      }
    }
  }

  // Read-ahead pipeline: before scanning morsel i, the container objects
  // of morsels i+1..i+depth are queued on the I/O pool into their
  // executing node's cache, so this morsel's compute overlaps the next
  // morsels' object-store latency.
  const size_t prefetch_depth =
      static_cast<size_t>(std::max(0, cluster->prefetch_depth()));
  // High-water mark: consecutive windows overlap (morsel i and i+1 both
  // cover i+2..), so without it every morsel would be requested `depth`
  // times — redundant resident-checks that add up over thousands of tiny
  // morsels. Monotonic CAS keeps the dedup exact under morsel parallelism;
  // a request "lost" to a racing lane was just issued by that lane.
  std::atomic<size_t> prefetch_hwm{0};
  // Warm backoff: on a fully-resident cache every window pre-checks as
  // already satisfied, so after a streak of such windows the scan stops
  // speculating — thousands of tiny morsels would otherwise pay a key
  // build + shard lookup each for nothing. Any window that finds a
  // missing file resets the streak, so a partially warm cache keeps its
  // read-ahead.
  constexpr int kPrefetchWarmStreakLimit = 8;
  std::atomic<int> prefetch_warm_streak{0};
  auto prefetch_window = [&](size_t i) {
    if (prefetch_warm_streak.load(std::memory_order_relaxed) >=
        kPrefetchWarmStreakLimit) {
      return;
    }
    const size_t end = std::min(i + prefetch_depth + 1, morsels.size());
    size_t cur = prefetch_hwm.load(std::memory_order_relaxed);
    size_t begin;
    do {
      begin = std::max(cur, i + 1);
      if (begin >= end) return;
    } while (!prefetch_hwm.compare_exchange_weak(cur, end,
                                                 std::memory_order_relaxed));
    size_t missing = 0;
    for (size_t j = begin; j < end; ++j) {
      const Morsel& next = morsels[j];
      // Pushed morsels never read through the cache: prefetching their
      // containers would fetch the very bytes the push exists to avoid.
      // WOS morsels have no files at all.
      if (next.push || next.container == nullptr) continue;
      missing += next.executor->cache()->PrefetchAsync({PrefetchRequest{
          next.container->base_key, next.container->total_bytes}});
    }
    if (missing == 0) {
      prefetch_warm_streak.fetch_add(1, std::memory_order_relaxed);
    } else {
      prefetch_warm_streak.store(0, std::memory_order_relaxed);
    }
  };

  // Execute every morsel as an independent task. Each task writes only its
  // own MorselResult slot: its chunk is hash-filtered and stripped locally,
  // and scan stats accumulate into a task-private RosScanStats.
  struct MorselResult {
    Status status = Status::OK();
    ColumnChunk chunk;         ///< Post-filter, stripped output rows.
    size_t rows_scanned = 0;   ///< Pre-filter count (profile semantics).
    RosScanStats scan;
    // Near-data outcome: set when the morsel actually executed store-side
    // (a NotSupported store silently falls back to the local path).
    bool pushed = false;
    bool has_partials = false;  ///< `partials` replaces `chunk`.
    GroupStates partials;       ///< Store-side partial aggregates.
    uint64_t response_bytes = 0;
    uint64_t store_bytes_scanned = 0;
    uint64_t store_rows_filtered = 0;
    uint64_t bytes_saved = 0;  ///< Estimated cold fetch the push avoided.
  };
  std::vector<MorselResult> results(morsels.size());
  // Tracing: morsel tasks hop threads, so the coordinator's context is
  // captured once here (by reference — Run is a barrier, the frame
  // outlives every task) and reinstalled inside each task. Each morsel
  // gets its own span, tagged with pool lane and executing node, and
  // re-parents the context under itself so cache fetches, prefetches and
  // near-data scans issued by the morsel nest below it.
  const obs::TraceContext scan_trace = obs::CurrentTraceCopy();
  par->Run(morsels.size(), [&](size_t i) {
    const Morsel& m = morsels[i];
    MorselResult& res = results[i];
    obs::TraceScope task_trace(scan_trace);
    obs::Span morsel_span = obs::StartTraceSpan("morsel");
    if (morsel_span.valid()) {
      morsel_span.SetNode(m.executor->name());
      morsel_span.SetAttribute(
          "lane", static_cast<int64_t>(cluster->exec_pool()->CurrentSlot()));
      if (m.container != nullptr) {
        morsel_span.SetAttribute("container", m.container->base_key);
        morsel_span.SetAttribute(
            "rows", static_cast<int64_t>(m.container->row_count));
      } else {
        morsel_span.SetAttribute("wos", 1);
        morsel_span.SetAttribute(
            "rows", static_cast<int64_t>(m.wos_chunk->num_rows()));
      }
      if (m.k > 1) {
        morsel_span.SetAttribute("rank", static_cast<int64_t>(m.rank));
        morsel_span.SetAttribute("k", static_cast<int64_t>(m.k));
      }
      if (m.push) morsel_span.SetAttribute("pushed", 1);
    }
    obs::TraceScope morsel_trace(
        obs::CurrentTraceWithParent(morsel_span.id()));
    // Store requests the morsel triggers are attributed to the executing
    // node (DcNodeScope) — pushed ScanObject calls included.
    obs::DcNodeScope node_scope(m.executor->name());
    res.status = [&]() -> Status {
      ColumnChunk chunk;
      if (m.container == nullptr) {
        // WOS morsel: the shard's memtable chunk runs the predicate
        // through the same vectorized kernels as the container scan, then
        // the survivors' scan columns are gathered.
        const ColumnChunk& src = *m.wos_chunk;
        size_t row_begin = 0, row_end = src.num_rows();
        if (m.k > 1 && context.crunch == CrunchMode::kContainerSplit) {
          row_begin = src.num_rows() * m.rank / m.k;
          row_end = src.num_rows() * (m.rank + 1) / m.k;
        }
        const size_t n = row_end - row_begin;
        std::vector<uint32_t> idx;
        idx.reserve(n);
        if (pred != nullptr && n > 0) {
          // A rank's sub-range is sliced out of the predicate columns so
          // the kernels see rows [0, n).
          std::vector<ColumnBatch> sliced;
          sliced.reserve(pred_proj_cols.size());
          std::vector<const ColumnBatch*> cols(proj_schema.num_columns(),
                                               nullptr);
          for (size_t c : pred_proj_cols) {
            if (n == src.num_rows()) {
              cols[c] = &src.columns[c];
              continue;
            }
            ColumnBatch& slice = sliced.emplace_back(src.columns[c].type());
            slice.AppendRange(src.columns[c], row_begin, n);
            cols[c] = &slice;
          }
          SelectionVector sel;
          pred->EvalBlockBatch(cols, n, &sel, &res.scan.kernel_calls);
          for (size_t r = 0; r < n; ++r) {
            if (sel[r]) idx.push_back(static_cast<uint32_t>(row_begin + r));
          }
        } else {
          for (size_t r = row_begin; r < row_end; ++r) {
            idx.push_back(static_cast<uint32_t>(r));
          }
        }
        for (size_t pos : scan_cols) {
          chunk.columns.emplace_back(src.columns[pos].type())
              .AppendGather(src.columns[pos], idx.data(), idx.size());
        }
      } else {
      if (prefetch_depth > 0) prefetch_window(i);
      EON_ASSIGN_OR_RETURN(
          DeleteVector deletes,
          LoadDeleteVector(*m.snapshot, *m.container, m.executor->cache()));
      bool pushed = false;
      if (m.push) {
        // Near-data path: the store runs the same scan pipeline next to
        // the data and returns only surviving rows (or agg partials),
        // bypassing this node's cache entirely.
        ScanObjectRequest req;
        req.base_key = m.container->base_key;
        req.schema = proj_schema;
        req.output_columns = scan_cols;
        req.predicate = pred;
        req.predicate_columns = pred_proj_cols;
        req.deletes = deletes.empty() ? nullptr : &deletes;
        if (m.k > 1 && context.crunch == CrunchMode::kContainerSplit) {
          req.row_begin = m.container->row_count * m.rank / m.k;
          req.row_end = m.container->row_count * (m.rank + 1) / m.k;
        }
        if (m.push_aggs) {
          req.aggregates = push_agg_specs;
          req.group_columns = push_group_pos;
        }
        ScanObjectResponse resp;
        obs::Span push_span = obs::StartTraceSpan("scan_object");
        Status s = m.executor->shared_storage()->ScanObject(req, &resp);
        if (push_span.valid()) {
          push_span.SetAttribute("container", m.container->base_key);
          push_span.SetAttribute(
              "response_bytes", static_cast<int64_t>(resp.response_bytes));
          push_span.SetAttribute("bytes_scanned",
                                 static_cast<int64_t>(resp.bytes_scanned));
          push_span.SetAttribute("ok", s.ok() ? 1 : 0);
          push_span.End();
        }
        if (s.ok()) {
          pushed = true;
          res.pushed = true;
          res.response_bytes = resp.response_bytes;
          res.store_bytes_scanned = resp.bytes_scanned;
          res.store_rows_filtered = resp.rows_visited - resp.rows_output;
          res.bytes_saved = m.cold_bytes;
          res.scan = resp.scan;
          if (m.push_aggs) {
            res.partials = std::move(resp.groups);
            res.has_partials = true;
            res.rows_scanned = resp.rows_output;
            return Status::OK();
          }
          chunk = std::move(resp.chunk);
        } else if (!s.IsNotSupported()) {
          return s;
        }
        // NotSupported: the store has no near-data capability — fall
        // back to the ordinary cache-mediated scan below.
      }
      if (!pushed) {
        RosScanOptions scan;
        scan.output_columns = scan_cols;
        scan.predicate = pred;
        scan.predicate_columns = pred_proj_cols;
        scan.deletes = deletes.empty() ? nullptr : &deletes;
        if (m.k > 1 && context.crunch == CrunchMode::kContainerSplit) {
          // Physical split: each sharing node reads a distinct row range
          // (each row read once; segmentation property lost).
          scan.row_begin = m.container->row_count * m.rank / m.k;
          scan.row_end = m.container->row_count * (m.rank + 1) / m.k;
        }
        EON_ASSIGN_OR_RETURN(
            chunk, ScanRosContainer(proj_schema, m.container->base_key,
                                    m.executor->cache(), scan, &res.scan));
      }
      }
      const size_t n = chunk.num_rows();
      res.rows_scanned = n;
      std::vector<uint32_t> keep;
      const bool hash_filter =
          m.k > 1 && context.crunch == CrunchMode::kHashFilter;
      if (hash_filter) {
        // Secondary hash segmentation predicate: only rank (hash % k)
        // keeps a row (Section 4.4). The hashes are taken over the
        // chunk's ride-along segmentation columns in place.
        std::vector<uint32_t> hashes(n, 0);
        if (seg_positions_in_scan.size() == 1 &&
            proj_schema.column(scan_cols[seg_positions_in_scan[0]]).type ==
                DataType::kInt64) {
          // Single int64 segmentation column (the common fan-out shape):
          // the vectorized kernel, bit-identical to Value::SegHash per row.
          const ColumnBatch& seg = chunk.columns[seg_positions_in_scan[0]];
          simd::SegHashInt64(seg.ints(), n, seg.validity_words(),
                             hashes.data());
          res.scan.kernel_calls++;
        } else {
          for (size_t r = 0; r < n; ++r) {
            bool first = true;
            for (size_t pos : seg_positions_in_scan) {
              const uint32_t h = chunk.columns[pos].GetValue(r).SegHash();
              hashes[r] = first ? h : SegmentationHashCombine(hashes[r], h);
              first = false;
            }
          }
        }
        keep.reserve(n);
        for (size_t r = 0; r < n; ++r) {
          if (hashes[r] % m.k == m.rank) {
            keep.push_back(static_cast<uint32_t>(r));
          }
        }
      }
      chunk.columns.resize(out_proj_cols.size());  // Strip ride-alongs.
      if (hash_filter && keep.size() != n) {
        chunk = chunk.Gather(keep.data(), keep.size());
      }
      res.chunk = std::move(chunk);
      return Status::OK();
    }();
  });

  // Deterministic merge in morsel order: the first failing morsel's error
  // wins (matching the serial loop's first-error return), and each node's
  // chunk list receives chunks in exactly the serial append order.
  for (size_t i = 0; i < morsels.size(); ++i) {
    EON_RETURN_IF_ERROR(results[i].status);
    MorselResult& res = results[i];
    profile->exec_rows_visited += res.scan.rows_visited;
    profile->exec_values_decoded += res.scan.values_decoded;
    profile->exec_fetch_wait_micros += res.scan.fetch_wait_micros;
    profile->exec_values_unpacked += res.scan.values_unpacked;
    profile->exec_kernel_calls += res.scan.kernel_calls;
    if (res.pushed) {
      profile->pushdown_containers_pushed++;
      profile->pushdown_response_bytes += res.response_bytes;
      profile->pushdown_store_bytes_scanned += res.store_bytes_scanned;
      profile->pushdown_store_rows_filtered += res.store_rows_filtered;
      profile->pushdown_bytes_saved += res.bytes_saved;
    } else {
      profile->pushdown_containers_local++;
    }
    profile->rows_scanned_by_node[morsels[i].node] += res.rows_scanned;
    profile->rows_scanned_total += res.rows_scanned;
    if (res.has_partials) {
      // Aggregate pushdown: each partial merges into its executing node's
      // running partial in morsel order, so a node holds one set of
      // groups however many of its morsels pushed.
      profile->pushdown_aggregates = true;
      auto [acc, first] = output.partials_by_node.try_emplace(
          morsels[i].node, std::move(res.partials));
      if (!first) {
        std::vector<GroupStates> parts;
        parts.push_back(std::move(acc->second));
        parts.push_back(std::move(res.partials));
        acc->second = MergeGroupStates(std::move(parts), push_agg_specs.size());
      }
      continue;
    }
    std::vector<ColumnChunk>& sink = output.chunks_by_node[morsels[i].node];
    if (res.chunk.num_rows() > 0) sink.push_back(std::move(res.chunk));
  }
  return output;
}

/// Inner equi-join of two scans' node-partitioned chunks (Section 4). Both
/// sides placed by the hash of their join key: every key's rows meet on
/// one node, which joins them in place. A right side scanned from the
/// replica shard (one node, unsegmented) is broadcast to every left node.
/// Anything else reshuffles both sides to the coordinator (every row
/// moves once). Output columns are the left's then the right's, a right
/// name that collides renamed with the right table as prefix.
///
/// Each join builds a hash table on the right key column and probes it
/// with the left key column, chunk by chunk; a left row's matches come
/// out in build order, and a NULL key never matches. The output columns
/// are gathered by row index.
Result<NodeChunks> JoinByNode(NodeChunks left, NodeChunks right,
                              const JoinSpec& join, Oid coord,
                              ExecParallel* par, obs::QueryProfile* profile) {
  Result<size_t> left_key = left.schema.IndexOf(join.left_key);
  Result<size_t> right_key = right.schema.IndexOf(join.right_key);
  if (!left_key.ok() || !right_key.ok()) {
    return Status::InvalidArgument("join key not in scan output");
  }
  const size_t left_key_pos = *left_key;
  const size_t right_key_pos = *right_key;
  if (left.schema.column(left_key_pos).type !=
      right.schema.column(right_key_pos).type) {
    return Status::InvalidArgument("join keys differ in type");
  }
  const bool co_located = !left.segmented_by.empty() &&
                          left.segmented_by == join.left_key &&
                          !right.segmented_by.empty() &&
                          right.segmented_by == join.right_key;
  const bool broadcast = !co_located && right.chunks_by_node.size() == 1 &&
                         right.segmented_by.empty();
  profile->local_join = co_located;

  NodeChunks out;
  if (co_located) out.segmented_by = left.segmented_by;
  {
    std::vector<ColumnDef> cols = left.schema.columns();
    std::set<std::string> names_taken;
    for (const ColumnDef& c : cols) names_taken.insert(c.name);
    for (ColumnDef c : right.schema.columns()) {
      if (names_taken.count(c.name)) c.name = join.right.table + "." + c.name;
      names_taken.insert(c.name);
      cols.push_back(std::move(c));
    }
    out.schema = Schema(std::move(cols));
  }

  auto hash_join = [&](const ColumnChunk& build,
                       const std::vector<ColumnChunk>& probe,
                       std::vector<ColumnChunk>* dst) {
    const size_t nb = build.num_rows();
    if (nb == 0) return;
    const ColumnBatch& build_key = build.columns[right_key_pos];
    KeyTable table({&build_key}, nb);
    const std::vector<uint64_t> build_hashes =
        KeyTable::HashRows({&build_key}, nb);
    // Per key: its build rows chained in ascending (build) order.
    std::vector<uint32_t> head, tail;
    std::vector<uint32_t> next(nb, KeyTable::kNone);
    for (size_t r = 0; r < nb; ++r) {
      if (build_key.IsNull(r)) continue;
      const uint32_t id = table.Insert(r, build_hashes[r]);
      if (id == head.size()) {
        head.push_back(static_cast<uint32_t>(r));
        tail.push_back(static_cast<uint32_t>(r));
      } else {
        next[tail[id]] = static_cast<uint32_t>(r);
        tail[id] = static_cast<uint32_t>(r);
      }
    }
    std::vector<uint32_t> left_rows, right_rows;
    for (const ColumnChunk& lc : probe) {
      const std::vector<const ColumnBatch*> probe_key = {
          &lc.columns[left_key_pos]};
      const std::vector<uint64_t> probe_hashes =
          KeyTable::HashRows(probe_key, lc.num_rows());
      left_rows.clear();
      right_rows.clear();
      for (size_t i = 0; i < lc.num_rows(); ++i) {
        if (probe_key[0]->IsNull(i)) continue;
        const uint32_t id = table.Find(probe_key, i, probe_hashes[i]);
        if (id == KeyTable::kNone) continue;
        for (uint32_t r = head[id]; r != KeyTable::kNone; r = next[r]) {
          left_rows.push_back(static_cast<uint32_t>(i));
          right_rows.push_back(r);
        }
      }
      if (left_rows.empty()) continue;
      ColumnChunk joined = lc.Gather(left_rows.data(), left_rows.size());
      for (const ColumnBatch& c : build.columns) {
        joined.columns.emplace_back(c.type())
            .AppendGather(c, right_rows.data(), right_rows.size());
      }
      dst->push_back(std::move(joined));
    }
  };

  if (!co_located && !broadcast) {
    // Reshuffle: both sides move to the coordinator.
    auto collect = [&](std::map<Oid, std::vector<ColumnChunk>>* by_node) {
      std::vector<ColumnChunk> all;
      for (auto& [node, chunks] : *by_node) {
        for (ColumnChunk& c : chunks) {
          profile->network_bytes += c.WireBytes();
          profile->rows_shuffled += c.num_rows();
          all.push_back(std::move(c));
        }
      }
      return all;
    };
    std::vector<ColumnChunk> all_left = collect(&left.chunks_by_node);
    std::vector<ColumnChunk> all_right = collect(&right.chunks_by_node);
    const ColumnChunk build = ConcatChunks(&all_right);
    hash_join(build, all_left, &out.chunks_by_node[coord]);
    return out;
  }

  ColumnChunk broadcast_build;
  if (broadcast) {
    broadcast_build = ConcatChunks(&right.chunks_by_node.begin()->second);
  }
  if (broadcast && !left.chunks_by_node.empty()) {
    // The single right copy ships to every left node; with no left rows
    // anywhere it ships nowhere.
    const size_t n = left.chunks_by_node.size();
    profile->network_bytes +=
        broadcast_build.WireBytes() * std::max<size_t>(1, n - 1);
    profile->rows_shuffled +=
        broadcast_build.num_rows() * std::max<size_t>(1, n);
  }
  // Per-node join bodies are independent, so each node is one pool task
  // writing its own output slot; slots land in node order afterwards.
  struct NodeJoin {
    Oid node;
    const std::vector<ColumnChunk>* left;
    std::vector<ColumnChunk>* right;  ///< Null: broadcast, or no rows.
  };
  std::vector<NodeJoin> bodies;
  bodies.reserve(left.chunks_by_node.size());
  for (const auto& [node, lchunks] : left.chunks_by_node) {
    std::vector<ColumnChunk>* rchunks = nullptr;
    if (!broadcast) {
      auto it = right.chunks_by_node.find(node);
      if (it != right.chunks_by_node.end()) rchunks = &it->second;
    }
    bodies.push_back(NodeJoin{node, &lchunks, rchunks});
  }
  std::vector<std::vector<ColumnChunk>> outs(bodies.size());
  par->Run(bodies.size(), [&](size_t i) {
    if (broadcast) {
      hash_join(broadcast_build, *bodies[i].left, &outs[i]);
    } else if (bodies[i].right != nullptr) {
      const ColumnChunk build = ConcatChunks(bodies[i].right);
      hash_join(build, *bodies[i].left, &outs[i]);
    }
  });
  for (size_t i = 0; i < bodies.size(); ++i) {
    out.chunks_by_node[bodies[i].node] = std::move(outs[i]);
  }
  return out;
}

/// Group-by / aggregate over node-partitioned chunks. Each node folds its
/// own rows into partial groups (one pool task per node), store-side
/// partials from pushed morsels merge into their node's groups, and the
/// node partials merge in node order, so the result is the same at every
/// pool width; all three steps are the shared group fold (columnar/agg.h).
/// `local` means every group's rows live on one node: partials are final
/// and never move; otherwise each node partial's transfer to the
/// coordinator is accounted. Fills `out` with the group columns then one
/// column per aggregate, one row per final group in key order. Moves the
/// pushed partials out of `in` and leaves its chunks, which the caller
/// frees after the query's phases are timed.
Status AggregateByNode(NodeChunks* in, const QuerySpec& spec, bool local,
                       ExecParallel* par, obs::QueryProfile* profile,
                       QueryResult* out) {
  std::vector<size_t> group_pos;
  for (const std::string& g : spec.group_by) {
    Result<size_t> pos = in->schema.IndexOf(g);
    if (!pos.ok()) {
      return Status::InvalidArgument("group-by column not in output: " + g);
    }
    group_pos.push_back(*pos);
  }
  std::vector<AggColumn> aggs;
  std::vector<DataType> agg_types;
  for (const AggSpec& a : spec.aggregates) {
    if (a.column.empty()) {
      aggs.push_back(AggColumn{a.fn, SIZE_MAX});
      agg_types.push_back(DataType::kInt64);
      continue;
    }
    Result<size_t> pos = in->schema.IndexOf(a.column);
    if (!pos.ok()) {
      return Status::InvalidArgument("aggregate column not in output: " +
                                     a.column);
    }
    aggs.push_back(AggColumn{a.fn, *pos});
    agg_types.push_back(in->schema.column(*pos).type);
  }
  const size_t num_aggs = aggs.size();
  profile->local_group_by = local;

  // Kernel-call counters are per-task slots, summed after the barrier, so
  // the tasks stay write-disjoint.
  std::vector<std::pair<Oid, const std::vector<ColumnChunk>*>> node_chunks;
  node_chunks.reserve(in->chunks_by_node.size());
  for (const auto& [node, chunks] : in->chunks_by_node) {
    node_chunks.emplace_back(node, &chunks);
  }
  std::vector<GroupStates> partials(node_chunks.size());
  std::vector<uint64_t> partial_kernel_calls(node_chunks.size(), 0);
  par->Run(node_chunks.size(), [&](size_t i) {
    FoldChunksIntoGroups(*node_chunks[i].second, group_pos, aggs,
                         &partials[i], &partial_kernel_calls[i]);
  });
  for (uint64_t k : partial_kernel_calls) profile->exec_kernel_calls += k;
  // Each node's parts: its row fold, then its pushed partials (already
  // merged in morsel order). A node whose morsels ALL pushed has no row
  // fold.
  std::map<Oid, std::vector<GroupStates>> parts_by_node;
  for (size_t i = 0; i < node_chunks.size(); ++i) {
    parts_by_node[node_chunks[i].first].push_back(std::move(partials[i]));
  }
  obs::Span partials_span;
  if (!in->partials_by_node.empty()) {
    partials_span = obs::StartTraceSpan("merge_partials");
    partials_span.SetAttribute(
        "nodes", static_cast<int64_t>(in->partials_by_node.size()));
  }
  for (auto& [node, pushed] : in->partials_by_node) {
    parts_by_node[node].push_back(std::move(pushed));
  }
  // A node's partial is final on that node before it moves: the per-node
  // merge runs first and only the merged groups' transfer is accounted.
  std::vector<GroupStates> node_partials;
  node_partials.reserve(parts_by_node.size());
  for (auto& [node, parts] : parts_by_node) {
    GroupStates partial = MergeGroupStates(std::move(parts), num_aggs);
    if (!local) profile->network_bytes += partial.StateBytes();
    node_partials.push_back(std::move(partial));
  }
  partials_span.End();
  GroupStates merged = MergeGroupStates(std::move(node_partials), num_aggs);

  std::vector<ColumnDef> cols;
  for (size_t i = 0; i < spec.group_by.size(); ++i) {
    ColumnDef c = in->schema.column(group_pos[i]);
    c.name = spec.group_by[i];
    cols.push_back(c);
  }
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    const AggSpec& spec_a = spec.aggregates[a];
    DataType t = agg_types[a];
    if (spec_a.fn == AggFn::kCount || spec_a.fn == AggFn::kCountDistinct) {
      t = DataType::kInt64;
    } else if (spec_a.fn == AggFn::kAvg) {
      t = DataType::kDouble;
    }
    cols.push_back(ColumnDef{
        spec_a.as.empty()
            ? std::string(AggFnName(spec_a.fn)) + "(" + spec_a.column + ")"
            : spec_a.as,
        t});
  }
  out->schema = Schema(std::move(cols));

  // A global aggregate (no GROUP BY) over zero input rows still yields
  // exactly one row (COUNT = 0, SUM = NULL), per SQL semantics.
  if (merged.num_groups == 0 && group_pos.empty()) {
    merged.num_groups = 1;
    merged.states.resize(num_aggs);
  }
  out->rows = FinalizeSortedGroups(merged, aggs, agg_types);
  return Status::OK();
}

/// Gather every node's chunks on the coordinator in node order, as the
/// result's rows, accounting rows produced on other nodes as network
/// transfer.
void Gather(NodeChunks in, Oid coord, obs::QueryProfile* profile,
            QueryResult* out) {
  out->schema = std::move(in.schema);
  for (const auto& [node, chunks] : in.chunks_by_node) {
    for (const ColumnChunk& c : chunks) {
      if (node != coord) profile->network_bytes += c.WireBytes();
      AppendChunkRows(c, &out->rows);
    }
  }
}

/// ORDER BY one output column (stable), then LIMIT.
Status OrderAndLimit(const QuerySpec& spec, QueryResult* out) {
  if (spec.order_by) {
    size_t pos = SIZE_MAX;
    for (size_t i = 0; i < out->schema.num_columns(); ++i) {
      if (out->schema.column(i).name == *spec.order_by) pos = i;
    }
    if (pos == SIZE_MAX) {
      return Status::InvalidArgument("order-by column not in output: " +
                                     *spec.order_by);
    }
    std::stable_sort(out->rows.begin(), out->rows.end(),
                     [&](const Row& a, const Row& b) {
                       int c = a[pos].Compare(b[pos]);
                       return spec.order_desc ? c > 0 : c < 0;
                     });
  }
  if (spec.limit >= 0 && out->rows.size() > static_cast<size_t>(spec.limit)) {
    out->rows.resize(static_cast<size_t>(spec.limit));
  }
  return Status::OK();
}

/// Rebase a base-table predicate onto a live aggregate projection's
/// columns (only group columns may be referenced). Returns null predicate
/// unchanged; fails when a non-group column is referenced.
Result<PredicatePtr> RebaseLapPredicate(const PredicatePtr& pred,
                                        const TableDef& lap) {
  if (pred == nullptr) return PredicatePtr(nullptr);
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      return Predicate::True();
    case Predicate::Kind::kCmp:
      for (size_t pos = 0; pos < lap.lap_group_columns.size(); ++pos) {
        if (lap.lap_group_columns[pos] == pred->col_index()) {
          return Predicate::Cmp(pos, pred->op(), pred->literal());
        }
      }
      return Status::InvalidArgument("predicate not on a group column");
    case Predicate::Kind::kAnd: {
      EON_ASSIGN_OR_RETURN(PredicatePtr l,
                           RebaseLapPredicate(pred->left(), lap));
      EON_ASSIGN_OR_RETURN(PredicatePtr r,
                           RebaseLapPredicate(pred->right(), lap));
      return Predicate::And(std::move(l), std::move(r));
    }
    case Predicate::Kind::kOr: {
      EON_ASSIGN_OR_RETURN(PredicatePtr l,
                           RebaseLapPredicate(pred->left(), lap));
      EON_ASSIGN_OR_RETURN(PredicatePtr r,
                           RebaseLapPredicate(pred->right(), lap));
      return Predicate::Or(std::move(l), std::move(r));
    }
    case Predicate::Kind::kNot: {
      EON_ASSIGN_OR_RETURN(PredicatePtr l,
                           RebaseLapPredicate(pred->left(), lap));
      return Predicate::Not(std::move(l));
    }
  }
  return Status::Internal("unknown predicate kind");
}

/// Try to answer an aggregate query from a live aggregate projection
/// (Section 2.1): eligible when there is no join, every aggregate is a
/// re-mergeable COUNT/SUM/MIN/MAX present in some LAP of the table, the
/// grouping keys are a subset of that LAP's group columns, and the
/// predicate touches only group columns. The rewrite merges partials —
/// COUNT becomes SUM of partial counts, SUM a SUM of sums, MIN/MAX a
/// MIN/MAX of partial extrema — preserving the original output names.
bool TryLiveAggregateRewrite(const CatalogState& state, const QuerySpec& spec,
                             QuerySpec* rewritten) {
  if (spec.join || spec.aggregates.empty()) return false;
  const TableDef* base = state.FindTableByName(spec.scan.table);
  if (base == nullptr || base->is_live_aggregate()) return false;

  for (const auto& [oid, lap] : state.tables) {
    if (lap.lap_base != base->oid) continue;

    // Group-column names of this LAP (positions 0..G-1 in its schema).
    std::set<std::string> group_names;
    for (size_t g = 0; g < lap.lap_group_columns.size(); ++g) {
      group_names.insert(lap.schema.column(g).name);
    }
    bool groups_ok = true;
    for (const std::string& g : spec.group_by) {
      if (!group_names.count(g)) groups_ok = false;
    }
    if (!groups_ok) continue;

    // Map each query aggregate to a LAP partial column.
    std::vector<AggSpec> merged;
    bool aggs_ok = true;
    for (const AggSpec& a : spec.aggregates) {
      size_t src = SIZE_MAX;
      if (a.fn != AggFn::kCount) {
        Result<size_t> idx = base->schema.IndexOf(a.column);
        if (!idx.ok()) {
          aggs_ok = false;
          break;
        }
        src = *idx;
      }
      size_t match = SIZE_MAX;
      for (size_t i = 0; i < lap.lap_aggs.size(); ++i) {
        if (lap.lap_aggs[i].fn == a.fn &&
            (a.fn == AggFn::kCount || lap.lap_aggs[i].source_column == src)) {
          match = i;
          break;
        }
      }
      if (match == SIZE_MAX ||
          (a.fn != AggFn::kCount && a.fn != AggFn::kSum &&
           a.fn != AggFn::kMin && a.fn != AggFn::kMax)) {
        aggs_ok = false;
        break;
      }
      const std::string partial_col =
          lap.schema.column(lap.lap_group_columns.size() + match).name;
      AggSpec m;
      switch (a.fn) {
        case AggFn::kCount:
        case AggFn::kSum:
          m.fn = AggFn::kSum;
          break;
        case AggFn::kMin:
          m.fn = AggFn::kMin;
          break;
        case AggFn::kMax:
          m.fn = AggFn::kMax;
          break;
        default:
          aggs_ok = false;
          break;
      }
      m.column = partial_col;
      // Preserve the original output column name exactly.
      m.as = a.as.empty()
                 ? std::string(AggFnName(a.fn)) + "(" + a.column + ")"
                 : a.as;
      merged.push_back(std::move(m));
    }
    if (!aggs_ok) continue;

    Result<PredicatePtr> pred = RebaseLapPredicate(spec.scan.predicate, lap);
    if (!pred.ok()) continue;

    rewritten->scan.table = lap.name;
    rewritten->scan.columns = spec.group_by;
    rewritten->scan.predicate = *pred;
    rewritten->join.reset();
    rewritten->group_by = spec.group_by;
    rewritten->aggregates = std::move(merged);
    rewritten->order_by = spec.order_by;
    rewritten->order_desc = spec.order_desc;
    rewritten->limit = spec.limit;
    return true;
  }
  return false;
}

/// SELECT over a system table: materialize the full table at the
/// initiator (MaterializeSystemTable unions per-node Data Collector rings
/// / live state — shard pruning does not apply), filter and project it as
/// the coordinator's one node of input, then run the same aggregate and
/// order/limit operators as a user query.
Result<QueryResult> ExecuteSystemQuery(EonCluster* cluster, Node* coord,
                                       const QuerySpec& spec) {
  if (spec.join) {
    return Status::NotSupported("system tables do not support joins");
  }
  const Schema& table_schema = *SystemTableSchema(spec.scan.table);

  obs::QueryProfile profile;
  profile.participating_nodes = cluster->nodes().size();
  // Introspection queries ride the session's trace when one is live
  // (inert otherwise): they never mint their own.
  obs::Span root = obs::StartTraceSpan("system_query");
  root.SetAttribute("table", spec.scan.table);
  std::optional<obs::TraceScope> root_scope;
  if (root.valid()) {
    profile.trace_id = obs::TraceScope::Current()->trace_id;
    root_scope.emplace(obs::CurrentTraceWithParent(root.id()));
  }

  PhaseScope scan_scope(cluster->clock(), &profile, obs::QueryPhase::kScan);
  EON_ASSIGN_OR_RETURN(std::vector<Row> all_rows,
                       MaterializeSystemTable(cluster, spec.scan.table));
  profile.rows_scanned_total = all_rows.size();

  // Output columns: requested + group/aggregate inputs (dedup, order kept).
  std::vector<std::string> out_names;
  std::set<std::string> seen;
  for (const std::string& c : spec.scan.columns) {
    if (seen.insert(c).second) out_names.push_back(c);
  }
  for (const std::string& g : spec.group_by) {
    if (seen.insert(g).second) out_names.push_back(g);
  }
  for (const AggSpec& a : spec.aggregates) {
    if (!a.column.empty() && seen.insert(a.column).second) {
      out_names.push_back(a.column);
    }
  }
  if (out_names.empty() && table_schema.num_columns() > 0) {
    // A bare COUNT(*) names no column, but a chunk counts its rows by its
    // columns: ride the first one along, as user queries do.
    out_names.push_back(table_schema.column(0).name);
  }

  std::vector<size_t> out_pos;
  std::vector<ColumnDef> out_cols;
  for (const std::string& name : out_names) {
    EON_ASSIGN_OR_RETURN(size_t idx, table_schema.IndexOf(name));
    out_pos.push_back(idx);
    out_cols.push_back(table_schema.column(idx));
  }

  // Materialized rows are full-width in schema order, so the predicate's
  // table-column indexes evaluate directly against them. The survivors
  // become the coordinator's one chunk of input.
  std::vector<Row> rows;
  for (const Row& full : all_rows) {
    if (spec.scan.predicate && !spec.scan.predicate->Eval(full)) continue;
    Row out;
    out.reserve(out_pos.size());
    for (size_t p : out_pos) out.push_back(full[p]);
    rows.push_back(std::move(out));
  }
  std::vector<DataType> out_types;
  for (const ColumnDef& c : out_cols) out_types.push_back(c.type);
  NodeChunks input;
  input.schema = Schema(std::move(out_cols));
  std::vector<ColumnChunk>& chunks = input.chunks_by_node[coord->oid()];
  if (!rows.empty()) chunks.push_back(ChunkFromRows(rows, out_types));
  scan_scope.End();

  QueryResult result;
  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    PhaseScope agg_scope(cluster->clock(), &profile,
                         obs::QueryPhase::kAggregate);
    ExecParallel par(cluster->exec_pool());
    EON_RETURN_IF_ERROR(AggregateByNode(&input, spec, /*local=*/true, &par,
                                        &profile, &result));
  } else {
    Gather(std::move(input), coord->oid(), &profile, &result);
  }

  PhaseScope merge_scope(cluster->clock(), &profile, obs::QueryPhase::kMerge);
  EON_RETURN_IF_ERROR(OrderAndLimit(spec, &result));
  merge_scope.End();
  root_scope.reset();
  root.End();

  result.profile = std::move(profile);
  result.catalog_version = coord->catalog()->version();
  return result;
}

}  // namespace

bool ChoosePushdown(const PushdownDecision& d) {
  if (d.mode <= 0) return false;
  // Nothing to do near the data: an unfiltered, unaggregated push ships
  // every byte anyway — with store-side work and a request surcharge on
  // top of it.
  if (!d.has_predicate && !d.has_aggregates) return false;
  if (d.mode >= 2) return true;
  // Fully warm cache: the local scan reads nothing from the store, so any
  // push is pure regression.
  if (d.cold_bytes == 0) return false;
  // Row pushdown only pays off when the predicate drops most rows; the
  // cutoff guards against optimistic byte estimates near break-even.
  if (!d.has_aggregates && d.selectivity > d.selectivity_cutoff) return false;
  return d.pushed_bytes < d.cold_bytes;
}

Result<ExecContext> BuildExecContext(EonCluster* cluster,
                                     const std::string& connected_node,
                                     uint64_t variation_seed,
                                     CrunchMode crunch) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  if (cluster->is_shutdown()) {
    return Status::Unavailable("cluster is shut down");
  }
  auto snapshot = coord->catalog()->snapshot();

  ExecContext context;
  ParticipationOptions popts;
  popts.variation_seed = variation_seed;

  // Subcluster workload isolation (Section 4.3): a session connected to a
  // subcluster node prioritizes that subcluster; the workload escapes only
  // when failures leave shards uncovered inside it.
  Node* connected =
      connected_node.empty() ? nullptr : cluster->node_by_name(connected_node);
  if (connected != nullptr && !connected->subcluster().empty()) {
    std::vector<Oid> in_group, out_group;
    for (const auto& n : cluster->nodes()) {
      if (!n->is_up()) continue;
      (n->subcluster() == connected->subcluster() ? in_group : out_group)
          .push_back(n->oid());
    }
    if (!in_group.empty()) popts.priority_groups.push_back(in_group);
    if (!out_group.empty()) popts.priority_groups.push_back(out_group);
  }

  EON_ASSIGN_OR_RETURN(
      context.participation,
      SelectParticipatingNodes(*snapshot, cluster->up_node_oids(), popts));
  context.crunch = crunch;

  if (crunch != CrunchMode::kNone) {
    // Fan each shard out over every up ACTIVE subscriber (assigned node
    // first) so idle nodes share the scan (Section 4.4).
    for (const auto& [shard, assigned] : context.participation.shard_to_node) {
      std::vector<Oid> sharing = {assigned};
      for (Oid n :
           snapshot->SubscribersOf(shard, {SubscriptionState::kActive})) {
        if (n != assigned && cluster->up_node_oids().count(n)) {
          sharing.push_back(n);
        }
      }
      context.crunch_nodes[shard] = std::move(sharing);
    }
  }
  return context;
}

Result<QueryResult> ExecuteQuery(EonCluster* cluster,
                                 const QuerySpec& original_spec,
                                 const ExecContext& context) {
  Node* coord = cluster->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  if (cluster->is_shutdown()) {
    return Status::Unavailable(
        "cluster is shut down (viability constraints violated)");
  }

  // Every aggregate but COUNT(*) folds an input column (the SQL front end
  // always names one).
  for (const AggSpec& a : original_spec.aggregates) {
    if (a.fn != AggFn::kCount && a.column.empty()) {
      return Status::InvalidArgument(std::string(AggFnName(a.fn)) +
                                     " needs an input column");
    }
  }

  // System tables take the dedicated scan path: materialized at the
  // initiator, not sharded, never recorded into the Data Collector (so
  // introspection does not pollute its own query log).
  if (IsSystemTable(original_spec.scan.table)) {
    EON_ASSIGN_OR_RETURN(QueryResult result,
                         ExecuteSystemQuery(cluster, coord, original_spec));
    result.profile.queued_micros = context.queued_micros;
    result.profile.resource_pool = context.resource_pool;
    return result;
  }

  // Tracing scaffold: adopt a caller-minted TraceContext when one is live
  // on this thread (serving layer / wire dispatch); mint our own guard
  // otherwise so direct ExecuteQuery callers still get a span tree.
  // Phase spans are deterministic under SimClock and feed QueryProfile.
  obs::QueryProfile profile;
  QueryTraceGuard own_trace;
  if (obs::TraceScope::Current() == nullptr) {
    own_trace = QueryTraceGuard(cluster, "query", /*force=*/false);
  }
  std::optional<obs::TraceScope> own_scope;
  if (own_trace.active()) own_scope.emplace(own_trace.context());
  obs::Span query_span;
  std::optional<obs::TraceScope> query_scope;
  if (!own_trace.active()) {
    query_span = obs::StartTraceSpan("query");
    query_span.SetAttribute("table", original_spec.scan.table);
    if (query_span.valid()) {
      query_scope.emplace(obs::CurrentTraceWithParent(query_span.id()));
    }
  } else {
    own_trace.root().SetAttribute("table", original_spec.scan.table);
  }
  if (const obs::TraceContext* cur = obs::TraceScope::Current()) {
    profile.trace_id = cur->trace_id;
  }
  PhaseScope plan_scope(cluster->clock(), &profile, obs::QueryPhase::kPlan);

  auto snapshot = coord->catalog()->snapshot();

  // Live-aggregate rewrite (Section 2.1): answer eligible aggregate
  // queries from pre-computed partials instead of the base data.
  QuerySpec lap_spec;
  const bool used_lap =
      TryLiveAggregateRewrite(*snapshot, original_spec, &lap_spec);
  const QuerySpec& spec = used_lap ? lap_spec : original_spec;

  // Register the reading version on every participating node for the
  // file-deletion gossip (Section 6.5); unregister on scope exit.
  struct QueryGuard {
    EonCluster* cluster;
    std::set<Oid> nodes;
    uint64_t version;
    ~QueryGuard() {
      for (Oid n : nodes) {
        Node* node = cluster->node(n);
        if (node != nullptr) node->UnregisterQuery(version);
      }
    }
  } guard{cluster, context.participation.Nodes(), snapshot->version};
  for (Oid n : guard.nodes) {
    Node* node = cluster->node(n);
    if (node != nullptr) node->RegisterQuery(snapshot->version);
  }

  profile.participating_nodes = guard.nodes.size();
  profile.used_live_aggregate = used_lap;

  // Morsel-parallel harness for the scan / join / aggregate phases. Pool
  // width 1 (ClusterOptions::exec_threads = 1 or EON_EXEC_THREADS=1) runs
  // everything inline on this thread.
  ExecParallel par(cluster->exec_pool());

  // --- Scan (left side), with join key riding along if needed. ---
  std::vector<std::string> left_extras;
  if (spec.join) left_extras.push_back(spec.join->left_key);
  for (const std::string& g : spec.group_by) left_extras.push_back(g);
  for (const AggSpec& a : spec.aggregates) {
    if (!a.column.empty()) left_extras.push_back(a.column);
  }
  // Extras that belong to the right table are resolved there instead.
  if (spec.join) {
    const TableDef* left_table = snapshot->FindTableByName(spec.scan.table);
    if (left_table == nullptr) {
      return Status::NotFound("no such table: " + spec.scan.table);
    }
    std::vector<std::string> filtered;
    for (const std::string& name : left_extras) {
      if (left_table->schema.IndexOf(name).ok()) filtered.push_back(name);
    }
    left_extras = std::move(filtered);
  }
  if (left_extras.empty() && spec.scan.columns.empty() &&
      !spec.aggregates.empty()) {
    // A bare COUNT(*) (no predicate, no other select item) references no
    // columns at all, but row counts come from column data — ride the
    // first schema column along so the scan actually produces rows.
    const TableDef* left_table = snapshot->FindTableByName(spec.scan.table);
    if (left_table != nullptr && left_table->schema.num_columns() > 0) {
      left_extras.push_back(left_table->schema.column(0).name);
    }
  }
  plan_scope.End();

  // Cache / shared-storage baselines: the query is charged the delta over
  // its participating nodes' caches and the shared store.
  auto cache_totals = [&]() {
    CacheStats sum;
    for (Oid n : guard.nodes) {
      Node* node = cluster->node(n);
      if (node == nullptr) continue;
      CacheStats s = node->cache()->stats();
      sum.hits += s.hits;
      sum.misses += s.misses;
      sum.bytes_hit += s.bytes_hit;
      sum.bytes_filled += s.bytes_filled;
      sum.prefetch_issued += s.prefetch_issued;
      sum.prefetch_useful += s.prefetch_useful;
      sum.prefetch_wasted += s.prefetch_wasted;
      sum.prefetch_coalesced += s.prefetch_coalesced;
    }
    return sum;
  };
  const CacheStats cache_before = cache_totals();
  const ObjectStoreMetrics store_before = cluster->shared_storage()->metrics();

  // Aggregate pushdown is offered to the scan only when the fold's inputs
  // are exactly the scanned rows: no join to run in between, and no
  // crunch fan-out (hash-filter would need a post-scan row filter the
  // store-side fold has already consumed).
  const QuerySpec* agg_push =
      (!spec.join && context.crunch == CrunchMode::kNone &&
       !spec.aggregates.empty())
          ? &spec
          : nullptr;
  PhaseScope scan_scope(cluster->clock(), &profile, obs::QueryPhase::kScan);
  EON_ASSIGN_OR_RETURN(NodeChunks data,
                       ScanDistributed(cluster, context, *snapshot, spec.scan,
                                       left_extras, agg_push, &profile, &par));
  scan_scope.End();

  if (spec.join) {
    // Group columns the left scan lacks ride along on the right.
    std::vector<std::string> right_extras = {spec.join->right_key};
    const TableDef* rt = snapshot->FindTableByName(spec.join->right.table);
    for (const std::string& g : spec.group_by) {
      if (rt != nullptr && rt->schema.IndexOf(g).ok() &&
          !data.schema.IndexOf(g).ok()) {
        right_extras.push_back(g);
      }
    }
    PhaseScope right_scan_scope(cluster->clock(), &profile,
                                obs::QueryPhase::kScan);
    EON_ASSIGN_OR_RETURN(
        NodeChunks right,
        ScanDistributed(cluster, context, *snapshot, spec.join->right,
                        right_extras, /*agg_push=*/nullptr, &profile, &par));
    right_scan_scope.End();
    PhaseScope join_scope(cluster->clock(), &profile, obs::QueryPhase::kJoin);
    EON_ASSIGN_OR_RETURN(data, JoinByNode(std::move(data), std::move(right),
                                          *spec.join, coord->oid(), &par,
                                          &profile));
  }

  QueryResult result;
  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    PhaseScope agg_scope(cluster->clock(), &profile,
                         obs::QueryPhase::kAggregate);
    // Local when the grouping keys include the column the data is
    // segmented by: every group's rows live on one node (Section 4).
    const bool local =
        !data.segmented_by.empty() &&
        std::find(spec.group_by.begin(), spec.group_by.end(),
                  data.segmented_by) != spec.group_by.end();
    EON_RETURN_IF_ERROR(
        AggregateByNode(&data, spec, local, &par, &profile, &result));
  } else {
    PhaseScope gather_scope(cluster->clock(), &profile,
                            obs::QueryPhase::kMerge);
    Gather(std::move(data), coord->oid(), &profile, &result);
  }

  PhaseScope merge_scope(cluster->clock(), &profile, obs::QueryPhase::kMerge);
  EON_RETURN_IF_ERROR(OrderAndLimit(spec, &result));
  merge_scope.End();

  // Close out the profile: cache and shared-storage activity as deltas
  // over the query.
  profile.exec_kernel_isa = simd::IsaName(simd::ActiveIsa());
  const CacheStats cache_after = cache_totals();
  profile.cache_hits = cache_after.hits - cache_before.hits;
  profile.cache_misses = cache_after.misses - cache_before.misses;
  profile.cache_bytes_hit = cache_after.bytes_hit - cache_before.bytes_hit;
  profile.cache_fill_bytes =
      cache_after.bytes_filled - cache_before.bytes_filled;
  profile.prefetch_issued =
      cache_after.prefetch_issued - cache_before.prefetch_issued;
  profile.prefetch_useful =
      cache_after.prefetch_useful - cache_before.prefetch_useful;
  profile.prefetch_wasted =
      cache_after.prefetch_wasted - cache_before.prefetch_wasted;
  profile.prefetch_coalesced =
      cache_after.prefetch_coalesced - cache_before.prefetch_coalesced;
  const ObjectStoreMetrics store_after = cluster->shared_storage()->metrics();
  profile.store_gets = store_after.gets - store_before.gets;
  profile.store_puts = store_after.puts - store_before.puts;
  profile.store_lists = store_after.lists - store_before.lists;
  profile.store_scans = store_after.scans - store_before.scans;
  profile.store_bytes_read = store_after.bytes_read - store_before.bytes_read;
  profile.store_cost_microdollars =
      store_after.cost_microdollars - store_before.cost_microdollars;
  par.Flush(&profile);
  query_scope.reset();
  query_span.End();

  // Registry-level query instruments for exported snapshots.
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("eon_queries_total")->Increment();
  reg->GetHistogram("eon_query_sim_micros")
      ->Observe(static_cast<double>(profile.TotalSimMicros()));

  profile.queued_micros = context.queued_micros;
  profile.resource_pool = context.resource_pool;
  result.profile = std::move(profile);
  result.catalog_version = snapshot->version;

  // Every completed user query lands in the coordinator's Data Collector
  // (the dc_query_executions system table). RecordQuery applies the
  // slow-query threshold: fast queries keep the scalar rollup only, slow
  // ones retain the full per-phase profile.
  static std::atomic<uint64_t> query_seq{0};
  obs::DcQueryExecution dc_event;
  dc_event.query_id = query_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  dc_event.table = original_spec.scan.table;
  dc_event.sim_micros = result.profile.TotalSimMicros();
  dc_event.wall_micros = result.profile.TotalWallMicros();
  dc_event.rows_out = result.rows.size();
  dc_event.rows_scanned = result.profile.rows_scanned_total;
  dc_event.cache_hits = result.profile.cache_hits;
  dc_event.cache_misses = result.profile.cache_misses;
  dc_event.store_gets = result.profile.store_gets;
  dc_event.cost_microdollars = result.profile.store_cost_microdollars;
  dc_event.queued_micros = context.queued_micros;
  dc_event.pool = context.resource_pool;
  dc_event.trace_id = result.profile.trace_id;
  dc_event.profile = result.profile;
  coord->dc()->RecordQuery(std::move(dc_event));
  // When this call minted its own trace, retention is decided here; a
  // caller-minted trace is finished by that caller (serving layer).
  own_scope.reset();
  if (own_trace.active()) own_trace.Finish(result.profile);
  return result;
}

}  // namespace eon
