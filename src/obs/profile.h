#ifndef EON_OBS_PROFILE_H_
#define EON_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/json.h"

namespace eon {
namespace obs {

/// Execution phases of one query, in plan order.
enum class QueryPhase : uint8_t {
  kPlan = 0,       ///< Snapshot, LAP rewrite, projection/column resolution.
  kScan = 1,       ///< Distributed container scans (both join sides).
  kJoin = 2,       ///< Local / broadcast / reshuffle join processing.
  kAggregate = 3,  ///< Group-by partials and their merge.
  kMerge = 4,      ///< Initiator-side gather, order, limit.
};
inline constexpr size_t kNumQueryPhases = 5;
const char* QueryPhaseName(QueryPhase phase);

/// Time spent in one phase: simulated time (charged to the cluster Clock
/// by the storage model) and real CPU wall time — the two components of
/// the benches' cost model.
struct PhaseTiming {
  int64_t sim_micros = 0;
  int64_t wall_micros = 0;
};

/// Everything one query cost, attached to its QueryResult (paper Sections
/// 5.2/5.3: operational visibility into cache behavior and per-request S3
/// spend is part of the design).
struct QueryProfile {
  PhaseTiming phase[kNumQueryPhases];

  /// Rows emitted by the scan on each participating node (node oid key):
  /// the skew view participation/crunch decisions are judged by.
  std::map<uint64_t, uint64_t> rows_scanned_by_node;
  uint64_t rows_scanned_total = 0;

  uint64_t containers_total = 0;
  uint64_t containers_pruned = 0;

  // File-cache deltas summed over the participating nodes.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes_hit = 0;
  uint64_t cache_fill_bytes = 0;

  // Shared-storage deltas ("requests cost money", Section 5.3).
  uint64_t store_gets = 0;
  uint64_t store_puts = 0;
  uint64_t store_lists = 0;
  uint64_t store_scans = 0;  ///< Near-data ScanObject requests.
  uint64_t store_bytes_read = 0;
  uint64_t store_cost_microdollars = 0;

  // Near-data processing (predicate/aggregate pushdown): how many scan
  // morsels the planner pushed into the object store vs ran locally, and
  // what the pushed scans moved / filtered / saved.
  uint64_t pushdown_containers_pushed = 0;
  uint64_t pushdown_containers_local = 0;
  uint64_t pushdown_response_bytes = 0;
  uint64_t pushdown_store_bytes_scanned = 0;  ///< Read next to the data.
  uint64_t pushdown_store_rows_filtered = 0;  ///< Dropped before the wire.
  uint64_t pushdown_bytes_saved = 0;  ///< Estimated cold bytes avoided.
  bool pushdown_aggregates = false;   ///< Partials computed store-side.

  // Ingest fast path (WAL + WOS): filled by INSERT statements that ran
  // through the write-optimized store instead of direct-ROS COPY.
  uint64_t wal_records_appended = 0;  ///< Log records this statement wrote.
  uint64_t wal_rows = 0;              ///< Rows absorbed by the memtable.
  uint64_t wal_group_size = 0;  ///< Records in the group that carried us.
  int64_t wal_commit_wait_micros = 0;  ///< Group-commit wait (durability).
  bool wal_led_group = false;  ///< This statement was the flush leader.

  uint64_t network_bytes = 0;  ///< Shuffled / merged across nodes.
  uint64_t rows_shuffled = 0;
  uint64_t participating_nodes = 0;

  // Planner locality choices (Section 4): the join / group-by ran without
  // moving rows, and the optimizer answered from a live aggregate
  // projection (Section 2.1).
  bool local_join = true;
  bool local_group_by = true;
  bool used_live_aggregate = false;

  /// Admission-control wait before execution began and the resource pool
  /// that admitted the query (0 / "" when it bypassed the serving layer).
  int64_t queued_micros = 0;
  std::string resource_pool;

  /// Distributed-trace id labeling this query's spans (0 = untraced).
  /// Join key into dc_trace_spans and the `\trace` wire op.
  uint64_t trace_id = 0;

  // Morsel-parallel execution (cluster exec pool). Task CPU is measured
  // with the per-thread CPU clock, so these stay meaningful even when
  // workers oversubscribe the machine's cores.
  uint64_t exec_threads = 1;  ///< Pool width the query executed with.
  uint64_t exec_tasks = 0;    ///< Scan morsels + per-node join/agg tasks.
  int64_t exec_task_cpu_micros = 0;  ///< Sum of task CPU over all lanes.
  /// Busiest lane's CPU: the parallel phases' critical path. Equals
  /// exec_task_cpu_micros when exec_threads == 1.
  int64_t exec_critical_cpu_micros = 0;
  /// Rows the container scans visited, before predicates and delete
  /// vectors (RosScanStats::rows_visited rollup); rows_scanned_total
  /// counts the rows the scans emitted.
  uint64_t exec_rows_visited = 0;
  /// Late-materialization decode counter (RosScanStats rollup): values
  /// parsed or materialized during scans.
  uint64_t exec_values_decoded = 0;
  /// Time scan lanes spent blocked on async container fetches
  /// (RosScanStats::fetch_wait_micros rollup): the part of the store
  /// latency the prefetch pipeline did NOT manage to hide.
  int64_t exec_fetch_wait_micros = 0;
  /// Bit-packed values actually unpacked during scans (block screening
  /// and whole-block skipping keep this below the row count).
  uint64_t exec_values_unpacked = 0;
  /// Vectorized kernel invocations (compare / fold / hash dispatches).
  uint64_t exec_kernel_calls = 0;
  /// Instruction set the kernel dispatcher routed to (scalar / sse4.2 /
  /// avx2 / neon).
  std::string exec_kernel_isa;

  // Prefetch pipeline deltas over the participating nodes' caches:
  // speculative fetches issued / later read by a demand fetch / evicted
  // or dropped unread / suppressed because the key was already resident
  // or in flight.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_useful = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t prefetch_coalesced = 0;

  /// Effective speedup of the parallel sections (`exec.parallelism`):
  /// total task CPU over the critical path. 1.0 = serial; approaches
  /// exec_threads under perfect morsel load balance.
  double Parallelism() const {
    if (exec_critical_cpu_micros <= 0 || exec_task_cpu_micros <= 0) {
      return 1.0;
    }
    return static_cast<double>(exec_task_cpu_micros) /
           static_cast<double>(exec_critical_cpu_micros);
  }

  int64_t TotalSimMicros() const;
  int64_t TotalWallMicros() const;
  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }

  PhaseTiming& Phase(QueryPhase p) { return phase[static_cast<size_t>(p)]; }
  const PhaseTiming& Phase(QueryPhase p) const {
    return phase[static_cast<size_t>(p)];
  }

  JsonValue ToJson() const;
  /// Multi-line human-readable report (the eonsql \profile output).
  std::string ToText() const;
};

}  // namespace obs
}  // namespace eon

#endif  // EON_OBS_PROFILE_H_
