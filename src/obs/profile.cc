#include "obs/profile.h"

#include <cstdio>

namespace eon {
namespace obs {

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kPlan:
      return "plan";
    case QueryPhase::kScan:
      return "scan";
    case QueryPhase::kJoin:
      return "join";
    case QueryPhase::kAggregate:
      return "aggregate";
    case QueryPhase::kMerge:
      return "merge";
  }
  return "unknown";
}

int64_t QueryProfile::TotalSimMicros() const {
  int64_t total = 0;
  for (const PhaseTiming& t : phase) total += t.sim_micros;
  return total;
}

int64_t QueryProfile::TotalWallMicros() const {
  int64_t total = 0;
  for (const PhaseTiming& t : phase) total += t.wall_micros;
  return total;
}

JsonValue QueryProfile::ToJson() const {
  JsonValue out = JsonValue::Object();

  JsonValue phases = JsonValue::Object();
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    JsonValue p = JsonValue::Object();
    p.Set("sim_micros", JsonValue::Int(phase[i].sim_micros));
    p.Set("wall_micros", JsonValue::Int(phase[i].wall_micros));
    phases.Set(QueryPhaseName(static_cast<QueryPhase>(i)), std::move(p));
  }
  out.Set("phases", std::move(phases));
  out.Set("total_sim_micros", JsonValue::Int(TotalSimMicros()));
  out.Set("total_wall_micros", JsonValue::Int(TotalWallMicros()));

  JsonValue nodes = JsonValue::Object();
  for (const auto& [oid, rows] : rows_scanned_by_node) {
    nodes.Set(std::to_string(oid), JsonValue::Int(static_cast<int64_t>(rows)));
  }
  out.Set("rows_scanned_by_node", std::move(nodes));
  out.Set("rows_scanned_total",
          JsonValue::Int(static_cast<int64_t>(rows_scanned_total)));

  JsonValue scan = JsonValue::Object();
  scan.Set("containers_total",
           JsonValue::Int(static_cast<int64_t>(containers_total)));
  scan.Set("containers_pruned",
           JsonValue::Int(static_cast<int64_t>(containers_pruned)));
  out.Set("pruning", std::move(scan));

  JsonValue cache = JsonValue::Object();
  cache.Set("hits", JsonValue::Int(static_cast<int64_t>(cache_hits)));
  cache.Set("misses", JsonValue::Int(static_cast<int64_t>(cache_misses)));
  cache.Set("bytes_hit",
            JsonValue::Int(static_cast<int64_t>(cache_bytes_hit)));
  cache.Set("fill_bytes",
            JsonValue::Int(static_cast<int64_t>(cache_fill_bytes)));
  cache.Set("hit_rate", JsonValue::Double(CacheHitRate()));
  out.Set("cache", std::move(cache));

  JsonValue store = JsonValue::Object();
  store.Set("gets", JsonValue::Int(static_cast<int64_t>(store_gets)));
  store.Set("puts", JsonValue::Int(static_cast<int64_t>(store_puts)));
  store.Set("lists", JsonValue::Int(static_cast<int64_t>(store_lists)));
  store.Set("scans", JsonValue::Int(static_cast<int64_t>(store_scans)));
  store.Set("bytes_read",
            JsonValue::Int(static_cast<int64_t>(store_bytes_read)));
  store.Set("cost_microdollars",
            JsonValue::Int(static_cast<int64_t>(store_cost_microdollars)));
  out.Set("object_store", std::move(store));

  JsonValue pushdown = JsonValue::Object();
  pushdown.Set("containers_pushed",
               JsonValue::Int(static_cast<int64_t>(pushdown_containers_pushed)));
  pushdown.Set("containers_local",
               JsonValue::Int(static_cast<int64_t>(pushdown_containers_local)));
  pushdown.Set("response_bytes",
               JsonValue::Int(static_cast<int64_t>(pushdown_response_bytes)));
  pushdown.Set(
      "store_bytes_scanned",
      JsonValue::Int(static_cast<int64_t>(pushdown_store_bytes_scanned)));
  pushdown.Set(
      "store_rows_filtered",
      JsonValue::Int(static_cast<int64_t>(pushdown_store_rows_filtered)));
  pushdown.Set("bytes_saved",
               JsonValue::Int(static_cast<int64_t>(pushdown_bytes_saved)));
  pushdown.Set("aggregates_pushed", JsonValue::Bool(pushdown_aggregates));
  out.Set("pushdown", std::move(pushdown));

  JsonValue wal = JsonValue::Object();
  wal.Set("records_appended",
          JsonValue::Int(static_cast<int64_t>(wal_records_appended)));
  wal.Set("rows", JsonValue::Int(static_cast<int64_t>(wal_rows)));
  wal.Set("group_size", JsonValue::Int(static_cast<int64_t>(wal_group_size)));
  wal.Set("commit_wait_micros", JsonValue::Int(wal_commit_wait_micros));
  wal.Set("led_group", JsonValue::Bool(wal_led_group));
  out.Set("wal", std::move(wal));

  out.Set("trace_id", JsonValue::Int(static_cast<int64_t>(trace_id)));
  out.Set("network_bytes",
          JsonValue::Int(static_cast<int64_t>(network_bytes)));
  out.Set("rows_shuffled",
          JsonValue::Int(static_cast<int64_t>(rows_shuffled)));
  out.Set("participating_nodes",
          JsonValue::Int(static_cast<int64_t>(participating_nodes)));

  JsonValue exec = JsonValue::Object();
  exec.Set("threads", JsonValue::Int(static_cast<int64_t>(exec_threads)));
  exec.Set("tasks", JsonValue::Int(static_cast<int64_t>(exec_tasks)));
  exec.Set("task_cpu_micros", JsonValue::Int(exec_task_cpu_micros));
  exec.Set("critical_cpu_micros", JsonValue::Int(exec_critical_cpu_micros));
  exec.Set("parallelism", JsonValue::Double(Parallelism()));
  exec.Set("values_decoded",
           JsonValue::Int(static_cast<int64_t>(exec_values_decoded)));
  exec.Set("fetch_wait_micros", JsonValue::Int(exec_fetch_wait_micros));
  exec.Set("values_unpacked",
           JsonValue::Int(static_cast<int64_t>(exec_values_unpacked)));
  exec.Set("kernel_calls",
           JsonValue::Int(static_cast<int64_t>(exec_kernel_calls)));
  exec.Set("kernel_isa", JsonValue::Str(exec_kernel_isa));
  JsonValue prefetch = JsonValue::Object();
  prefetch.Set("issued", JsonValue::Int(static_cast<int64_t>(prefetch_issued)));
  prefetch.Set("useful", JsonValue::Int(static_cast<int64_t>(prefetch_useful)));
  prefetch.Set("wasted", JsonValue::Int(static_cast<int64_t>(prefetch_wasted)));
  prefetch.Set("coalesced",
               JsonValue::Int(static_cast<int64_t>(prefetch_coalesced)));
  exec.Set("prefetch", std::move(prefetch));
  out.Set("exec", std::move(exec));
  return out;
}

std::string QueryProfile::ToText() const {
  char buf[256];
  std::string out;
  out += "query profile\n";
  out += " phase         sim_ms    wall_ms\n";
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    snprintf(buf, sizeof(buf), " %-10s %9.3f %10.3f\n",
             QueryPhaseName(static_cast<QueryPhase>(i)),
             static_cast<double>(phase[i].sim_micros) / 1000.0,
             static_cast<double>(phase[i].wall_micros) / 1000.0);
    out += buf;
  }
  snprintf(buf, sizeof(buf), " %-10s %9.3f %10.3f\n", "TOTAL",
           static_cast<double>(TotalSimMicros()) / 1000.0,
           static_cast<double>(TotalWallMicros()) / 1000.0);
  out += buf;

  if (!resource_pool.empty()) {
    snprintf(buf, sizeof(buf), " admission: pool %s, queued %.3f ms\n",
             resource_pool.c_str(),
             static_cast<double>(queued_micros) / 1000.0);
    out += buf;
  }
  if (trace_id != 0) {
    snprintf(buf, sizeof(buf), " trace: id %llu (dc_trace_spans)\n",
             static_cast<unsigned long long>(trace_id));
    out += buf;
  }
  snprintf(buf, sizeof(buf),
           " scan: %llu rows on %llu nodes; containers %llu/%llu pruned\n",
           static_cast<unsigned long long>(rows_scanned_total),
           static_cast<unsigned long long>(participating_nodes),
           static_cast<unsigned long long>(containers_pruned),
           static_cast<unsigned long long>(containers_total));
  out += buf;
  for (const auto& [oid, rows] : rows_scanned_by_node) {
    snprintf(buf, sizeof(buf), "   node %llu: %llu rows\n",
             static_cast<unsigned long long>(oid),
             static_cast<unsigned long long>(rows));
    out += buf;
  }
  snprintf(buf, sizeof(buf),
           " cache: %llu hits / %llu misses (%.0f%%), %.2f MB hit, "
           "%.2f MB filled\n",
           static_cast<unsigned long long>(cache_hits),
           static_cast<unsigned long long>(cache_misses),
           100 * CacheHitRate(), static_cast<double>(cache_bytes_hit) / 1e6,
           static_cast<double>(cache_fill_bytes) / 1e6);
  out += buf;
  snprintf(buf, sizeof(buf),
           " s3: %llu GET, %llu PUT, %llu LIST, %llu SCAN, %.2f MB read, "
           "cost $%.6f\n",
           static_cast<unsigned long long>(store_gets),
           static_cast<unsigned long long>(store_puts),
           static_cast<unsigned long long>(store_lists),
           static_cast<unsigned long long>(store_scans),
           static_cast<double>(store_bytes_read) / 1e6,
           static_cast<double>(store_cost_microdollars) / 1e6);
  out += buf;
  if (pushdown_containers_pushed > 0) {
    snprintf(buf, sizeof(buf),
             " pushdown: %llu/%llu containers pushed%s; %.2f MB returned, "
             "%.2f MB scanned in-store, %llu rows filtered, ~%.2f MB saved\n",
             static_cast<unsigned long long>(pushdown_containers_pushed),
             static_cast<unsigned long long>(pushdown_containers_pushed +
                                             pushdown_containers_local),
             pushdown_aggregates ? " (aggregates)" : "",
             static_cast<double>(pushdown_response_bytes) / 1e6,
             static_cast<double>(pushdown_store_bytes_scanned) / 1e6,
             static_cast<unsigned long long>(pushdown_store_rows_filtered),
             static_cast<double>(pushdown_bytes_saved) / 1e6);
    out += buf;
  }
  if (wal_records_appended > 0) {
    snprintf(buf, sizeof(buf),
             " wal: %llu records (%llu rows), group of %llu%s, "
             "%.3f ms commit wait\n",
             static_cast<unsigned long long>(wal_records_appended),
             static_cast<unsigned long long>(wal_rows),
             static_cast<unsigned long long>(wal_group_size),
             wal_led_group ? " (led)" : "",
             static_cast<double>(wal_commit_wait_micros) / 1000.0);
    out += buf;
  }
  snprintf(buf, sizeof(buf), " network: %.2f MB, %llu rows shuffled\n",
           static_cast<double>(network_bytes) / 1e6,
           static_cast<unsigned long long>(rows_shuffled));
  out += buf;
  snprintf(buf, sizeof(buf),
           " exec: %.2fx parallelism (%llu tasks on %llu threads, "
           "%.3f ms cpu, %.3f ms critical)\n",
           Parallelism(), static_cast<unsigned long long>(exec_tasks),
           static_cast<unsigned long long>(exec_threads),
           static_cast<double>(exec_task_cpu_micros) / 1000.0,
           static_cast<double>(exec_critical_cpu_micros) / 1000.0);
  out += buf;
  snprintf(buf, sizeof(buf),
           " decode: %llu values decoded\n",
           static_cast<unsigned long long>(exec_values_decoded));
  out += buf;
  snprintf(buf, sizeof(buf),
           " kernels: %llu calls (%s), %llu values unpacked\n",
           static_cast<unsigned long long>(exec_kernel_calls),
           exec_kernel_isa.empty() ? "?" : exec_kernel_isa.c_str(),
           static_cast<unsigned long long>(exec_values_unpacked));
  out += buf;
  snprintf(buf, sizeof(buf),
           " prefetch: %llu issued, %llu useful, %llu wasted, "
           "%llu coalesced; %.3f ms fetch wait\n",
           static_cast<unsigned long long>(prefetch_issued),
           static_cast<unsigned long long>(prefetch_useful),
           static_cast<unsigned long long>(prefetch_wasted),
           static_cast<unsigned long long>(prefetch_coalesced),
           static_cast<double>(exec_fetch_wait_micros) / 1000.0);
  out += buf;
  return out;
}

}  // namespace obs
}  // namespace eon
