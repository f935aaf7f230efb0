#include "engine/system_tables.h"

#include <fstream>
#include <map>
#include <mutex>
#include <utility>

#include "cluster/cluster.h"
#include "obs/dc.h"
#include "obs/metrics.h"

namespace eon {

namespace {

Value I(int64_t v) { return Value::Int(v); }
Value U(uint64_t v) { return Value::Int(static_cast<int64_t>(v)); }
Value S(std::string s) { return Value::Str(std::move(s)); }
Value D(double v) { return Value::Dbl(v); }

ColumnDef Col(const char* name, DataType type) {
  ColumnDef c;
  c.name = name;
  c.type = type;
  return c;
}

/// name -> schema, built once. Column ORDER here is the row layout
/// MaterializeSystemTable emits, so keep the two in sync.
const std::map<std::string, Schema>& Registry() {
  static const std::map<std::string, Schema>* kTables = [] {
    const DataType kI = DataType::kInt64;
    const DataType kD = DataType::kDouble;
    const DataType kS = DataType::kString;
    auto* m = new std::map<std::string, Schema>;
    (*m)["dc_query_executions"] = Schema({
        Col("node", kS), Col("query_id", kI), Col("table", kS),
        Col("at_micros", kI), Col("sim_micros", kI), Col("wall_micros", kI),
        Col("rows_out", kI), Col("rows_scanned", kI), Col("cache_hits", kI),
        Col("cache_misses", kI), Col("store_gets", kI), Col("cost", kI),
        Col("slow", kI), Col("plan_sim_micros", kI), Col("scan_sim_micros", kI),
        Col("join_sim_micros", kI), Col("aggregate_sim_micros", kI),
        Col("merge_sim_micros", kI), Col("queued_micros", kI),
        Col("pool", kS), Col("trace_id", kI)});
    (*m)["dc_cache_events"] = Schema({
        Col("node", kS), Col("at_micros", kI), Col("kind", kS),
        Col("key", kS), Col("bytes", kI)});
    (*m)["dc_store_requests"] = Schema({
        Col("store", kS), Col("node", kS), Col("at_micros", kI),
        Col("op", kS), Col("key", kS), Col("bytes", kI),
        Col("latency_micros", kI), Col("cost", kI), Col("ok", kI),
        Col("origin", kS), Col("bytes_scanned", kI), Col("trace_id", kI)});
    (*m)["dc_trace_spans"] = Schema({
        Col("node", kS), Col("trace_id", kI), Col("span_id", kI),
        Col("parent_id", kI), Col("name", kS), Col("start_micros", kI),
        Col("end_micros", kI), Col("duration_micros", kI),
        Col("attributes", kS)});
    (*m)["dc_mergeout_events"] = Schema({
        Col("node", kS), Col("at_micros", kI), Col("projection", kS),
        Col("shard", kI), Col("inputs", kI), Col("rows_written", kI),
        Col("stratum", kI), Col("sim_micros", kI)});
    (*m)["dc_subscription_events"] = Schema({
        Col("node", kS), Col("at_micros", kI), Col("shard", kI),
        Col("from_state", kS), Col("to_state", kS), Col("reason", kS)});
    (*m)["dc_wal_events"] = Schema({
        Col("node", kS), Col("at_micros", kI), Col("kind", kS),
        Col("table", kS), Col("lsn", kI), Col("records", kI),
        Col("bytes", kI), Col("wait_micros", kI)});
    (*m)["system_nodes"] = Schema({
        Col("name", kS), Col("oid", kI), Col("subcluster", kS),
        Col("state", kS), Col("cache_bytes", kI), Col("cache_files", kI),
        Col("subscriptions", kI)});
    (*m)["system_subscriptions"] = Schema({
        Col("name", kS), Col("node_oid", kI), Col("shard", kI),
        Col("state", kS)});
    (*m)["system_cache"] = Schema({
        Col("node", kS), Col("capacity_bytes", kI), Col("size_bytes", kI),
        Col("files", kI), Col("pinned_refs", kI), Col("hits", kI),
        Col("misses", kI), Col("bytes_hit", kI), Col("bytes_filled", kI),
        Col("insertions", kI), Col("evictions", kI), Col("coalesced", kI),
        Col("prefetch_issued", kI), Col("prefetch_useful", kI),
        Col("prefetch_wasted", kI), Col("prefetch_coalesced", kI),
        Col("prefetch_rejected", kI)});
    (*m)["system_storage_containers"] = Schema({
        Col("table", kS), Col("projection", kS), Col("shard", kI),
        Col("container_oid", kI), Col("base_key", kS), Col("rows", kI),
        Col("bytes", kI), Col("stratum", kI), Col("create_version", kI)});
    (*m)["system_metrics"] = Schema({
        Col("name", kS), Col("labels", kS), Col("kind", kS),
        Col("value", kD), Col("count", kI), Col("p50", kD), Col("p95", kD),
        Col("p99", kD)});
    (*m)["system_resource_pools"] = Schema({
        Col("pool", kS), Col("priority", kI), Col("slot_budget", kI),
        Col("slots_in_use", kI), Col("memory_budget_bytes", kI),
        Col("memory_in_use_bytes", kI), Col("queue_depth", kI),
        Col("max_queue_depth", kI), Col("queue_timeout_micros", kI),
        Col("admitted", kI), Col("shed", kI), Col("timed_out", kI),
        Col("cancelled", kI), Col("queued_micros_total", kI)});
    (*m)["system_sessions"] = Schema({
        Col("session_id", kI), Col("connected_node", kS), Col("pool", kS),
        Col("crunch", kS), Col("state", kS),
        Col("queries", kI), Col("prepared_statements", kI)});
    (*m)["system_wos"] = Schema({
        Col("node", kS), Col("table", kS), Col("table_oid", kI),
        Col("batches", kI), Col("rows", kI), Col("unflushed_rows", kI),
        Col("flushed_batches", kI), Col("tombstoned_rows", kI),
        Col("bytes", kI), Col("min_lsn", kI), Col("max_lsn", kI)});
    return m;
  }();
  return *kTables;
}

/// Every Data Collector with events relevant to this cluster: each node's
/// (down nodes keep their history) plus the process-wide default, which
/// unowned components (shared object stores) record into.
std::vector<const obs::DataCollector*> Collectors(EonCluster* cluster) {
  std::vector<const obs::DataCollector*> out;
  if (cluster != nullptr) {
    for (const auto& node : cluster->nodes()) out.push_back(node->dc());
  }
  out.push_back(obs::DataCollector::Default());
  return out;
}

/// Best catalog snapshot available: any up node, else any node that still
/// has a catalog (kills retain local state), else null.
std::shared_ptr<const CatalogState> BestSnapshot(EonCluster* cluster) {
  if (cluster == nullptr) return nullptr;
  Node* coord = cluster->AnyUpNode();
  if (coord != nullptr) return coord->catalog()->snapshot();
  for (const auto& node : cluster->nodes()) {
    if (node->catalog() != nullptr) return node->catalog()->snapshot();
  }
  return nullptr;
}

std::string NodeNameFor(EonCluster* cluster, Oid oid) {
  Node* n = cluster == nullptr ? nullptr : cluster->node(oid);
  return n != nullptr ? n->name() : ("node" + std::to_string(oid));
}

std::vector<Row> QueryExecutionRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::DcQueryExecution& e : dc->QueryExecutions()) {
      const obs::QueryProfile& p = e.profile;
      rows.push_back(Row{
          S(e.node), U(e.query_id), S(e.table), I(e.at_micros),
          I(e.sim_micros), I(e.wall_micros), U(e.rows_out), U(e.rows_scanned),
          U(e.cache_hits), U(e.cache_misses), U(e.store_gets),
          U(e.cost_microdollars), I(e.slow ? 1 : 0),
          I(p.Phase(obs::QueryPhase::kPlan).sim_micros),
          I(p.Phase(obs::QueryPhase::kScan).sim_micros),
          I(p.Phase(obs::QueryPhase::kJoin).sim_micros),
          I(p.Phase(obs::QueryPhase::kAggregate).sim_micros),
          I(p.Phase(obs::QueryPhase::kMerge).sim_micros),
          I(e.queued_micros), S(e.pool), U(e.trace_id)});
    }
  }
  return rows;
}

std::vector<Row> CacheEventRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::DcCacheEvent& e : dc->CacheEvents()) {
      rows.push_back(Row{S(e.node), I(e.at_micros),
                         S(obs::DcCacheEventKindName(e.kind)), S(e.key),
                         U(e.bytes)});
    }
  }
  return rows;
}

std::vector<Row> StoreRequestRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::DcStoreRequest& e : dc->StoreRequests()) {
      rows.push_back(Row{S(e.store), S(e.node), I(e.at_micros), S(e.op),
                         S(e.key), U(e.bytes), I(e.latency_micros),
                         U(e.cost_microdollars), I(e.ok ? 1 : 0),
                         S(e.origin), U(e.bytes_scanned), U(e.trace_id)});
    }
  }
  return rows;
}

std::vector<Row> TraceSpanRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::SpanData& s : dc->TraceSpans()) {
      // Attributes flatten to "k=v,k=v" — enough for eyeballing and LIKE
      // filters; the Chrome export keeps them structured.
      std::string attrs;
      for (const auto& [k, v] : s.attributes) {
        if (!attrs.empty()) attrs += ",";
        attrs += k + "=" + v;
      }
      rows.push_back(Row{S(s.node), U(s.trace_id), U(s.id), U(s.parent_id),
                         S(s.name), I(s.start_micros), I(s.end_micros),
                         I(s.DurationMicros()), S(std::move(attrs))});
    }
  }
  return rows;
}

std::vector<Row> MergeoutRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::DcMergeoutEvent& e : dc->MergeoutEvents()) {
      rows.push_back(Row{S(e.node), I(e.at_micros), S(e.projection),
                         U(e.shard), U(e.inputs), U(e.rows_written),
                         U(e.stratum), I(e.sim_micros)});
    }
  }
  return rows;
}

std::vector<Row> SubscriptionEventRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::DcSubscriptionEvent& e : dc->SubscriptionEvents()) {
      rows.push_back(Row{S(e.node), I(e.at_micros), U(e.shard),
                         S(e.from_state), S(e.to_state), S(e.reason)});
    }
  }
  return rows;
}

std::vector<Row> WalEventRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (const obs::DataCollector* dc : Collectors(cluster)) {
    for (const obs::DcWalEvent& e : dc->WalEvents()) {
      rows.push_back(Row{S(e.node), I(e.at_micros), S(e.kind), S(e.table),
                         U(e.lsn), U(e.records), U(e.bytes),
                         I(e.wait_micros)});
    }
  }
  return rows;
}

std::vector<Row> WosRows(EonCluster* cluster) {
  std::vector<Row> rows;
  if (cluster == nullptr) return rows;
  auto snapshot = BestSnapshot(cluster);
  for (const auto& node : cluster->nodes()) {
    if (node->wos() == nullptr) continue;
    for (const WosTableStats& s : node->wos()->SnapshotStats()) {
      const TableDef* table =
          snapshot == nullptr ? nullptr : snapshot->FindTable(s.table_oid);
      rows.push_back(Row{S(node->name()),
                         S(table != nullptr ? table->name : ""),
                         U(s.table_oid), U(s.batches), U(s.rows),
                         U(s.unflushed_rows), U(s.flushed_batches),
                         U(s.tombstoned_rows), U(s.bytes), U(s.min_lsn),
                         U(s.max_lsn)});
    }
  }
  return rows;
}

std::vector<Row> NodeRows(EonCluster* cluster) {
  std::vector<Row> rows;
  if (cluster == nullptr) return rows;
  auto snapshot = BestSnapshot(cluster);
  for (const auto& node : cluster->nodes()) {
    int64_t subs = 0;
    if (snapshot != nullptr) {
      for (const auto& [key, sub] : snapshot->subscriptions) {
        (void)sub;
        if (key.first == node->oid()) subs++;
      }
    }
    rows.push_back(Row{S(node->name()), U(node->oid()), S(node->subcluster()),
                       S(node->is_up() ? "UP" : "DOWN"),
                       U(node->cache()->size_bytes()),
                       U(node->cache()->file_count()), I(subs)});
  }
  return rows;
}

std::vector<Row> SubscriptionRows(EonCluster* cluster) {
  std::vector<Row> rows;
  auto snapshot = BestSnapshot(cluster);
  if (snapshot == nullptr) return rows;
  for (const auto& [key, sub] : snapshot->subscriptions) {
    rows.push_back(Row{S(NodeNameFor(cluster, key.first)), U(key.first),
                       U(key.second), S(SubscriptionStateName(sub.state))});
  }
  return rows;
}

std::vector<Row> CacheRows(EonCluster* cluster) {
  std::vector<Row> rows;
  if (cluster == nullptr) return rows;
  for (const auto& node : cluster->nodes()) {
    const FileCache* cache = node->cache();
    const CacheStats s = cache->stats();
    rows.push_back(Row{S(node->name()), U(cache->capacity_bytes()),
                       U(cache->size_bytes()), U(cache->file_count()),
                       U(cache->pinned_refs()), U(s.hits), U(s.misses),
                       U(s.bytes_hit), U(s.bytes_filled), U(s.insertions),
                       U(s.evictions), U(s.coalesced), U(s.prefetch_issued),
                       U(s.prefetch_useful), U(s.prefetch_wasted),
                       U(s.prefetch_coalesced), U(s.prefetch_rejected)});
  }
  return rows;
}

std::vector<Row> StorageContainerRows(EonCluster* cluster) {
  std::vector<Row> rows;
  if (cluster == nullptr) return rows;
  // Each node's catalog holds only its subscribed shards' containers;
  // union over every node, dedup by container oid, for the global view.
  std::map<Oid, Row> by_oid;
  for (const auto& node : cluster->nodes()) {
    if (node->catalog() == nullptr) continue;
    auto snapshot = node->catalog()->snapshot();
    for (const auto& [oid, c] : snapshot->containers) {
      if (by_oid.count(oid)) continue;
      const ProjectionDef* proj = snapshot->FindProjection(c.projection_oid);
      const TableDef* table =
          proj == nullptr ? nullptr : snapshot->FindTable(proj->table_oid);
      by_oid.emplace(
          oid, Row{S(table != nullptr ? table->name : ""),
                   S(proj != nullptr ? proj->name : ""), U(c.shard), U(c.oid),
                   S(c.base_key), U(c.row_count), U(c.total_bytes),
                   U(c.stratum), U(c.create_version)});
    }
  }
  for (auto& [oid, row] : by_oid) {
    (void)oid;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> MetricsRows(EonCluster* cluster) {
  obs::MetricsRegistry* reg =
      obs::OrDefault(cluster == nullptr ? nullptr : cluster->options().registry);
  const obs::MetricsSnapshot snapshot = reg->Snapshot();
  std::vector<Row> rows;
  for (const obs::MetricSample& s : snapshot.samples) {
    const char* kind = s.kind == obs::MetricSample::Kind::kCounter ? "counter"
                       : s.kind == obs::MetricSample::Kind::kGauge
                           ? "gauge"
                           : "histogram";
    if (s.kind == obs::MetricSample::Kind::kHistogram) {
      rows.push_back(Row{S(s.name), S(s.labels.Key()), S(kind),
                         D(s.histogram.sum), U(s.histogram.count),
                         D(s.histogram.P50()), D(s.histogram.P95()),
                         D(s.histogram.P99())});
    } else {
      rows.push_back(Row{S(s.name), S(s.labels.Key()), S(kind), D(s.value),
                         I(0), D(0), D(0), D(0)});
    }
  }
  return rows;
}

/// Registered serving layers (system_resource_pools / system_sessions row
/// sources). Registration happens at server construction, so the list is
/// tiny; a mutex-guarded vector suffices.
std::mutex& ServingMutex() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::vector<ServingIntrospection*>& ServingSources() {
  static std::vector<ServingIntrospection*>* v =
      new std::vector<ServingIntrospection*>;
  return *v;
}

/// Registered sources fronting `cluster` (all sources when cluster null).
std::vector<ServingIntrospection*> ServingFor(EonCluster* cluster) {
  std::lock_guard<std::mutex> lock(ServingMutex());
  std::vector<ServingIntrospection*> out;
  for (ServingIntrospection* s : ServingSources()) {
    if (cluster == nullptr || s->serving_cluster() == cluster) {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<Row> ResourcePoolRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (ServingIntrospection* s : ServingFor(cluster)) {
    for (Row& row : s->ResourcePoolRows()) rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> SessionRows(EonCluster* cluster) {
  std::vector<Row> rows;
  for (ServingIntrospection* s : ServingFor(cluster)) {
    for (Row& row : s->SessionRows()) rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue ValueToJson(const Value& v) {
  if (v.is_null()) return JsonValue::Null();
  switch (v.type()) {
    case DataType::kInt64:
      return JsonValue::Int(v.int_value());
    case DataType::kDouble:
      return JsonValue::Double(v.dbl_value());
    case DataType::kString:
      return JsonValue::Str(v.str_value());
  }
  return JsonValue::Null();
}

JsonValue CountersJson(const obs::DcRingCounters& c) {
  JsonValue o = JsonValue::Object();
  o.Set("total", JsonValue::Int(static_cast<int64_t>(c.total)));
  o.Set("dropped", JsonValue::Int(static_cast<int64_t>(c.dropped)));
  return o;
}

}  // namespace

bool IsReservedSystemName(const std::string& name) {
  return name.rfind("dc_", 0) == 0 || name.rfind("system_", 0) == 0;
}

const Schema* SystemTableSchema(const std::string& name) {
  const auto& tables = Registry();
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : &it->second;
}

const std::vector<std::string>& SystemTableNames() {
  static const std::vector<std::string>* kNames = [] {
    auto* v = new std::vector<std::string>;
    for (const auto& [name, schema] : Registry()) {
      (void)schema;
      v->push_back(name);
    }
    return v;
  }();
  return *kNames;
}

Result<std::vector<Row>> MaterializeSystemTable(EonCluster* cluster,
                                                const std::string& name) {
  if (name == "dc_query_executions") return QueryExecutionRows(cluster);
  if (name == "dc_cache_events") return CacheEventRows(cluster);
  if (name == "dc_store_requests") return StoreRequestRows(cluster);
  if (name == "dc_trace_spans") return TraceSpanRows(cluster);
  if (name == "dc_mergeout_events") return MergeoutRows(cluster);
  if (name == "dc_subscription_events") return SubscriptionEventRows(cluster);
  if (name == "dc_wal_events") return WalEventRows(cluster);
  if (name == "system_nodes") return NodeRows(cluster);
  if (name == "system_wos") return WosRows(cluster);
  if (name == "system_subscriptions") return SubscriptionRows(cluster);
  if (name == "system_cache") return CacheRows(cluster);
  if (name == "system_storage_containers") return StorageContainerRows(cluster);
  if (name == "system_metrics") return MetricsRows(cluster);
  if (name == "system_resource_pools") return ResourcePoolRows(cluster);
  if (name == "system_sessions") return SessionRows(cluster);
  return Status::NotFound("unknown system table: " + name);
}

void RegisterServingIntrospection(ServingIntrospection* source) {
  if (source == nullptr) return;
  std::lock_guard<std::mutex> lock(ServingMutex());
  auto& sources = ServingSources();
  for (ServingIntrospection* s : sources) {
    if (s == source) return;
  }
  sources.push_back(source);
}

void UnregisterServingIntrospection(ServingIntrospection* source) {
  std::lock_guard<std::mutex> lock(ServingMutex());
  auto& sources = ServingSources();
  for (auto it = sources.begin(); it != sources.end(); ++it) {
    if (*it == source) {
      sources.erase(it);
      return;
    }
  }
}

namespace obs {

JsonValue ExportSystemTables(EonCluster* cluster) {
  JsonValue root = JsonValue::Object();
  for (const std::string& name : SystemTableNames()) {
    const Schema* schema = SystemTableSchema(name);
    Result<std::vector<Row>> rows = MaterializeSystemTable(cluster, name);
    if (!rows.ok()) continue;
    JsonValue table = JsonValue::Object();
    JsonValue columns = JsonValue::Array();
    for (const ColumnDef& col : schema->columns()) {
      columns.Append(JsonValue::Str(col.name));
    }
    JsonValue out_rows = JsonValue::Array();
    for (const Row& row : rows.value()) {
      JsonValue out_row = JsonValue::Array();
      for (const Value& v : row) out_row.Append(ValueToJson(v));
      out_rows.Append(std::move(out_row));
    }
    table.Set("columns", std::move(columns));
    table.Set("rows", std::move(out_rows));
    root.Set(name, std::move(table));
  }

  // Ring honesty counters: snapshots above are recent history, not a
  // complete log, wherever dropped > 0.
  JsonValue counters = JsonValue::Object();
  auto add = [&counters](const std::string& label, const DataCollector* dc) {
    JsonValue per = JsonValue::Object();
    per.Set("queries", CountersJson(dc->query_counters()));
    per.Set("cache_events", CountersJson(dc->cache_counters()));
    per.Set("store_requests", CountersJson(dc->store_counters()));
    per.Set("trace_spans", CountersJson(dc->trace_counters()));
    per.Set("mergeouts", CountersJson(dc->mergeout_counters()));
    per.Set("subscriptions", CountersJson(dc->subscription_counters()));
    per.Set("wal_events", CountersJson(dc->wal_counters()));
    counters.Set(label, std::move(per));
  };
  if (cluster != nullptr) {
    for (const auto& node : cluster->nodes()) add(node->name(), node->dc());
  }
  add("_default", DataCollector::Default());
  root.Set("dc_ring_counters", std::move(counters));
  return root;
}

Status WriteSystemTablesJsonFile(const std::string& path,
                                 EonCluster* cluster) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + path);
  }
  out << ExportSystemTables(cluster).Dump() << "\n";
  out.close();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace obs

}  // namespace eon
