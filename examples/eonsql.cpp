// eonsql: a vsql-style interactive prompt over an Eon cluster preloaded
// with the TPC-H-style sample data. Since the serving layer landed,
// eonsql is a real wire client: it starts an EonServer over the cluster
// and speaks the framed JSON protocol through an in-process connection,
// so every query goes session -> admission (slot reservation) ->
// execution, exactly like external clients on the loopback listener.
//
//   ./build/examples/eonsql            # interactive
//   echo "SELECT ..." | ./build/examples/eonsql   # scripted
//
// Meta commands:
//   \tables            list tables
//   \dt+               list user AND system tables with row counts
//   \projections <t>   list projections of a table
//   \nodes             node status + cache stats
//   \sessions          live serving sessions (system_sessions)
//   \pools             admission resource pools (system_resource_pools)
//   \set <key> <v>     session option: crunch / pool / trace
//   \storage           shared-storage metrics
//   \profile           full profile of the last query (phases, cache, $)
//   \trace [id]        latency attribution of a traced query + Chrome
//                      trace-event JSON dump (trace_<id>.json, loadable
//                      in chrome://tracing or Perfetto). `\set trace on`
//                      forces tracing for every query on this session;
//                      otherwise slow queries (and an EON_TRACE_SAMPLE
//                      fraction) are traced. The footer prints each
//                      traced query's id; spans are also plain SQL via
//                      SELECT ... FROM dc_trace_spans WHERE trace_id = N.
//   \metrics           Prometheus-text dump of all registry instruments
//   \kill <node>       stop a node (queries keep working)
//   \restart <node>    recover a node
//   \q                 quit
//
// System tables are plain SQL targets: `SELECT name, state FROM
// system_subscriptions`, `SELECT node, SUM(cost) FROM dc_store_requests
// GROUP BY node`, etc. The dc_query_executions ring keeps the full
// per-phase profile for queries at or above the slow-query threshold
// (EON_SLOW_QUERY_MICROS sim-µs, default 10000); its queued_micros /
// pool columns record each query's admission wait. EON_EXEC_SLOTS sets
// the per-node slot budget E (default 4).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cluster/cluster.h"
#include "engine/sql.h"
#include "engine/system_tables.h"
#include "obs/export.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

using namespace eon;

namespace {

void ListTables(const CatalogState& state) {
  printf(" %-24s %-8s %-10s\n", "table", "columns", "rows");
  for (const auto& [oid, t] : state.tables) {
    uint64_t rows = 0;
    for (const ProjectionDef* p : state.ProjectionsOf(t.oid)) {
      if (p->columns.size() != t.schema.num_columns()) continue;
      for (const StorageContainerMeta* c : state.ContainersOf(p->oid)) {
        rows += c->row_count;
      }
      break;
    }
    printf(" %-24s %-8zu %-10llu%s\n", t.name.c_str(),
           t.schema.num_columns(), static_cast<unsigned long long>(rows),
           t.is_live_aggregate() ? "  (live aggregate)"
                                 : (t.is_flattened() ? "  (flattened)" : ""));
  }
}

void ListProjections(const CatalogState& state, const std::string& table) {
  const TableDef* t = state.FindTableByName(table);
  if (t == nullptr) {
    printf("no such table: %s\n", table.c_str());
    return;
  }
  for (const ProjectionDef* p : state.ProjectionsOf(t->oid)) {
    std::string seg = p->replicated() ? "replicated" : "HASH(";
    if (!p->replicated()) {
      for (size_t i = 0; i < p->segmentation_columns.size(); ++i) {
        if (i) seg += ", ";
        seg += t->schema.column(p->columns[p->segmentation_columns[i]]).name;
      }
      seg += ")";
    }
    size_t containers = state.ContainersOf(p->oid).size();
    printf(" %-28s %-24s %zu containers\n", p->name.c_str(), seg.c_str(),
           containers);
  }
}

void ListAllTables(EonCluster* cluster, const CatalogState& state) {
  printf("user tables:\n");
  ListTables(state);
  printf("\nsystem tables (SELECT directly, e.g. SELECT name, state FROM "
         "system_subscriptions):\n");
  printf(" %-28s %-8s %-10s\n", "table", "columns", "rows");
  for (const std::string& name : SystemTableNames()) {
    const Schema* schema = SystemTableSchema(name);
    auto rows = MaterializeSystemTable(cluster, name);
    printf(" %-28s %-8zu %-10zu\n", name.c_str(), schema->num_columns(),
           rows.ok() ? rows->size() : 0);
  }
}

void ShowNodes(EonCluster* cluster) {
  printf(" %-10s %-6s %-12s %-10s %-10s\n", "node", "state", "subcluster",
         "cache_mb", "hit_rate");
  for (const auto& n : cluster->nodes()) {
    CacheStats cs = n->cache()->stats();
    printf(" %-10s %-6s %-12s %-10.1f %5.0f%%\n", n->name().c_str(),
           n->is_up() ? "UP" : "DOWN",
           n->subcluster().empty() ? "-" : n->subcluster().c_str(),
           static_cast<double>(n->cache()->size_bytes()) / 1e6,
           100 * cs.HitRate());
  }
}

/// Print a wire result through the same table formatter direct results
/// use (the schema and rows round-trip the wire bit-for-bit).
void PrintWireResult(const WireQueryResult& wire) {
  QueryResult shim;
  shim.schema = wire.schema;
  shim.rows = wire.rows;
  fputs(FormatResult(shim).c_str(), stdout);
}

/// Trace id of the most recent traced query (0 = none); `\trace` with no
/// argument exports this one.
uint64_t g_last_trace_id = 0;

/// Run a query over the wire and print it; used by SQL input and the
/// system-table meta commands alike.
void QueryAndPrint(EonClient* client, const std::string& sql,
                   bool footer = false) {
  auto result = client->Query(sql);
  if (!result.ok()) {
    printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  PrintWireResult(*result);
  if (result->trace_id != 0) g_last_trace_id = result->trace_id;
  if (footer) {
    printf("-- %llu nodes, %llu rows scanned, %llu rows shuffled, pool %s, "
           "queued %.3f ms",
           static_cast<unsigned long long>(result->participating_nodes),
           static_cast<unsigned long long>(result->rows_scanned),
           static_cast<unsigned long long>(result->rows_shuffled),
           result->pool.empty() ? "-" : result->pool.c_str(),
           static_cast<double>(result->queued_micros) / 1000.0);
    if (result->trace_id != 0) {
      printf(", trace %llu (\\trace)",
             static_cast<unsigned long long>(result->trace_id));
    }
    printf("\n\n");
  }
}

/// `\trace [id]`: fetch the span tree over the wire, print the latency
/// attribution, and dump the Chrome trace-event JSON to trace_<id>.json.
void ShowTrace(EonClient* client, const std::string& arg) {
  uint64_t trace_id = g_last_trace_id;
  if (!arg.empty()) trace_id = strtoull(arg.c_str(), nullptr, 10);
  if (trace_id == 0) {
    printf("no traced query yet — `\\set trace on` forces tracing, or pass "
           "an id from dc_trace_spans / dc_query_executions\n");
    return;
  }
  auto json = client->Trace(trace_id);
  if (!json.ok()) {
    printf("%s\n", json.status().ToString().c_str());
    return;
  }
  const JsonValue& attr = json->Get("attribution");
  printf("trace %llu: %zu spans\n",
         static_cast<unsigned long long>(trace_id),
         json->Get("traceEvents").size());
  const char* kBuckets[] = {"wall_micros",      "queued_micros",
                            "plan_micros",      "fetch_wait_micros",
                            "scan_cpu_micros",  "join_micros",
                            "aggregate_micros", "merge_micros",
                            "serialize_micros", "other_micros"};
  for (const char* key : kBuckets) {
    const int64_t v = attr.Get(key).int_value();
    if (v == 0 && std::string(key) != "wall_micros") continue;
    printf("  %-18s %10.3f ms\n", key, static_cast<double>(v) / 1000.0);
  }
  const JsonValue& path = attr.Get("critical_path");
  if (path.size() > 0) {
    printf("  critical path:     ");
    for (size_t i = 0; i < path.size(); ++i) {
      printf("%s%s", i ? " -> " : "", path.at(i).string_value().c_str());
    }
    printf("\n");
  }
  const std::string file = "trace_" + std::to_string(trace_id) + ".json";
  FILE* fp = fopen(file.c_str(), "w");
  if (fp != nullptr) {
    const std::string text = json->Dump();
    fwrite(text.data(), 1, text.size(), fp);
    fclose(fp);
    printf("  wrote %s (chrome://tracing / Perfetto; validate with "
           "scripts/trace_view.sh)\n",
           file.c_str());
  }
}

}  // namespace

int main() {
  SimClock clock;
  SimObjectStore shared_storage(SimStoreOptions{}, &clock);
  ClusterOptions options;
  options.num_shards = 3;
  auto cluster = EonCluster::Create(&shared_storage, &clock, options,
                                    {NodeSpec{"node1", ""},
                                     NodeSpec{"node2", ""},
                                     NodeSpec{"node3", ""},
                                     NodeSpec{"node4", ""}});
  if (!cluster.ok()) {
    fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 1;
  }
  TpchOptions topts;
  topts.scale = 0.2;
  if (!CreateTpchTables(cluster->get()).ok() ||
      !LoadTpch(cluster->get(), GenerateTpch(topts)).ok()) {
    fprintf(stderr, "sample data load failed\n");
    return 1;
  }

  // The serving layer: admission on with the default pool; EON_EXEC_SLOTS
  // controls the per-node slot budget.
  EonServer server(cluster->get());
  EonClient client(server.ConnectInProcess());
  auto hello = client.Hello();
  if (!hello.ok()) {
    fprintf(stderr, "hello failed: %s\n", hello.status().ToString().c_str());
    return 1;
  }

  printf("eonsql — 4 nodes, 3 shards, TPC-H-style sample loaded.\n");
  printf("Serving through EonServer: session %llu, %d nodes x %d exec "
         "slots.\n",
         static_cast<unsigned long long>(client.session_id()),
         client.server_num_nodes(), client.server_slots_per_node());
  printf("Try: SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY "
         "l_returnflag ORDER BY l_returnflag;\n");
  printf("Meta: \\tables \\dt+ \\projections <t> \\nodes \\sessions "
         "\\pools \\set <k> <v> \\storage \\profile \\trace [id] \\metrics "
         "\\kill <n> \\restart <n> \\q\n");
  printf("Tracing: \\set trace on, run a query, then \\trace — or SELECT "
         "... FROM dc_trace_spans WHERE trace_id = <id>.\n");
  printf("System tables: SELECT ... FROM system_subscriptions / "
         "system_resource_pools / system_sessions / dc_query_executions "
         "...\n\n");

  std::string line;
  while (true) {
    printf("eon=> ");
    fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '\\') {
      std::string cmd = line.substr(1);
      std::string arg;
      size_t space = cmd.find(' ');
      if (space != std::string::npos) {
        arg = cmd.substr(space + 1);
        cmd = cmd.substr(0, space);
      }
      auto snapshot = (*cluster)->AnyUpNode()->catalog()->snapshot();
      if (cmd == "q" || cmd == "quit") break;
      if (cmd == "tables") {
        ListTables(*snapshot);
      } else if (cmd == "dt+" || cmd == "dt") {
        ListAllTables(cluster->get(), *snapshot);
      } else if (cmd == "projections") {
        ListProjections(*snapshot, arg);
      } else if (cmd == "nodes") {
        ShowNodes(cluster->get());
      } else if (cmd == "sessions") {
        QueryAndPrint(&client,
                      "SELECT session_id, connected_node, pool, crunch, "
                      "state, queries, prepared_statements "
                      "FROM system_sessions");
      } else if (cmd == "pools") {
        QueryAndPrint(&client,
                      "SELECT pool, priority, slot_budget, slots_in_use, "
                      "queue_depth, admitted, shed, timed_out "
                      "FROM system_resource_pools");
      } else if (cmd == "set") {
        std::string key = arg;
        std::string value;
        size_t kv = key.find(' ');
        if (kv != std::string::npos) {
          value = key.substr(kv + 1);
          key = key.substr(0, kv);
        }
        Status s = client.Set(key, value);
        printf("%s\n", s.ok() ? "SET" : s.ToString().c_str());
      } else if (cmd == "storage") {
        ObjectStoreMetrics m = shared_storage.metrics();
        printf(" puts=%llu gets=%llu written=%.2fMB read=%.2fMB cost=$%.6f\n",
               static_cast<unsigned long long>(m.puts),
               static_cast<unsigned long long>(m.gets),
               static_cast<double>(m.bytes_written) / 1e6,
               static_cast<double>(m.bytes_read) / 1e6,
               static_cast<double>(m.cost_microdollars) / 1e6);
      } else if (cmd == "trace") {
        ShowTrace(&client, arg);
      } else if (cmd == "profile") {
        auto text = client.ProfileText();
        if (!text.ok()) {
          printf("%s\n", text.status().ToString().c_str());
        } else {
          fputs(text->c_str(), stdout);
        }
      } else if (cmd == "metrics") {
        fputs(obs::ExportPrometheusText(
                  obs::MetricsRegistry::Default()->Snapshot())
                  .c_str(),
              stdout);
      } else if (cmd == "kill") {
        Node* n = (*cluster)->node_by_name(arg);
        if (n == nullptr) {
          printf("no such node\n");
        } else {
          Status s = (*cluster)->KillNode(n->oid());
          printf("%s\n", s.ok() ? "node down; shards stay available"
                                : s.ToString().c_str());
        }
      } else if (cmd == "restart") {
        Node* n = (*cluster)->node_by_name(arg);
        if (n == nullptr) {
          printf("no such node\n");
        } else {
          Status s = (*cluster)->RestartNode(n->oid());
          printf("%s\n", s.ok() ? "node recovered (re-subscribed, cache "
                                  "warmed from peer)"
                                : s.ToString().c_str());
        }
      } else {
        printf("unknown meta command: \\%s\n", cmd.c_str());
      }
      continue;
    }

    QueryAndPrint(&client, line, /*footer=*/true);
  }
  (void)client.Bye();
  printf("\nbye\n");
  return 0;
}
