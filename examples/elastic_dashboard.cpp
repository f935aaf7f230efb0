// Subcluster workload isolation + elasticity (paper Sections 4.3, 6.4):
// an "etl" subcluster loads data while a "dash" subcluster serves
// dashboard queries; sessions connected to a subcluster stay inside it;
// crunch scaling puts extra nodes to work on a single heavy query.
//
//   ./build/examples/elastic_dashboard

#include <cstdio>

#include "cluster/cluster.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

using namespace eon;

int main() {
  SimClock clock;
  SimObjectStore shared_storage(SimStoreOptions{}, &clock);

  // Two subclusters of three nodes each; the subscription planner makes
  // each subcluster independently cover all shards.
  ClusterOptions options;
  options.num_shards = 3;
  options.k_safety = 2;
  auto cluster = EonCluster::Create(
      &shared_storage, &clock, options,
      {NodeSpec{"etl1", "etl"}, NodeSpec{"etl2", "etl"},
       NodeSpec{"etl3", "etl"}, NodeSpec{"dash1", "dash"},
       NodeSpec{"dash2", "dash"}, NodeSpec{"dash3", "dash"}});
  if (!cluster.ok()) return 1;

  TpchOptions topts;
  topts.scale = 0.3;
  if (!CreateTpchTables(cluster->get()).ok()) return 1;
  if (!LoadTpch(cluster->get(), GenerateTpch(topts)).ok()) return 1;

  // A session connected to dash1 runs only on the dash subcluster.
  EonSession dash_session(cluster->get(), "dash1");
  QuerySpec query = DashboardQuery(topts);
  auto result = dash_session.Execute(query);
  if (!result.ok()) {
    fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  printf("dashboard session: %zu groups from %zu participating nodes\n",
         result->rows.size(),
         static_cast<size_t>(result->profile.participating_nodes));

  // Verify isolation: rerun and inspect which nodes served the shards.
  auto context = BuildExecContext(cluster->get(), "dash1", 42);
  if (!context.ok()) return 1;
  printf("participating nodes for a dash1 session:");
  for (Oid node : context->participation.Nodes()) {
    printf(" %s", (*cluster)->node(node)->name().c_str());
  }
  printf("  (workload stays inside the dash subcluster)\n");

  // Kill the whole dash subcluster except one node: the planner keeps the
  // workload inside as long as shards stay covered, and only then lets it
  // escape to the etl nodes.
  (void)(*cluster)->KillNode((*cluster)->node_by_name("dash2")->oid());
  (void)(*cluster)->KillNode((*cluster)->node_by_name("dash3")->oid());
  context = BuildExecContext(cluster->get(), "dash1", 43);
  if (!context.ok()) return 1;
  printf("after killing dash2+dash3, participants:");
  bool escaped = false;
  for (Oid node : context->participation.Nodes()) {
    const Node* n = (*cluster)->node(node);
    printf(" %s", n->name().c_str());
    if (n->subcluster() != "dash") escaped = true;
  }
  printf("  (%s)\n", escaped
                         ? "escaped to etl — dash1 alone cannot cover all "
                           "shards"
                         : "still isolated");

  // Bring the nodes back and use crunch scaling: with 6 nodes over 3
  // shards, two nodes collectively serve each shard for a heavy query.
  (void)(*cluster)->RestartNode((*cluster)->node_by_name("dash2")->oid());
  (void)(*cluster)->RestartNode((*cluster)->node_by_name("dash3")->oid());
  EonSession heavy(cluster->get());
  heavy.set_crunch_mode(CrunchMode::kHashFilter);
  QuerySpec scan_heavy;
  scan_heavy.scan.table = "lineitem";
  scan_heavy.scan.columns = {"l_orderkey", "l_extendedprice"};
  scan_heavy.group_by = {"l_orderkey"};
  scan_heavy.aggregates = {{AggFn::kSum, "l_extendedprice", "rev"}};
  scan_heavy.order_by = "rev";
  scan_heavy.order_desc = true;
  scan_heavy.limit = 3;
  auto heavy_result = heavy.Execute(scan_heavy);
  if (!heavy_result.ok()) return 1;
  printf("\ncrunch-scaled top orders by revenue "
         "(hash-filter split, locality preserved: %s):\n",
         heavy_result->profile.local_group_by ? "yes" : "no");
  for (const Row& row : heavy_result->rows) {
    printf("  order %lld: %.2f\n",
           static_cast<long long>(row[0].int_value()), row[1].dbl_value());
  }
  return 0;
}
