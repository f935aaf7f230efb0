// Quickstart: bring up an Eon cluster on (simulated) shared storage,
// create a table with projections, load data, query it, and watch the
// cluster keep serving through a node failure.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"

using namespace eon;

int main() {
  // 1. Shared storage: an S3-like object store with a latency/cost model.
  SimClock clock;
  SimStoreOptions storage_options;  // Defaults approximate in-region S3.
  SimObjectStore shared_storage(storage_options, &clock);

  // 2. A 4-node cluster over 3 segment shards, each shard subscribed by 2
  //    nodes (k-safety).
  ClusterOptions options;
  options.num_shards = 3;
  options.k_safety = 2;
  auto cluster = EonCluster::Create(
      &shared_storage, &clock, options,
      {NodeSpec{"node1", ""}, NodeSpec{"node2", ""}, NodeSpec{"node3", ""},
       NodeSpec{"node4", ""}});
  if (!cluster.ok()) {
    fprintf(stderr, "create failed: %s\n", cluster.status().ToString().c_str());
    return 1;
  }
  printf("cluster up: %zu nodes, %u shards, incarnation %s\n",
         (*cluster)->nodes().size(), (*cluster)->sharding().num_segment_shards,
         (*cluster)->incarnation().ToHex().substr(0, 8).c_str());

  // 3. The paper's Figure 2 sales table: a superprojection sorted by date
  //    and segmented by HASH(sale_id), plus a (customer, price) projection
  //    segmented by HASH(customer).
  Schema sales({{"sale_id", DataType::kInt64},
                {"customer", DataType::kString},
                {"date", DataType::kInt64},
                {"price", DataType::kDouble}});
  auto table = CreateTable(
      cluster->get(), "sales", sales, std::string("date"),
      {ProjectionSpec{"sales_p1", {}, {"date"}, {"sale_id"}},
       ProjectionSpec{"sales_p2", {"customer", "price"}, {"customer"},
                      {"customer"}}});
  if (!table.ok()) {
    fprintf(stderr, "ddl failed: %s\n", table.status().ToString().c_str());
    return 1;
  }

  // 4. COPY: rows are segmented by shard, written through the cache,
  //    uploaded to shared storage (the commit point) and pushed to peer
  //    subscribers' caches.
  const char* customers[] = {"Grace", "Ada", "Barbara", "Shafi"};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Str(customers[i % 4]),
                       Value::Int(20240101 + i % 30),
                       Value::Dbl(10.0 + static_cast<double>(i % 50))});
  }
  auto version = CopyInto(cluster->get(), "sales", rows);
  if (!version.ok()) {
    fprintf(stderr, "copy failed: %s\n", version.status().ToString().c_str());
    return 1;
  }
  printf("loaded %zu rows, committed at catalog version %llu\n", rows.size(),
         static_cast<unsigned long long>(*version));

  // 5. Query: revenue per customer. The group key matches sales_p2's
  //    segmentation, so the aggregation runs fully locally on each
  //    participating node.
  EonSession session(cluster->get());
  QuerySpec by_customer;
  by_customer.scan.table = "sales";
  by_customer.scan.columns = {"customer", "price"};
  by_customer.group_by = {"customer"};
  by_customer.aggregates = {{AggFn::kSum, "price", "revenue"},
                            {AggFn::kCount, "", "sales"}};
  by_customer.order_by = "revenue";
  by_customer.order_desc = true;

  auto result = session.Execute(by_customer);
  if (!result.ok()) {
    fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  printf("\nrevenue by customer (local group-by: %s, %zu nodes):\n",
         result->profile.local_group_by ? "yes" : "no",
         static_cast<size_t>(result->profile.participating_nodes));
  for (const Row& row : result->rows) {
    printf("  %-10s %10.2f  (%lld sales)\n", row[0].str_value().c_str(),
           row[1].dbl_value(), static_cast<long long>(row[2].int_value()));
  }

  // 6. Kill a node: shards are never down — another subscriber serves its
  //    shards and the query keeps returning the same answer.
  (void)(*cluster)->KillNode(2);
  auto after = session.Execute(by_customer);
  printf("\nafter killing node2: query %s (%zu rows, plan unchanged)\n",
         after.ok() ? "still works" : "FAILED", after.ok() ? after->rows.size() : 0);

  // 7. What did shared storage see?
  ObjectStoreMetrics m = shared_storage.metrics();
  printf("\nshared storage: %llu puts, %llu gets, %.2f MB written, "
         "request cost $%.6f\n",
         static_cast<unsigned long long>(m.puts),
         static_cast<unsigned long long>(m.gets),
         static_cast<double>(m.bytes_written) / 1e6,
         static_cast<double>(m.cost_microdollars) / 1e6);
  return 0;
}
