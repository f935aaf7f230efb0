// Ablation (Section 2.1): live aggregate projections "can be used to
// dramatically speed up query performance for a variety of aggregation,
// top-K, and distinct operations" in exchange for restrictions on base
// table updates.
//
// Compares the dashboard-style aggregation with and without a live
// aggregate projection, across dataset sizes: rows visited and measured
// runtime.

#include "bench/bench_util.h"
#include "engine/ddl.h"
#include "engine/session.h"

namespace eon {
namespace bench {
namespace {

int Run() {
  printf("# Ablation: live aggregate projection vs base-table aggregation\n");
  printf("%-12s %14s %14s %12s %12s %10s\n", "base_rows", "base_visited",
         "lap_visited", "base_ms", "lap_ms", "speedup");

  for (double scale : {0.5, 1.0, 2.0, 4.0}) {
    auto fixture = MakeEonFixture(3, 3, scale);
    if (fixture == nullptr) return 1;

    // The recurring dashboard aggregation: revenue by ship mode.
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_shipmode", "l_extendedprice"};
    q.group_by = {"l_shipmode"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_extendedprice", "rev"},
                    {AggFn::kMax, "l_extendedprice", "peak"}};
    q.order_by = "l_shipmode";

    EonSession session(fixture->cluster.get());
    (void)session.Execute(q);  // Warm caches.
    uint64_t base_visited = 0;
    MeasuredMicros base = Measure(&fixture->clock, [&] {
      auto r = session.Execute(q);
      if (r.ok()) base_visited = r->profile.exec_rows_visited;
    });

    auto lap = CreateLiveAggregateProjection(
        fixture->cluster.get(), "lineitem", "lineitem_by_mode",
        {"l_shipmode"},
        {{AggFn::kCount, ""},
         {AggFn::kSum, "l_extendedprice"},
         {AggFn::kMax, "l_extendedprice"}});
    if (!lap.ok()) {
      fprintf(stderr, "lap create failed: %s\n",
              lap.status().ToString().c_str());
      return 1;
    }
    (void)session.Execute(q);  // Warm the LAP path.
    uint64_t lap_visited = 0;
    bool used_lap = false;
    MeasuredMicros fast = Measure(&fixture->clock, [&] {
      auto r = session.Execute(q);
      if (r.ok()) {
        lap_visited = r->profile.exec_rows_visited;
        used_lap = r->profile.used_live_aggregate;
      }
    });
    if (!used_lap) {
      fprintf(stderr, "rewrite did not engage\n");
      return 1;
    }

    printf("%-12zu %14llu %14llu %12.2f %12.2f %9.1fx\n",
           fixture->data.lineitems.size(),
           static_cast<unsigned long long>(base_visited),
           static_cast<unsigned long long>(lap_visited), base.total_ms(),
           fast.total_ms(),
           fast.total() > 0
               ? static_cast<double>(base.total()) /
                     static_cast<double>(fast.total())
               : 0.0);
  }
  printf("# shape check: LAP rows visited stay ~constant (one partial per "
         "group per container) while base scans grow with the data\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace eon

int main() { return eon::bench::Run(); }
