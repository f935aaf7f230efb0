// Micro-benchmark: async prefetch pipeline — cold-cache scan wall time at
// read-ahead depth {0,1,2,4,8} × I/O pool width {1,2,4}.
//
// Runs on a WALL clock with a 1 ms simulated store GET latency (the
// SimObjectStore sleeps), so overlap is directly visible: at depth 0 a
// serial scan pays one GET per morsel back to back, while with read-ahead
// the I/O pool fetches the next morsels' containers during the current
// morsel's compute. exec_threads is pinned to 1 — the measurement
// isolates fetch/compute overlap, not morsel parallelism (that is
// micro_parallel_scan's job).
//
// Shape checks (exit 2 on failure):
//  - cold speedup at depth 4 / io 4 vs depth 0  >= 2x
//  - fully-warm scan regression at depth 4      <= 2% (small absolute
//    slack for scheduler noise on loaded CI boxes)
//  - the depth-4 cold run's prefetches are useful (> 0) and bounded
//    wasted (<= 50% of issued)
// Emits BENCH_prefetch.json plus metrics/systables sidecars.

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "engine/dml.h"
#include "engine/executor.h"

namespace eon {
namespace {

constexpr int kDepths[] = {0, 1, 2, 4, 8};
constexpr int kIoThreads[] = {1, 2, 4};
constexpr int kColdRepeats = 2;
constexpr int kWarmRepeats = 7;
constexpr double kScale = 0.2;
constexpr int kLoadBatches = 8;
constexpr int64_t kGetLatencyMicros = 1000;

/// Like bench::EonFixture but on a wall clock: simulated store latency is
/// real elapsed time, so prefetch overlap shows up in wall measurements.
struct WallFixture {
  WallClock clock;
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<EonCluster> cluster;
};

std::unique_ptr<WallFixture> MakeFixture(int io_threads, int depth,
                                         const TpchData& data,
                                         int pushdown = 0) {
  auto f = std::make_unique<WallFixture>();
  SimStoreOptions sopts;
  sopts.get_latency_micros = kGetLatencyMicros;
  sopts.put_latency_micros = 0;
  sopts.list_latency_micros = 0;
  sopts.scan_latency_micros = 0;
  f->store = std::make_unique<SimObjectStore>(sopts, &f->clock);

  ClusterOptions copts;
  copts.num_shards = 2;
  copts.k_safety = 1;
  copts.exec_threads = 1;  // Isolate fetch overlap from morsel parallelism.
  copts.io_threads = io_threads;
  copts.prefetch_depth = depth;
  copts.pushdown = pushdown;
  copts.node.cache.capacity_bytes = 1ULL << 30;
  auto cluster = EonCluster::Create(f->store.get(), &f->clock, copts,
                                    {NodeSpec{"node1", ""}});
  if (!cluster.ok()) {
    fprintf(stderr, "cluster create failed: %s\n",
            cluster.status().ToString().c_str());
    return nullptr;
  }
  f->cluster = std::move(cluster).value();
  if (!CreateTpchTables(f->cluster.get()).ok()) return nullptr;

  // Load in batches; lineitem is date-partitioned, so each batch commits
  // one container per (shard, partition) — thousands of small containers,
  // i.e. thousands of morsels each fetching one container object (one GET).
  CopyOptions opts;
  opts.rows_per_block = 512;
  const std::vector<Row>& rows = data.lineitems;
  const size_t per = (rows.size() + kLoadBatches - 1) / kLoadBatches;
  for (size_t begin = 0; begin < rows.size(); begin += per) {
    const size_t end = std::min(begin + per, rows.size());
    std::vector<Row> batch(rows.begin() + begin, rows.begin() + end);
    if (!CopyInto(f->cluster.get(), "lineitem", batch, opts).ok()) {
      fprintf(stderr, "load failed\n");
      return nullptr;
    }
  }
  return f;
}

struct RunResult {
  int io_threads = 0;
  int depth = 0;
  int64_t cold_wall_micros = 0;
  int64_t warm_wall_micros = 0;
  int64_t fetch_wait_micros = 0;  ///< Of the best cold run.
  uint64_t issued = 0;
  uint64_t useful = 0;
  uint64_t wasted = 0;
  uint64_t coalesced = 0;
};

void ClearAllCaches(EonCluster* cluster) {
  for (const auto& node : cluster->nodes()) node->cache()->Clear();
}

}  // namespace
}  // namespace eon

int main() {
  using namespace eon;

  TpchOptions topts;
  topts.scale = kScale;
  const TpchData data = GenerateTpch(topts);

  // One column, no predicate: each morsel fetches its container object,
  // so the scan's store traffic is one 2 ms GET per container.
  QuerySpec query;
  query.scan.table = "lineitem";
  query.scan.columns = {"l_quantity"};

  printf("# Async prefetch pipeline: cold scan wall time, read-ahead depth "
         "x I/O pool width\n");
  printf("# %zu lineitem rows in %d date-partitioned load batches, %lld us "
         "GET latency, exec_threads=1, host has %u CPU(s)\n",
         data.lineitems.size(), kLoadBatches,
         static_cast<long long>(kGetLatencyMicros),
         std::thread::hardware_concurrency());
  printf("%6s %6s %12s %12s %10s %8s %8s %8s %10s\n", "io", "depth",
         "cold_ms", "warm_ms", "speedup", "issued", "useful", "wasted",
         "wait_ms");

  std::vector<RunResult> results;
  double speedup_d4_io4 = 0;
  int64_t warm_d0 = 0, warm_d4 = 0;
  uint64_t gate_issued = 0, gate_useful = 0, gate_wasted = 0;

  for (int io_threads : kIoThreads) {
    int64_t cold_depth0 = 0;
    for (int depth : kDepths) {
      auto f = MakeFixture(io_threads, depth, data);
      if (f == nullptr) return 1;
      auto ctx = BuildExecContext(f->cluster.get(), "", /*variation_seed=*/1);
      if (!ctx.ok()) return 1;

      RunResult r;
      r.io_threads = io_threads;
      r.depth = depth;
      // Cold: empty caches each round; best of kColdRepeats (min wall).
      for (int rep = 0; rep < kColdRepeats; ++rep) {
        ClearAllCaches(f->cluster.get());
        const int64_t wall0 = bench::WallMicros();
        auto result = ExecuteQuery(f->cluster.get(), query, *ctx);
        const int64_t wall = bench::WallMicros() - wall0;
        if (!result.ok()) {
          fprintf(stderr, "query failed: %s\n",
                  result.status().ToString().c_str());
          return 1;
        }
        if (r.cold_wall_micros == 0 || wall < r.cold_wall_micros) {
          r.cold_wall_micros = wall;
          r.fetch_wait_micros = result->profile.exec_fetch_wait_micros;
          r.issued = result->profile.prefetch_issued;
          r.useful = result->profile.prefetch_useful;
          r.wasted = result->profile.prefetch_wasted;
          r.coalesced = result->profile.prefetch_coalesced;
        }
      }
      // Warm: everything resident; best of kWarmRepeats. Read-ahead must
      // cost ~nothing here — every request is suppressed as resident.
      for (int rep = 0; rep < kWarmRepeats; ++rep) {
        const int64_t wall0 = bench::WallMicros();
        auto result = ExecuteQuery(f->cluster.get(), query, *ctx);
        const int64_t wall = bench::WallMicros() - wall0;
        if (!result.ok()) return 1;
        if (r.warm_wall_micros == 0 || wall < r.warm_wall_micros) {
          r.warm_wall_micros = wall;
        }
      }

      if (depth == 0) cold_depth0 = r.cold_wall_micros;
      const double speedup =
          r.cold_wall_micros > 0
              ? static_cast<double>(cold_depth0) /
                    static_cast<double>(r.cold_wall_micros)
              : 1.0;
      if (io_threads == 4 && depth == 4) {
        speedup_d4_io4 = speedup;
        warm_d4 = r.warm_wall_micros;
        gate_issued = r.issued;
        gate_useful = r.useful;
        gate_wasted = r.wasted;
      }
      if (io_threads == 4 && depth == 0) warm_d0 = r.warm_wall_micros;

      printf("%6d %6d %12.3f %12.3f %9.2fx %8llu %8llu %8llu %10.3f\n",
             io_threads, depth,
             static_cast<double>(r.cold_wall_micros) / 1000.0,
             static_cast<double>(r.warm_wall_micros) / 1000.0, speedup,
             static_cast<unsigned long long>(r.issued),
             static_cast<unsigned long long>(r.useful),
             static_cast<unsigned long long>(r.wasted),
             static_cast<double>(r.fetch_wait_micros) / 1000.0);
      results.push_back(r);
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::Str("prefetch"));
  out.Set("host_cpus", JsonValue::Int(std::thread::hardware_concurrency()));
  out.Set("get_latency_micros", JsonValue::Int(kGetLatencyMicros));
  out.Set("exec_threads", JsonValue::Int(1));
  out.Set("lineitem_rows",
          JsonValue::Int(static_cast<int64_t>(data.lineitems.size())));
  JsonValue arr = JsonValue::Array();
  for (const RunResult& r : results) {
    int64_t base = 0;
    for (const RunResult& s : results) {
      if (s.io_threads == r.io_threads && s.depth == 0) {
        base = s.cold_wall_micros;
      }
    }
    JsonValue e = JsonValue::Object();
    e.Set("io_threads", JsonValue::Int(r.io_threads));
    e.Set("prefetch_depth", JsonValue::Int(r.depth));
    e.Set("cold_wall_micros", JsonValue::Int(r.cold_wall_micros));
    e.Set("warm_wall_micros", JsonValue::Int(r.warm_wall_micros));
    e.Set("cold_speedup_vs_depth0",
          JsonValue::Double(r.cold_wall_micros > 0
                                ? static_cast<double>(base) /
                                      static_cast<double>(r.cold_wall_micros)
                                : 1.0));
    e.Set("fetch_wait_micros", JsonValue::Int(r.fetch_wait_micros));
    JsonValue pf = JsonValue::Object();
    pf.Set("issued", JsonValue::Int(static_cast<int64_t>(r.issued)));
    pf.Set("useful", JsonValue::Int(static_cast<int64_t>(r.useful)));
    pf.Set("wasted", JsonValue::Int(static_cast<int64_t>(r.wasted)));
    pf.Set("coalesced", JsonValue::Int(static_cast<int64_t>(r.coalesced)));
    e.Set("prefetch", std::move(pf));
    arr.Append(std::move(e));
  }
  out.Set("results", std::move(arr));

  // Pushdown interaction: a morsel the planner pushes into the object
  // store never materializes container objects locally, so read-ahead
  // for it is pure waste — the executor must not issue ANY prefetch for
  // pushed morsels. Forced pushdown + a predicate pushes every morsel: a cold
  // scan must report zero prefetches issued at depth 4.
  uint64_t pushed_issued = 0, pushed_containers = 0;
  {
    auto f = MakeFixture(/*io_threads=*/4, /*depth=*/4, data, /*pushdown=*/2);
    if (f == nullptr) return 1;
    auto ctx = BuildExecContext(f->cluster.get(), "", /*variation_seed=*/1);
    if (!ctx.ok()) return 1;
    QuerySpec pushed_query = query;
    const auto qcol = TpchLineitemSchema().IndexOf("l_quantity");
    if (!qcol.ok()) return 1;
    pushed_query.scan.predicate =
        Predicate::Cmp(*qcol, CmpOp::kLt, Value::Int(10));
    ClearAllCaches(f->cluster.get());
    auto result = ExecuteQuery(f->cluster.get(), pushed_query, *ctx);
    if (!result.ok()) {
      fprintf(stderr, "pushed query failed: %s\n",
              result.status().ToString().c_str());
      return 1;
    }
    pushed_issued = result->profile.prefetch_issued;
    pushed_containers = result->profile.pushdown_containers_pushed;
  }

  // Shape checks.
  const bool speedup_ok = speedup_d4_io4 >= 2.0;
  // 2% warm budget with a 1 ms absolute floor: warm scans take a few ms,
  // so pure percentages would gate on scheduler noise.
  const bool warm_ok = warm_d4 <= warm_d0 + std::max<int64_t>(warm_d0 / 50,
                                                              1000);
  const bool useful_ok = gate_useful > 0;
  const bool wasted_ok = gate_wasted * 2 <= gate_issued;
  const bool pushed_ok = pushed_containers > 0 && pushed_issued == 0;
  JsonValue gates = JsonValue::Object();
  gates.Set("cold_speedup_depth4_io4", JsonValue::Double(speedup_d4_io4));
  gates.Set("warm_depth0_micros", JsonValue::Int(warm_d0));
  gates.Set("warm_depth4_micros", JsonValue::Int(warm_d4));
  gates.Set("useful_prefetches",
            JsonValue::Int(static_cast<int64_t>(gate_useful)));
  gates.Set("wasted_prefetches",
            JsonValue::Int(static_cast<int64_t>(gate_wasted)));
  gates.Set("pushed_containers",
            JsonValue::Int(static_cast<int64_t>(pushed_containers)));
  gates.Set("pushed_prefetches_issued",
            JsonValue::Int(static_cast<int64_t>(pushed_issued)));
  gates.Set("pass", JsonValue::Bool(speedup_ok && warm_ok && useful_ok &&
                                    wasted_ok && pushed_ok));
  out.Set("gates", std::move(gates));

  FILE* fp = fopen("BENCH_prefetch.json", "w");
  if (fp != nullptr) {
    const std::string text = out.Dump();
    fwrite(text.data(), 1, text.size(), fp);
    fclose(fp);
    fprintf(stderr, "wrote BENCH_prefetch.json\n");
  }
  bench::DumpBenchSidecars("BENCH_prefetch", nullptr);

  printf("# shape check: %.2fx cold speedup at depth 4 / io 4 (target >= "
         "2x); warm %.3f ms vs %.3f ms at depth 0 (budget 2%% + 1 ms); "
         "%llu useful / %llu wasted of %llu issued\n",
         speedup_d4_io4, static_cast<double>(warm_d4) / 1000.0,
         static_cast<double>(warm_d0) / 1000.0,
         static_cast<unsigned long long>(gate_useful),
         static_cast<unsigned long long>(gate_wasted),
         static_cast<unsigned long long>(gate_issued));
  printf("# pushdown: %llu containers pushed, %llu prefetches issued "
         "(target 0 — pushed morsels bypass read-ahead)\n",
         static_cast<unsigned long long>(pushed_containers),
         static_cast<unsigned long long>(pushed_issued));
  if (!speedup_ok) fprintf(stderr, "FAIL: cold speedup below 2x\n");
  if (!warm_ok) fprintf(stderr, "FAIL: warm-scan regression over budget\n");
  if (!useful_ok) fprintf(stderr, "FAIL: no useful prefetches\n");
  if (!wasted_ok) fprintf(stderr, "FAIL: wasted > 50%% of issued\n");
  if (!pushed_ok) {
    fprintf(stderr, "FAIL: pushed morsels issued prefetches (or none "
                    "pushed)\n");
  }
  return (speedup_ok && warm_ok && useful_ok && wasted_ok && pushed_ok) ? 0
                                                                        : 2;
}
