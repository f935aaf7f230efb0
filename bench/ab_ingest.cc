// A/B: real-time ingest through the WAL + WOS fast path vs direct-ROS
// commits (Eon's COPY path used per-statement).
//
// Matrix: batch size {1, 10, 100} x writers {1, 8} x mode {direct-ROS,
// wos (immediate flush), wos+gc (200 us group-commit window)}. Every run
// inserts the same row budget into a fresh 3-node / 2-shard cluster over
// simulated S3 (default latency model: ~25 ms PUT), all writers pinned
// to one connected node — the fast path's claim is that a trickle of
// small INSERTs costs one log append per group instead of per-statement
// container uploads. Elapsed = wall CPU + SimClock-charged I/O, so the
// object-store round trips the paper attributes to S3 dominate exactly
// where they would in production. After each WOS run, moveout drains the
// memtables and is timed separately (it amortizes over the whole batch).
// Each explicit moveout also reads how long it held the WOS gates (the
// eon_moveout_gate_hold_micros sum before and after, on the same
// SimClock): readers wait only for the commit window, about one PUT.
//
// A second phase measures query latency during ingest: readers run
// aggregates (wall-clock timed; the sim clock is shared with the
// writers' I/O so it cannot attribute per-query time) against the
// wos+gc cluster while 8 writers trickle batches of 10, checking every
// result is a consistent whole-batch prefix.
//
// Shape checks (exit 2 on failure):
//  - at batch 1 x 8 writers, wos+gc ingest throughput >= 10x direct-ROS
//    (the headline: group commit collapses per-statement uploads);
//  - at batch 1 x 1 writer, plain wos >= 1.5x direct-ROS (even without
//    batching, one WAL append beats per-column container uploads);
//  - every run lands exactly the row budget (post-moveout COUNT(*));
//  - every mid-ingest query succeeds and sees a whole-batch prefix
//    (count % batch == 0, monotone per reader);
//  - the median gate hold of the explicit moveouts is at most one PUT
//    latency of the store plus 1 ms.
// Emits BENCH_ingest.json plus metrics/systables sidecars.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "obs/metrics.h"

namespace eon {
namespace {

constexpr int kNodes = 3;
constexpr uint32_t kShards = 2;
constexpr int64_t kRowBudget = 800;
constexpr int kBatches[] = {1, 10, 100};
constexpr int kWriterCounts[] = {1, 8};

struct Mode {
  const char* name;
  int wos;                      ///< ClusterOptions.wos.
  int64_t group_commit_micros;  ///< Ignored when wos == 0.
};
constexpr Mode kModes[] = {
    {"direct", 0, 0},
    {"wos", 1, 0},
    {"wos_gc", 1, 200},
};

struct Bundle {
  SimClock clock;
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<EonCluster> cluster;
};

std::unique_ptr<Bundle> MakeCluster(const Mode& mode) {
  auto b = std::make_unique<Bundle>();
  SimStoreOptions sopts;  // Default latency model approximates S3.
  b->store = std::make_unique<SimObjectStore>(sopts, &b->clock);

  ClusterOptions copts;
  copts.num_shards = kShards;
  copts.k_safety = 2;
  copts.wos = mode.wos;
  copts.group_commit_micros = mode.group_commit_micros;
  copts.wos_flush_rows = int64_t{1} << 40;  // Moveout only when we ask.
  std::vector<NodeSpec> specs;
  for (int i = 1; i <= kNodes; ++i) {
    specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
  }
  auto cluster = EonCluster::Create(b->store.get(), &b->clock, copts, specs);
  if (!cluster.ok()) {
    fprintf(stderr, "cluster create failed: %s\n",
            cluster.status().ToString().c_str());
    return nullptr;
  }
  b->cluster = std::move(cluster).value();

  Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  if (!CreateTable(b->cluster.get(), "t", schema, std::nullopt,
                   {ProjectionSpec{"t_super", {}, {"id"}, {"id"}}})
           .ok()) {
    fprintf(stderr, "create table failed\n");
    return nullptr;
  }
  return b;
}

std::vector<Row> MakeRows(int64_t from, int64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int64_t i = from; i < from + n; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Dbl(static_cast<double>(i) / 2)});
  }
  return rows;
}

Result<int64_t> CountRows(EonCluster* cluster) {
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"id"};
  q.aggregates = {{AggFn::kCount, "", "c"}};
  EonSession session(cluster);
  auto r = session.Execute(q);
  if (!r.ok()) return r.status();
  return r->rows[0][0].int_value();
}

struct RunRecord {
  std::string mode;
  int batch = 0;
  int writers = 0;
  bench::MeasuredMicros ingest;
  bench::MeasuredMicros moveout;  ///< Zero for direct mode.
  double gate_hold_micros = 0;    ///< The moveout's WOS gate hold.
  double rows_per_sec = 0;
  uint64_t store_puts = 0;
  uint64_t wal_groups = 0;
  uint64_t wal_max_group = 0;
  bool count_ok = false;
};

RunRecord RunIngest(const Mode& mode, int batch, int writers) {
  RunRecord rec;
  rec.mode = mode.name;
  rec.batch = batch;
  rec.writers = writers;
  auto b = MakeCluster(mode);
  if (b == nullptr) return rec;

  // All writers connect to n1 (one WAL absorbs the whole trickle, the
  // way a session-pinned load balancer would drive a single node).
  InsertOptions iopts;
  iopts.connected_node = "n1";
  const int64_t per_writer = kRowBudget / writers;
  std::atomic<bool> failed{false};
  rec.ingest = bench::Measure(&b->clock, [&] {
    std::vector<std::thread> threads;
    threads.reserve(writers);
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        const int64_t base = w * per_writer;
        for (int64_t off = 0; off < per_writer; off += batch) {
          const int64_t n = std::min<int64_t>(batch, per_writer - off);
          const std::vector<Row> rows = MakeRows(base + off, n);
          // Concurrent direct-ROS commits conflict under OCC; a real
          // loader retries, and the retries' round trips are part of
          // the direct path's cost. The WOS path never aborts (a log
          // append has nothing to conflict with).
          for (;;) {
            auto r = InsertInto(b->cluster.get(), "t", rows, iopts);
            if (r.ok()) break;
            if (!r.status().IsAborted()) {
              fprintf(stderr, "insert failed: %s\n",
                      r.status().ToString().c_str());
              failed = true;
              return;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  rec.rows_per_sec = static_cast<double>(kRowBudget) /
                     (static_cast<double>(rec.ingest.total()) / 1e6);

  for (const auto& node : b->cluster->nodes()) {
    if (node->wal() != nullptr) {
      const WalStats ws = node->wal()->stats();
      rec.wal_groups += ws.groups_flushed;
      rec.wal_max_group = std::max(rec.wal_max_group, ws.max_group_size);
    }
  }
  rec.store_puts = b->store->metrics().puts;

  if (mode.wos != 0) {
    obs::Histogram* gate_hold =
        b->cluster->mover_metrics().gate_hold_micros;
    const double held_before = gate_hold->Snapshot().sum;
    rec.moveout = bench::Measure(&b->clock, [&] {
      auto moved = MoveoutWos(b->cluster.get(), "t");
      if (!moved.ok() || *moved != static_cast<uint64_t>(kRowBudget)) {
        failed = true;
      }
    });
    rec.gate_hold_micros = gate_hold->Snapshot().sum - held_before;
  }
  auto count = CountRows(b->cluster.get());
  rec.count_ok = !failed && count.ok() && *count == kRowBudget;
  return rec;
}

struct QueryPhase {
  int64_t idle_p99_micros = 0;
  int64_t ingest_p99_micros = 0;
  uint64_t queries = 0;
  bool consistent = true;
};

int64_t P99(std::vector<int64_t>* lat) {
  if (lat->empty()) return 0;
  std::sort(lat->begin(), lat->end());
  return (*lat)[lat->size() * 99 / 100];
}

// Readers measure wall time: SimClock time charged by the writers' PUTs
// is global, so it cannot be attributed to an individual query; the WOS
// and warmed caches make mid-ingest reads CPU-bound anyway.
QueryPhase RunQueryDuringIngest() {
  QueryPhase qp;
  auto b = MakeCluster(kModes[2]);  // wos_gc
  if (b == nullptr) {
    qp.consistent = false;
    return qp;
  }
  constexpr int kBatch = 10;
  constexpr int kWriters = 8;

  std::vector<int64_t> idle;
  for (int i = 0; i < 64; ++i) {
    const int64_t t0 = bench::WallMicros();
    auto c = CountRows(b->cluster.get());
    if (!c.ok()) qp.consistent = false;
    idle.push_back(bench::WallMicros() - t0);
  }
  qp.idle_p99_micros = P99(&idle);

  InsertOptions iopts;
  iopts.connected_node = "n1";
  std::atomic<bool> done{false};
  std::atomic<bool> consistent{true};
  std::vector<int64_t> lat;
  std::mutex lat_mu;

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      int64_t last = 0;
      std::vector<int64_t> mine;
      while (!done.load(std::memory_order_relaxed)) {
        const int64_t t0 = bench::WallMicros();
        auto c = CountRows(b->cluster.get());
        mine.push_back(bench::WallMicros() - t0);
        if (!c.ok() || *c % kBatch != 0 || *c < last) consistent = false;
        if (c.ok()) last = *c;
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      lat.insert(lat.end(), mine.begin(), mine.end());
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const int64_t per = kRowBudget / kWriters;
      for (int64_t off = 0; off < per; off += kBatch) {
        auto r = InsertInto(b->cluster.get(), "t",
                            MakeRows(w * per + off, kBatch), iopts);
        if (!r.ok()) consistent = false;
      }
    });
  }
  for (auto& t : writers) t.join();
  done = true;
  for (auto& t : readers) t.join();

  qp.queries = lat.size();
  qp.ingest_p99_micros = P99(&lat);
  auto final_count = CountRows(b->cluster.get());
  qp.consistent =
      consistent && qp.consistent && final_count.ok() &&
      *final_count == kRowBudget;
  return qp;
}

JsonValue RecordJson(const RunRecord& r) {
  JsonValue e = JsonValue::Object();
  e.Set("mode", JsonValue::Str(r.mode));
  e.Set("batch", JsonValue::Int(r.batch));
  e.Set("writers", JsonValue::Int(r.writers));
  e.Set("ingest_micros", JsonValue::Int(r.ingest.total()));
  e.Set("ingest_cpu_micros", JsonValue::Int(r.ingest.cpu));
  e.Set("ingest_sim_io_micros", JsonValue::Int(r.ingest.sim_io));
  e.Set("rows_per_sec", JsonValue::Double(r.rows_per_sec));
  e.Set("moveout_micros", JsonValue::Int(r.moveout.total()));
  e.Set("moveout_gate_hold_micros", JsonValue::Double(r.gate_hold_micros));
  e.Set("store_puts", JsonValue::Int(static_cast<int64_t>(r.store_puts)));
  e.Set("wal_groups", JsonValue::Int(static_cast<int64_t>(r.wal_groups)));
  e.Set("wal_max_group_size",
        JsonValue::Int(static_cast<int64_t>(r.wal_max_group)));
  e.Set("count_ok", JsonValue::Bool(r.count_ok));
  return e;
}

}  // namespace
}  // namespace eon

int main() {
  using namespace eon;

  std::vector<RunRecord> records;
  for (const Mode& mode : kModes) {
    for (int batch : kBatches) {
      for (int writers : kWriterCounts) {
        RunRecord rec = RunIngest(mode, batch, writers);
        printf("%-7s batch %3d writers %d: %9.0f rows/s  (io %lld ms, "
               "%llu puts, %llu wal groups, max group %llu)%s\n",
               rec.mode.c_str(), rec.batch, rec.writers, rec.rows_per_sec,
               static_cast<long long>(rec.ingest.sim_io / 1000),
               static_cast<unsigned long long>(rec.store_puts),
               static_cast<unsigned long long>(rec.wal_groups),
               static_cast<unsigned long long>(rec.wal_max_group),
               rec.count_ok ? "" : "  COUNT MISMATCH");
        records.push_back(std::move(rec));
      }
    }
  }
  QueryPhase qp = RunQueryDuringIngest();
  printf("query during ingest: idle p99 %.3f ms, mid-ingest p99 %.3f ms "
         "over %llu queries%s\n",
         static_cast<double>(qp.idle_p99_micros) / 1000.0,
         static_cast<double>(qp.ingest_p99_micros) / 1000.0,
         static_cast<unsigned long long>(qp.queries),
         qp.consistent ? "" : "  INCONSISTENT");

  auto find = [&](const char* mode, int batch, int writers) -> RunRecord* {
    for (RunRecord& r : records) {
      if (r.mode == mode && r.batch == batch && r.writers == writers) {
        return &r;
      }
    }
    return nullptr;
  };
  RunRecord* direct_trickle = find("direct", 1, 8);
  RunRecord* gc_trickle = find("wos_gc", 1, 8);
  RunRecord* direct_single = find("direct", 1, 1);
  RunRecord* wos_single = find("wos", 1, 1);

  const double speedup_trickle =
      direct_trickle->rows_per_sec > 0
          ? gc_trickle->rows_per_sec / direct_trickle->rows_per_sec
          : 0;
  const double speedup_single =
      direct_single->rows_per_sec > 0
          ? wos_single->rows_per_sec / direct_single->rows_per_sec
          : 0;
  bool counts_ok = true;
  for (const RunRecord& r : records) counts_ok = counts_ok && r.count_ok;
  std::vector<double> holds;
  for (const RunRecord& r : records) {
    if (r.mode != "direct") holds.push_back(r.gate_hold_micros);
  }
  std::sort(holds.begin(), holds.end());
  const double gate_hold_p50 = holds.empty() ? 0 : holds[holds.size() / 2];
  const double gate_hold_bound =
      static_cast<double>(SimStoreOptions{}.put_latency_micros) + 1000.0;
  const bool trickle_ok = speedup_trickle >= 10.0;
  const bool single_ok = speedup_single >= 1.5;
  const bool gate_ok = gate_hold_p50 <= gate_hold_bound;
  const bool pass =
      trickle_ok && single_ok && counts_ok && qp.consistent && gate_ok;
  printf("moveout gate hold p50 %.3f ms over %zu moveouts (bound %.3f ms: "
         "one PUT + 1 ms)\n",
         gate_hold_p50 / 1000.0, holds.size(), gate_hold_bound / 1000.0);

  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::Str("ingest"));
  out.Set("host_cpus", JsonValue::Int(std::thread::hardware_concurrency()));
  out.Set("nodes", JsonValue::Int(kNodes));
  out.Set("shards", JsonValue::Int(static_cast<int64_t>(kShards)));
  out.Set("row_budget", JsonValue::Int(kRowBudget));
  JsonValue arr = JsonValue::Array();
  for (const RunRecord& r : records) arr.Append(RecordJson(r));
  out.Set("results", std::move(arr));
  JsonValue query = JsonValue::Object();
  query.Set("idle_p99_micros", JsonValue::Int(qp.idle_p99_micros));
  query.Set("ingest_p99_micros", JsonValue::Int(qp.ingest_p99_micros));
  query.Set("queries", JsonValue::Int(static_cast<int64_t>(qp.queries)));
  query.Set("consistent_prefixes", JsonValue::Bool(qp.consistent));
  out.Set("query_during_ingest", std::move(query));
  JsonValue gates = JsonValue::Object();
  gates.Set("trickle_speedup_wos_gc_vs_direct",
            JsonValue::Double(speedup_trickle));
  gates.Set("trickle_speedup_ge_10x", JsonValue::Bool(trickle_ok));
  gates.Set("single_writer_speedup_wos_vs_direct",
            JsonValue::Double(speedup_single));
  gates.Set("single_writer_speedup_ge_1_5x", JsonValue::Bool(single_ok));
  gates.Set("counts_exact", JsonValue::Bool(counts_ok));
  gates.Set("mid_ingest_queries_consistent", JsonValue::Bool(qp.consistent));
  gates.Set("moveout_gate_hold_p50_micros", JsonValue::Double(gate_hold_p50));
  gates.Set("moveout_gate_hold_le_put_plus_1ms", JsonValue::Bool(gate_ok));
  gates.Set("pass", JsonValue::Bool(pass));
  out.Set("gates", std::move(gates));

  FILE* fp = fopen("BENCH_ingest.json", "w");
  if (fp != nullptr) {
    const std::string text = out.Dump();
    fwrite(text.data(), 1, text.size(), fp);
    fclose(fp);
    fprintf(stderr, "wrote BENCH_ingest.json\n");
  }
  bench::DumpBenchSidecars("BENCH_ingest", nullptr);

  printf("# shape check: batch-1 x 8 writers %.1fx (need >= 10x); "
         "batch-1 x 1 writer %.1fx (need >= 1.5x)\n",
         speedup_trickle, speedup_single);
  if (!trickle_ok) fprintf(stderr, "FAIL: trickle speedup under 10x\n");
  if (!single_ok) fprintf(stderr, "FAIL: single-writer speedup under 1.5x\n");
  if (!counts_ok) fprintf(stderr, "FAIL: a run lost or duplicated rows\n");
  if (!qp.consistent) {
    fprintf(stderr, "FAIL: mid-ingest query saw a torn batch\n");
  }
  if (!gate_ok) {
    fprintf(stderr, "FAIL: moveout gate hold p50 over one PUT + 1 ms\n");
  }
  return pass ? 0 : 2;
}
