// tpch_warm and tpch_cold: the Figure-10 query set (the 20 TpchQuerySet
// queries) driven by one closed-loop in-process client through
// EonSession::PrepareContext / ExecuteWithContext.
//  - tpch_warm: every cache holds the whole data set; the store sees no GET.
//  - tpch_cold: every node's cache is dropped before each query, so each
//    query refetches its column files through the latency-injecting store.
// After each pass the client also writes one single-row probe INSERT into
// the events table through InsertInto (rotating over the nodes), so the
// durable-write latency of the in-process path is measured on these
// workloads too. With exactly one probe per 20 queries, the store cost per
// statement does not depend on query speed. A moveout would need over 2000
// passes in one run (512 rows on each of four nodes).

#include <cstdio>
#include <optional>
#include <tuple>

#include "engine/dml.h"
#include "engine/session.h"
#include "engine/sql.h"
#include "harness.h"

namespace eonbench {
namespace {

constexpr int kMaxWarmupPasses = 8;
/// Untimed passes before measuring: the first second or so of passes on
/// a fresh fixture runs up to 1.5x slower while allocator state and the
/// Data Collector rings fill.
constexpr int64_t kWarmupMicros = 2000000;
constexpr int64_t kProbeWriter = 0;

class TpchWorkload : public Workload {
 public:
  TpchWorkload(bool cold, uint64_t seed, std::unique_ptr<Fixture> fixture)
      : cold_(cold),
        seed_(seed),
        f_(std::move(fixture)),
        queries_(eon::TpchQuerySet(f_->tpch)) {}

  /// Run passes until one issues no GET: every subscriber that a
  /// participation may pick then holds its files.
  Status Warm() {
    eon::EonSession session(f_->cluster.get(), "", seed_ + 1);
    for (int pass = 0; pass < kMaxWarmupPasses; ++pass) {
      const uint64_t gets = f_->store->totals().get.count;
      for (const auto& [name, spec] : queries_) {
        EON_ASSIGN_OR_RETURN(eon::QueryResult r, session.Execute(spec));
        (void)r;
      }
      if (f_->store->totals().get.count == gets) return Status::OK();
    }
    return Status::Aborted("caches still missing after warm-up passes");
  }

  Status Prepare(Report* report) override {
    EON_ASSIGN_OR_RETURN(oracle_, ResultOracle::Build(f_->data, queries_));
    eon::EonSession session(f_->cluster.get(), "", seed_ + 2);
    EON_ASSIGN_OR_RETURN(eon::QueryResult r, session.Execute(queries_[0].second));
    EON_RETURN_IF_ERROR(SelfCheckOracles(*oracle_, r.rows, r.schema, 0));
    report->notes.push_back("oracle self-check: corrupted results rejected");
    report->notes.push_back(DataFootprint(f_->cluster.get()));
    return Status::OK();
  }

  Status Run(const RunOptions& options, Report* report) override;

 private:
  void DropCaches() {
    for (const auto& n : f_->cluster->nodes()) {
      n->cache()->WaitIdle();
      n->cache()->Clear();
    }
  }
  void WaitCachesIdle() {
    for (const auto& n : f_->cluster->nodes()) n->cache()->WaitIdle();
  }

  const bool cold_;
  const uint64_t seed_;
  std::unique_ptr<Fixture> f_;
  const std::vector<std::pair<std::string, eon::QuerySpec>> queries_;
  std::optional<ResultOracle> oracle_;
};

Status TpchWorkload::Run(const RunOptions& options, Report* report) {
  eon::EonCluster* cluster = f_->cluster.get();
  f_->store->SetLatency(MeasuredLatency());
  eon::EonSession session(cluster, "", seed_);
  for (const int64_t until = NowMicros() + kWarmupMicros; NowMicros() < until;) {
    for (const auto& [name, spec] : queries_) {
      if (cold_) DropCaches();
      EON_ASSIGN_OR_RETURN(eon::QueryResult r, session.Execute(spec));
      (void)r;
    }
  }

  // Index 0 = untraced, 1 = traced (odd windows of a traced run).
  Samples pass_ms[2], query_ms[2];
  std::vector<double> insert_ms, context_us;
  std::vector<uint64_t> pass_gets;
  Layers layers;
  int probes = 0;
  uint64_t acked_rows = 0;

  const LayerWindow window(f_.get());
  SpanLog& log = SpanLog::Get();
  const int64_t start = NowMicros();
  if (options.trace) log.Arm(start);
  const int64_t deadline = start + options.seconds * 1000000LL;

  while (NowMicros() < deadline) {
    const int64_t pass_start = NowMicros();
    const bool traced = log.Active(pass_start);
    const uint64_t gets0 = f_->store->totals().get.count;
    int64_t pass_micros = 0;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      const auto& [name, spec] = queries_[qi];
      if (cold_) DropCaches();
      report->attempted++;
      Result<eon::ExecContext> context = Status::Aborted("not run");
      Result<eon::QueryResult> result = Status::Aborted("not run");
      int64_t t0, t1, t2;
      {
        ScopedSpan statement("statement");
        t0 = NowMicros();
        {
          ScopedSpan span("shard.prepare_context");
          context = session.PrepareContext();
        }
        t1 = NowMicros();
        if (context.ok()) {
          ScopedSpan span("engine.execute_with_context");
          result = session.ExecuteWithContext(spec, *context);
        }
        t2 = NowMicros();
      }
      if (!context.ok() || !result.ok()) {
        report->failed++;
        report->Fail(name + ": " + (context.ok() ? result.status()
                                                 : context.status())
                                        .ToString());
        continue;
      }
      pass_micros += t2 - t0;
      query_ms[traced].Add(t0 - start, static_cast<double>(t2 - t0) / 1000.0);
      context_us.push_back(static_cast<double>(t1 - t0));
      layers.AddProfile(result->profile, result->rows.size());
      std::string diff;
      if (!oracle_->Check(qi, result->schema, result->rows, &diff)) {
        report->failed++;
        report->Fail(name + ": " + diff);
      }
    }
    if (cold_) WaitCachesIdle();  // Stray prefetches land in this pass.
    pass_gets.push_back(f_->store->totals().get.count - gets0);
    pass_ms[traced].Add(pass_start - start,
                        static_cast<double>(pass_micros) / 1000.0);

    // One probe INSERT per pass, outside the pass time.
    report->attempted++;
    const std::vector<Row> rows = EventBatch(kProbeWriter, probes, seed_, 1);
    eon::InsertOptions insert_options;
    insert_options.connected_node = "node" + std::to_string(probes % kNodes + 1);
    ++probes;
    const int64_t t0 = NowMicros();
    Result<uint64_t> inserted = Status::Aborted("not run");
    {
      ScopedSpan span("statement.insert");
      inserted = eon::InsertInto(cluster, "events", rows, insert_options);
    }
    const int64_t t1 = NowMicros();
    if (!inserted.ok() || *inserted != rows.size()) {
      report->failed++;
      report->Fail("probe insert: " + inserted.status().ToString());
      continue;
    }
    insert_ms.push_back(static_cast<double>(t1 - t0) / 1000.0);
    acked_rows += rows.size();
  }
  log.Disarm();
  WaitCachesIdle();

  window.Finish(&layers);
  layers.context_us = Median(context_us);
  layers.user_bytes = acked_rows * kEventRowBytes;
  layers.wos_unflushed_max = UnflushedEventRows(cluster);
  std::tie(layers.moveouts, layers.moveout_rows) = EventMoveouts(cluster);

  // Every acknowledged probe row is visible, exactly once.
  {
    auto snapshot = cluster->AnyUpNode()->catalog()->snapshot();
    EON_ASSIGN_OR_RETURN(eon::QuerySpec count,
                         eon::ParseSelect(*snapshot,
                                          "SELECT COUNT(*) AS n FROM events"));
    EON_ASSIGN_OR_RETURN(eon::QueryResult r, session.Execute(count));
    const int64_t seen = r.rows.empty() ? -1 : r.rows[0][0].int_value();
    if (seen != static_cast<int64_t>(acked_rows)) {
      report->Fail("events COUNT(*) " + std::to_string(seen) + " vs " +
                   std::to_string(acked_rows) + " acknowledged rows");
    }
  }
  Status reconciled = f_->store->Reconcile();
  if (!reconciled.ok()) report->Fail(reconciled.ToString());

  // The workload's defining invariants.
  if (!cold_ && (layers.store.get.count != 0 || layers.cache.misses != 0)) {
    report->Fail("tpch_warm touched the store: " +
                 std::to_string(layers.store.get.count) + " GETs, " +
                 std::to_string(layers.cache.misses) + " cache misses");
  }
  for (uint64_t g : pass_gets) {
    if (g != pass_gets.front()) {
      report->Fail("GETs per pass vary: " + std::to_string(pass_gets.front()) +
                   " vs " + std::to_string(g));
      break;
    }
  }

  const size_t passes = pass_gets.size();
  char note[256];
  snprintf(note, sizeof(note),
           "%zu passes (untraced p10 %.2f / p50 %.2f / p90 %.2f ms), %zu "
           "query samples (%zu untraced), %zu insert samples (p99 %.3f ms), "
           "%llu GETs per pass",
           passes, Quantile(pass_ms[0].ms, 0.1), Quantile(pass_ms[0].ms, 0.5),
           Quantile(pass_ms[0].ms, 0.9),
           query_ms[0].ms.size() + query_ms[1].ms.size(), query_ms[0].ms.size(),
           insert_ms.size(), Quantile(insert_ms, 0.99),
           static_cast<unsigned long long>(pass_gets.empty() ? 0
                                                             : pass_gets[0]));
  report->notes.push_back(note);

  if (options.trace) {
    const double untraced = Median(pass_ms[0].ms);
    layers.trace_overhead_pct =
        untraced > 0 ? (Median(pass_ms[1].ms) / untraced - 1.0) * 100.0 : 0.0;
    AddLayerMetrics(layers, static_cast<double>(passes), report);
    return Status::OK();
  }
  report->Add("pass_ms", pass_ms[0].WindowedMedian(), "ms");
  report->Add("query_p50_ms", query_ms[0].WindowedMedian(), "ms");
  // Ten-second windows keep at least ten samples above each window's p99
  // on tpch_cold (about 80 queries a second).
  report->Add("query_p99_ms", query_ms[0].WindowedQuantile(0.99, 10), "ms");
  report->Add("insert_p50_ms", Quantile(insert_ms, 0.50), "ms");
  report->Add("usd_micro_per_query",
              static_cast<double>(layers.store.microdollars) /
                  static_cast<double>(std::max<uint64_t>(report->attempted, 1)),
              "microusd");
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Workload>> SetupTpch(bool cold, uint64_t seed,
                                            const Pins& pins) {
  EON_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> fixture,
                       BuildFixture(pins));
  auto w = std::make_unique<TpchWorkload>(cold, seed, std::move(fixture));
  EON_RETURN_IF_ERROR(w->Warm());
  return std::unique_ptr<Workload>(std::move(w));
}

}  // namespace eonbench
