// serve_mixed: wire traffic through EonServer with admission on. Each of
// kConnections connections (one EonClient, one thread) replays its own
// seeded open-loop schedule of evenly spaced arrivals at a fixed rate:
//  - dashboard: a GROUP BY over lineitem, then an aggregate over the recent
//    batches of the WOS-fed events table (a union scan of WOS and ROS);
//  - insert: one kBatchRows-row INSERT into events.
// Each statement is timed from its scheduled arrival, so a stall delays
// the statements queued behind it; the generator's own lateness is
// reported. The rate and mix are frozen constants, calibrated once with
// --calibrate, which runs the same connections closed loop and prints the
// capacity and the mean service time of each statement kind.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "engine/sql.h"
#include "harness.h"
#include "server/client.h"
#include "server/server.h"

namespace eonbench {
namespace {

/// Half the CPUs of the 4-CPU calibration host, so every connection's
/// server thread and the exec pool have a CPU while other work runs on it.
constexpr int kConnections = 2;
/// Share of arrivals that are INSERTs (the rest are dashboards): the
/// share at which inserts and dashboards each take half of the closed-loop
/// connection time, t_dashboard / (t_dashboard + t_insert) from the mean
/// service times --calibrate prints.
constexpr double kInsertShare = 0.45;
/// Arrivals per second over all connections: half the closed-loop
/// capacity at kInsertShare, measured with --calibrate.
constexpr double kOfferedPerSecond = 150.0;
/// Dashboards read each writer's events from the reader's own latest
/// batch minus kEventsWindowBatches on (about three seconds of one
/// connection's inserts), so a read costs the same early and late in a
/// run while the table grows.
constexpr int64_t kEventsWindowBatches = 100;
/// Untimed dashboard reads on every connection before measuring (see the
/// TPC-H workloads: a fresh fixture runs slower for its first second).
constexpr int64_t kWarmupMicros = 1000000;

const char* const kLineitemSql =
    "SELECT l_returnflag, SUM(l_extendedprice) AS revenue, "
    "AVG(l_discount) AS disc, COUNT(*) AS n FROM lineitem "
    "GROUP BY l_returnflag";

struct Arrival {
  int64_t at_micros;
  bool insert;
};

/// What one connection saw.
struct ConnResult {
  Samples read_ms[2];  ///< Index 1 = started in a traced window.
  Samples dashboard_ms, insert_ms;
  std::vector<double> late_ms, queued_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked_rows = 0;
  uint64_t wos_max = 0;
  std::vector<std::string> mismatches;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(uint64_t seed, std::unique_ptr<Fixture> fixture)
      : seed_(seed), f_(std::move(fixture)) {}
  ~ServeWorkload() override {
    for (auto& c : clients_) (void)c->Bye();
    clients_.clear();
    server_.reset();
  }
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  Status Start(const Pins& pins) {
    eon::EonServer::Options options;
    options.admission = true;
    options.admission_options.slots_per_node = pins.exec_slots;
    server_ = std::make_unique<eon::EonServer>(f_->cluster.get(), options);
    for (int c = 0; c < kConnections; ++c) {
      auto client =
          std::make_unique<eon::EonClient>(server_->ConnectInProcess());
      EON_ASSIGN_OR_RETURN(uint64_t session,
                           client->Hello("node" + std::to_string(c % kNodes + 1)));
      (void)session;
      EON_RETURN_IF_ERROR(client->Prepare("lineitem", kLineitemSql));
      EON_ASSIGN_OR_RETURN(eon::WireQueryResult warm,
                           client->ExecutePrepared("lineitem"));
      (void)warm;
      clients_.push_back(std::move(client));
    }
    return Status::OK();
  }

  Status Prepare(Report* report) override {
    auto snapshot = f_->cluster->AnyUpNode()->catalog()->snapshot();
    EON_ASSIGN_OR_RETURN(eon::QuerySpec spec,
                         eon::ParseSelect(*snapshot, kLineitemSql));
    EON_ASSIGN_OR_RETURN(oracle_, ResultOracle::Build(f_->data, {{"lineitem", spec}}));
    EON_ASSIGN_OR_RETURN(eon::WireQueryResult r,
                         clients_[0]->ExecutePrepared("lineitem"));
    EON_RETURN_IF_ERROR(SelfCheckOracles(*oracle_, r.rows, r.schema, 0));
    report->notes.push_back("oracle self-check: corrupted results rejected");
    report->notes.push_back(DataFootprint(f_->cluster.get()));
    return Status::OK();
  }

  Status Run(const RunOptions& options, Report* report) override;

 private:
  std::vector<Arrival> Schedule(int conn, int seconds) const;
  ConnResult Drive(int conn, const std::vector<Arrival>& arrivals,
                   int64_t start, bool closed_loop, bool sample_wos);
  void MeasureFrontEnd(Layers* layers);

  const uint64_t seed_;
  std::unique_ptr<Fixture> f_;
  std::unique_ptr<eon::EonServer> server_;
  std::vector<std::unique_ptr<eon::EonClient>> clients_;
  std::optional<ResultOracle> oracle_;
};

std::vector<Arrival> ServeWorkload::Schedule(int conn, int seconds) const {
  // Evenly spaced arrivals with a seeded phase per connection and seeded
  // statement kinds. Poisson arrivals at half capacity made the latency
  // medians swing by 10-17% from run to run through queueing bursts.
  eon::Random rng(seed_ * 1000003ULL + static_cast<uint64_t>(conn) + 1);
  const double interval =
      1e6 * static_cast<double>(clients_.size()) / kOfferedPerSecond;
  std::vector<Arrival> out;
  for (double t = rng.NextDouble() * interval; t < seconds * 1e6; t += interval) {
    out.push_back({static_cast<int64_t>(t), rng.Bernoulli(kInsertShare)});
  }
  return out;
}

ConnResult ServeWorkload::Drive(int conn, const std::vector<Arrival>& arrivals,
                                int64_t start, bool closed_loop,
                                bool sample_wos) {
  eon::EonClient* client = clients_[conn].get();
  const int64_t writer = conn + 1;
  EventsOracle events;
  int64_t next_batch = 0;
  int64_t acked_batch = -1;
  ConnResult out;
  const SpanLog& log = SpanLog::Get();
  for (const Arrival& a : arrivals) {
    int64_t due = start + a.at_micros;
    int64_t now = NowMicros();
    if (closed_loop) {
      if (now >= start + a.at_micros) break;  // at_micros = run length here.
      due = now;
    } else if (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }
    const int64_t begin = NowMicros();
    out.late_ms.push_back(static_cast<double>(begin - due) / 1000.0);
    const bool traced = log.Active(begin);

    if (a.insert) {
      out.attempted++;
      const std::vector<Row> rows = EventBatch(writer, next_batch, seed_);
      Result<eon::WireQueryResult> r = Status::Aborted("not run");
      {
        ScopedSpan statement("statement.insert");
        ScopedSpan call("client.query");
        r = client->Query(InsertSql(rows));
      }
      const int64_t end = NowMicros();
      if (!r.ok() || r->rows.size() != 1 ||
          r->rows[0][0].int_value() != kBatchRows) {
        out.failed++;
        out.mismatches.push_back("insert: " + r.status().ToString());
        continue;
      }
      out.insert_ms.Add(a.at_micros, static_cast<double>(end - due) / 1000.0);
      out.acked_rows += rows.size();
      acked_batch = next_batch++;
      if (sample_wos) {
        out.wos_max = std::max(out.wos_max, UnflushedEventRows(f_->cluster.get()));
      }
      continue;
    }

    out.attempted += 2;
    const int64_t from_batch =
        std::max<int64_t>(0, next_batch - kEventsWindowBatches);
    const std::string events_sql = EventsOracle::Sql(from_batch);
    Result<eon::WireQueryResult> li = Status::Aborted("not run");
    Result<eon::WireQueryResult> ev = Status::Aborted("not run");
    int64_t mid, end;
    {
      ScopedSpan statement("statement.dashboard");
      {
        ScopedSpan call("client.execute_prepared");
        li = client->ExecutePrepared("lineitem");
      }
      mid = NowMicros();
      {
        ScopedSpan call("client.query");
        ev = client->Query(events_sql);
      }
      end = NowMicros();
    }
    std::string diff;
    if (!li.ok()) {
      out.failed++;
      out.mismatches.push_back("lineitem read: " + li.status().ToString());
    } else {
      out.read_ms[traced].Add(a.at_micros,
                             static_cast<double>(mid - due) / 1000.0);
      out.queued_ms.push_back(static_cast<double>(li->queued_micros) / 1000.0);
      if (!oracle_->Check(0, li->schema, li->rows, &diff)) {
        out.failed++;
        out.mismatches.push_back("lineitem read: " + diff);
      }
    }
    // The events read is issued the moment the lineitem read returns.
    if (!ev.ok()) {
      out.failed++;
      out.mismatches.push_back("events read: " + ev.status().ToString());
    } else {
      out.read_ms[traced].Add(a.at_micros,
                             static_cast<double>(end - mid) / 1000.0);
      out.queued_ms.push_back(static_cast<double>(ev->queued_micros) / 1000.0);
      if (!events.Check(ev->rows, from_batch, writer, acked_batch, &diff)) {
        out.failed++;
        out.mismatches.push_back("events read: " + diff);
      }
    }
    if (li.ok() && ev.ok()) {
      out.dashboard_ms.Add(a.at_micros, static_cast<double>(end - due) / 1000.0);
    }
  }
  return out;
}

void ServeWorkload::MeasureFrontEnd(Layers* layers) {
  // sql: parse cost of the three statement shapes the clients send.
  auto snapshot = f_->cluster->AnyUpNode()->catalog()->snapshot();
  const std::string insert = InsertSql(EventBatch(99, 0, seed_));
  std::vector<double> parse_us;
  for (int i = 0; i < 100; ++i) {
    for (const std::string& sql :
         {std::string(kLineitemSql), EventsOracle::Sql(0)}) {
      ScopedSpan span("sql.parse_select");
      const int64_t t0 = NowMicros();
      Result<eon::QuerySpec> q = eon::ParseSelect(*snapshot, sql);
      parse_us.push_back(static_cast<double>(NowMicros() - t0));
      (void)q;
    }
    ScopedSpan span("sql.parse_insert");
    const int64_t t0 = NowMicros();
    Result<eon::InsertSpec> ins = eon::ParseInsert(*snapshot, insert);
    parse_us.push_back(static_cast<double>(NowMicros() - t0));
    (void)ins;
  }
  layers->parse_us = Median(parse_us);

  // server: one client over the wire vs the same prepared statement run
  // in-process through SessionManager, interleaved.
  eon::SessionManager* sessions = server_->sessions();
  Result<uint64_t> sid = sessions->Connect("node1");
  if (!sid.ok() || !sessions->Prepare(*sid, "lineitem", kLineitemSql).ok()) {
    return;
  }
  std::vector<double> wire_us, local_us;
  for (int i = 0; i < 100; ++i) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool wire = (leg + i) % 2 == 0;  // Alternate which runs first.
      const int64_t t0 = NowMicros();
      if (wire) {
        (void)clients_[0]->ExecutePrepared("lineitem");
      } else {
        (void)sessions->ExecutePrepared(*sid, "lineitem");
      }
      (wire ? wire_us : local_us).push_back(static_cast<double>(NowMicros() - t0));
    }
  }
  (void)sessions->Disconnect(*sid);
  layers->wire_overhead_us = Median(wire_us) - Median(local_us);
}

Status ServeWorkload::Run(const RunOptions& options, Report* report) {
  eon::EonCluster* cluster = f_->cluster.get();
  f_->store->SetLatency(MeasuredLatency());
  const int conns = static_cast<int>(clients_.size());

  std::vector<std::vector<Arrival>> schedules;
  for (int c = 0; c < conns; ++c) {
    if (options.calibrate) {
      // Closed loop: the same seeded mix back to back until the deadline.
      std::vector<Arrival> mix = Schedule(c, options.seconds * 100);
      for (Arrival& a : mix) a.at_micros = options.seconds * 1000000LL;
      schedules.push_back(std::move(mix));
    } else {
      schedules.push_back(Schedule(c, options.seconds));
    }
  }

  {
    std::vector<std::thread> threads;
    const int64_t until = NowMicros() + kWarmupMicros;
    for (auto& client : clients_) {
      threads.emplace_back([&client, until] {
        while (NowMicros() < until) {
          (void)client->ExecutePrepared("lineitem");
          (void)client->Query(EventsOracle::Sql(0));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  Layers layers;
  const LayerWindow window(f_.get());
  SpanLog& log = SpanLog::Get();
  const int64_t start = NowMicros() + 10000;  // Let every thread start.
  if (options.trace) log.Arm(start);

  std::vector<ConnResult> results(conns);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        results[c] = Drive(c, schedules[c], start, options.calibrate,
                           options.trace);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const int64_t elapsed = NowMicros() - start;
  log.Disarm();

  ConnResult all;
  for (ConnResult& r : results) {
    for (int t = 0; t < 2; ++t) all.read_ms[t].Append(r.read_ms[t]);
    all.dashboard_ms.Append(r.dashboard_ms);
    all.insert_ms.Append(r.insert_ms);
    all.late_ms.insert(all.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    all.queued_ms.insert(all.queued_ms.end(), r.queued_ms.begin(),
                         r.queued_ms.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.acked_rows += r.acked_rows;
    all.wos_max = std::max(all.wos_max, r.wos_max);
    for (std::string& m : r.mismatches) report->Fail(std::move(m));
  }
  report->attempted += all.attempted;
  report->failed += all.failed;

  if (options.calibrate) {
    const double arrivals_per_s =
        static_cast<double>(all.dashboard_ms.ms.size() +
                            all.insert_ms.ms.size()) /
        (static_cast<double>(elapsed) / 1e6);
    auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const double t_dashboard = mean(all.dashboard_ms.ms);
    const double t_insert = mean(all.insert_ms.ms);
    char note[300];
    snprintf(note, sizeof(note),
             "calibrate: closed-loop capacity %.1f arrivals/s over %d "
             "connections at %.0f%% inserts (half is %.1f); mean service "
             "dashboard %.3f ms, insert %.3f ms; equal-time insert share %.3f",
             arrivals_per_s, conns, kInsertShare * 100, arrivals_per_s / 2,
             t_dashboard, t_insert, t_dashboard / (t_dashboard + t_insert));
    report->notes.push_back(note);
  }

  // Every acknowledged row is visible exactly once.
  EON_ASSIGN_OR_RETURN(eon::WireQueryResult count,
                       clients_[0]->Query("SELECT COUNT(*) AS n FROM events"));
  const int64_t seen = count.rows.empty() ? -1 : count.rows[0][0].int_value();
  if (seen != static_cast<int64_t>(all.acked_rows)) {
    report->Fail("events COUNT(*) " + std::to_string(seen) + " vs " +
                 std::to_string(all.acked_rows) + " acknowledged rows");
  }
  Status reconciled = f_->store->Reconcile();
  if (!reconciled.ok()) report->Fail(reconciled.ToString());

  char note[256];
  snprintf(note, sizeof(note),
           "%d connections, offered %.1f/s (%.0f%% inserts): %zu dashboards, "
           "%zu inserts (p99 %.3f ms), generator late p50 %.3f ms / max "
           "%.3f ms",
           conns, kOfferedPerSecond, kInsertShare * 100,
           all.dashboard_ms.ms.size(), all.insert_ms.ms.size(),
           Quantile(all.insert_ms.ms, 0.99),
           Quantile(all.late_ms, 0.5), Quantile(all.late_ms, 1.0));
  report->notes.push_back(note);

  window.Finish(&layers);
  if (options.trace) {
    const eon::AdmissionController::Stats admission =
        server_->admission()->GetStats();
    for (const auto& pool : admission.pools) {
      layers.shed += pool.shed;
      layers.timed_out += pool.timed_out;
    }
    layers.peak_slots = admission.peak_slots_in_use;
    layers.admission_wait_p99_ms = Quantile(all.queued_ms, 0.99);
    layers.wos_unflushed_max = all.wos_max;
    std::tie(layers.moveouts, layers.moveout_rows) = EventMoveouts(cluster);
    layers.user_bytes = all.acked_rows * kEventRowBytes;
    layers.late_p99_ms = Quantile(all.late_ms, 0.99);
    const double untraced = Median(all.read_ms[0].ms);
    layers.trace_overhead_pct =
        untraced > 0 ? (Median(all.read_ms[1].ms) / untraced - 1.0) * 100.0
                     : 0.0;
    MeasureFrontEnd(&layers);
    AddLayerMetrics(layers, 1.0, report);
    return Status::OK();
  }

  report->Add("pass_ms", all.dashboard_ms.WindowedMedian(), "ms");
  report->Add("query_p50_ms", all.read_ms[0].WindowedMedian(), "ms");
  report->Add("query_p99_ms", Quantile(all.read_ms[0].ms, 0.99), "ms");
  report->Add("insert_p50_ms", all.insert_ms.WindowedMedian(), "ms");
  report->Add("usd_micro_per_query",
              static_cast<double>(layers.store.microdollars) /
                  static_cast<double>(std::max<uint64_t>(all.attempted, 1)),
              "microusd");
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Workload>> SetupServe(uint64_t seed, const Pins& pins) {
  EON_ASSIGN_OR_RETURN(std::unique_ptr<Fixture> fixture,
                       BuildFixture(pins));
  auto w = std::make_unique<ServeWorkload>(seed, std::move(fixture));
  EON_RETURN_IF_ERROR(w->Start(pins));
  return std::unique_ptr<Workload>(std::move(w));
}

}  // namespace eonbench
