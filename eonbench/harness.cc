#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "columnar/kernels.h"
#include "columnar/ndp.h"
#include "common/random.h"
#include "engine/ddl.h"
#include "obs/trace_export.h"
#include "tm/tuple_mover.h"

namespace eonbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

void Samples::Append(const Samples& o) {
  ms.insert(ms.end(), o.ms.begin(), o.ms.end());
  window.insert(window.end(), o.window.begin(), o.window.end());
}

double Samples::WindowedQuantile(double q, int64_t window_seconds) const {
  std::map<int64_t, std::vector<double>> by_window;
  for (size_t i = 0; i < ms.size(); ++i) {
    by_window[window[i] / window_seconds].push_back(ms[i]);
  }
  std::vector<double> per_window;
  for (auto& [w, values] : by_window) {
    per_window.push_back(Quantile(std::move(values), q));
  }
  return Median(std::move(per_window));
}

std::string ConfigJson(const Pins& p) {
#ifdef EONBENCH_BUILD_TYPE
  const char* build = EONBENCH_BUILD_TYPE;
#else
  const char* build = "unknown";
#endif
  char buf[1024];
  snprintf(buf, sizeof(buf),
           "{\"host_cpus\": %u, \"kernel_isa\": \"%s\", \"build_type\": "
           "\"%s\", \"nodes\": %d, \"shards\": %u, \"scale\": %.2f, "
           "\"exec_threads\": %d, \"io_threads\": %d, \"prefetch_depth\": %d, "
           "\"pushdown\": %d, \"pushdown_cutoff\": %.2f, \"trace_sample\": "
           "%.1f, \"wos\": %d, \"group_commit_micros\": %lld, "
           "\"wos_flush_rows\": %lld, \"exec_slots\": %d, "
           "\"prefetch_byte_cap\": %llu, \"slow_query_micros\": %lld, "
           "\"trace_ring\": %zu, \"cache_bytes\": %llu, \"store_latency_us\": "
           "{\"get\": %lld, \"put\": %lld, \"list\": %lld, \"delete\": %lld}}",
           std::thread::hardware_concurrency(),
           eon::simd::IsaName(eon::simd::ActiveIsa()), build, kNodes, kShards,
           kScale, p.exec_threads, p.io_threads, p.prefetch_depth, p.pushdown,
           p.pushdown_cutoff, p.trace_sample, p.wos,
           static_cast<long long>(p.group_commit_micros),
           static_cast<long long>(p.wos_flush_rows), p.exec_slots,
           static_cast<unsigned long long>(p.prefetch_byte_cap),
           static_cast<long long>(p.slow_query_micros), p.trace_ring,
           static_cast<unsigned long long>(p.cache_bytes),
           static_cast<long long>(MeasuredLatency().get_micros),
           static_cast<long long>(MeasuredLatency().put_micros),
           static_cast<long long>(MeasuredLatency().list_micros),
           static_cast<long long>(MeasuredLatency().delete_micros));
  return buf;
}

bool ResetPeakRss() {
  malloc_trim(0);
  FILE* fp = fopen("/proc/self/clear_refs", "w");
  if (fp == nullptr) return false;
  const bool written = fputs("5", fp) >= 0;
  return fclose(fp) == 0 && written;
}

double PeakRssMb() {
  FILE* fp = fopen("/proc/self/status", "r");
  if (fp != nullptr) {
    char line[256];
    long long kib = -1;
    while (kib < 0 && fgets(line, sizeof(line), fp) != nullptr) {
      if (sscanf(line, "VmHWM: %lld kB", &kib) != 1) kib = -1;
    }
    fclose(fp);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// --- Span log ----------------------------------------------------------------

namespace {
thread_local uint64_t tls_current_span = 0;
/// Trace-viewer lane of this thread ("" until its first span).
thread_local std::string tls_lane;
std::atomic<int> next_lane{0};
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

Status SpanLog::Write(const std::string& path) const {
  FILE* fp = fopen(path.c_str(), "w");
  if (fp == nullptr) return Status::IOError("cannot write " + path);
  const std::string json =
      eon::obs::ChromeTraceJson(tracer_.FinishedSpans()).Dump();
  fwrite(json.data(), 1, json.size(), fp);
  if (fclose(fp) != 0) return Status::IOError("close " + path);
  if (tracer_.spans_dropped() > 0) {
    return Status::Aborted(std::to_string(tracer_.spans_dropped()) +
                           " spans dropped");
  }
  return Status::OK();
}

ScopedSpan::ScopedSpan(const char* name) {
  SpanLog& log = SpanLog::Get();
  if (!log.armed()) return;  // Untraced runs skip even the clock read.
  if (!log.Active(NowMicros())) return;
  if (tls_lane.empty()) tls_lane = "thread-" + std::to_string(next_lane++);
  parent_ = tls_current_span;
  span_ = log.tracer()->StartSpanWithParent(name, parent_);
  span_.SetNode(tls_lane);
  tls_current_span = span_.id();
}

ScopedSpan::~ScopedSpan() {
  if (span_.valid()) tls_current_span = parent_;
}

// --- Metered store -----------------------------------------------------------

StoreTotals StoreTotals::Minus(const StoreTotals& b) const {
  auto sub = [](const OpTotals& x, const OpTotals& y) {
    return OpTotals{x.count - y.count, x.bytes - y.bytes,
                    x.busy_micros - y.busy_micros};
  };
  StoreTotals d;
  d.get = sub(get, b.get);
  d.put = sub(put, b.put);
  d.list = sub(list, b.list);
  d.del = sub(del, b.del);
  d.scan = sub(scan, b.scan);
  d.put_data = put_data - b.put_data;
  d.put_wal = put_wal - b.put_wal;
  d.put_catalog = put_catalog - b.put_catalog;
  d.failed = failed - b.failed;
  d.microdollars = microdollars - b.microdollars;
  return d;
}

MeteredStore::MeteredStore(eon::SimObjectStore* inner) : inner_(inner) {}

OpTotals MeteredStore::Op::Load() const {
  return {count.load(std::memory_order_relaxed),
          bytes.load(std::memory_order_relaxed),
          busy_micros.load(std::memory_order_relaxed)};
}

void MeteredStore::SetLatency(const StoreLatency& l) {
  get_.latency_micros.store(l.get_micros);
  put_.latency_micros.store(l.put_micros);
  list_.latency_micros.store(l.list_micros);
  del_.latency_micros.store(l.delete_micros);
}

StoreTotals MeteredStore::totals() const {
  StoreTotals t;
  t.get = get_.Load();
  t.put = put_.Load();
  t.list = list_.Load();
  t.del = del_.Load();
  t.scan = scan_.Load();
  t.put_data = put_data_.load();
  t.put_wal = put_wal_.load();
  t.put_catalog = put_catalog_.load();
  t.failed = failed_.load();
  const eon::SimStoreOptions& o = inner_->options();
  // Scans would also pay a per-GB charge; pushdown is pinned off, and
  // Reconcile() fails if any scan ran.
  t.microdollars = t.get.count * o.get_cost_microdollars +
                   t.put.count * o.put_cost_microdollars +
                   t.list.count * o.list_cost_microdollars +
                   t.scan.count * o.scan_cost_microdollars;
  return t;
}

Status MeteredStore::Reconcile() const {
  const StoreTotals t = totals();
  const eon::ObjectStoreMetrics m = inner_->metrics();
  std::string diff;
  auto check = [&](const char* what, uint64_t mine, uint64_t theirs) {
    if (mine != theirs) {
      diff += std::string(diff.empty() ? "" : ", ") + what + " " +
              std::to_string(mine) + " vs " + std::to_string(theirs);
    }
  };
  check("gets", t.get.count, m.gets);
  check("puts", t.put.count, m.puts);
  check("lists", t.list.count, m.lists);
  check("deletes", t.del.count, m.deletes);
  check("scans", t.scan.count, m.scans);
  check("bytes_read", t.get.bytes + t.scan.bytes, m.bytes_read);
  check("bytes_written", t.put.bytes, m.bytes_written);
  check("microdollars", t.microdollars, m.cost_microdollars);
  if (diff.empty()) return Status::OK();
  return Status::Corruption("store counts disagree: " + diff);
}

template <typename Fn>
auto MeteredStore::Timed(Op* op, const char* span_name, Fn&& fn) {
  ScopedSpan span(span_name);
  const int64_t t0 = NowMicros();
  const int64_t latency = op->latency_micros.load(std::memory_order_relaxed);
  if (latency > 0) wall_.AdvanceMicros(latency);
  auto result = fn();
  op->count.fetch_add(1, std::memory_order_relaxed);
  op->busy_micros.fetch_add(NowMicros() - t0, std::memory_order_relaxed);
  if (!result.ok()) failed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Status MeteredStore::Put(const std::string& key, const std::string& data) {
  Status s = Timed(&put_, "store.put", [&] { return inner_->Put(key, data); });
  if (s.ok()) put_.bytes.fetch_add(data.size(), std::memory_order_relaxed);
  if (key.rfind("data/", 0) == 0 || key.rfind("dv/", 0) == 0) {
    put_data_.fetch_add(1, std::memory_order_relaxed);
  } else if (key.rfind("wal/", 0) == 0) {
    put_wal_.fetch_add(1, std::memory_order_relaxed);
  } else {
    put_catalog_.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

Result<std::string> MeteredStore::Get(const std::string& key) {
  Result<std::string> r =
      Timed(&get_, "store.get", [&] { return inner_->Get(key); });
  if (r.ok()) get_.bytes.fetch_add(r->size(), std::memory_order_relaxed);
  return r;
}

Result<std::string> MeteredStore::ReadRange(const std::string& key,
                                            uint64_t offset, uint64_t len) {
  Result<std::string> r = Timed(
      &get_, "store.get", [&] { return inner_->ReadRange(key, offset, len); });
  if (r.ok()) get_.bytes.fetch_add(r->size(), std::memory_order_relaxed);
  return r;
}

Result<std::vector<eon::ObjectMeta>> MeteredStore::List(
    const std::string& prefix) {
  Result<std::vector<eon::ObjectMeta>> r =
      Timed(&list_, "store.list", [&] { return inner_->List(prefix); });
  if (r.ok()) {
    uint64_t bytes = 0;
    for (const eon::ObjectMeta& m : *r) bytes += m.key.size();
    list_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  return r;
}

Status MeteredStore::Delete(const std::string& key) {
  return Timed(&del_, "store.delete", [&] { return inner_->Delete(key); });
}

Status MeteredStore::ScanObject(const eon::ScanObjectRequest& request,
                                eon::ScanObjectResponse* response) {
  Status s = Timed(&scan_, "store.scan",
                   [&] { return inner_->ScanObject(request, response); });
  if (s.ok()) {
    scan_.bytes.fetch_add(response->response_bytes, std::memory_order_relaxed);
  }
  return s;
}

// --- Fixture -------------------------------------------------------------------

std::vector<Row> EventBatch(int64_t writer, int64_t batch, uint64_t seed,
                            int64_t count) {
  eon::Random rng(seed ^ (static_cast<uint64_t>(writer) << 40) ^
                  static_cast<uint64_t>(batch));
  std::vector<Row> rows;
  for (int64_t i = 0; i < count; ++i) {
    rows.push_back(Row{eon::Value::Int(writer), eon::Value::Int(batch),
                       eon::Value::Int(i),
                       eon::Value::Int(rng.UniformRange(0, 1000000))});
  }
  return rows;
}

std::string InsertSql(const std::vector<Row>& rows) {
  std::string sql = "INSERT INTO events VALUES ";
  for (size_t r = 0; r < rows.size(); ++r) {
    sql += r == 0 ? "(" : ", (";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) sql += ", ";
      sql += std::to_string(rows[r][c].int_value());
    }
    sql += ")";
  }
  return sql;
}

// --- Layers --------------------------------------------------------------------

void Layers::AddProfile(const eon::obs::QueryProfile& p, size_t returned) {
  for (size_t i = 0; i < eon::obs::kNumQueryPhases; ++i) {
    phase_ms[i] += static_cast<double>(p.phase[i].wall_micros) / 1000.0;
  }
  task_cpu_ms += static_cast<double>(p.exec_task_cpu_micros) / 1000.0;
  critical_cpu_ms += static_cast<double>(p.exec_critical_cpu_micros) / 1000.0;
  fetch_wait_ms += static_cast<double>(p.exec_fetch_wait_micros) / 1000.0;
  rows_scanned += p.rows_scanned_total;
  rows_returned += returned;
  containers_total += p.containers_total;
  containers_pruned += p.containers_pruned;
  values_decoded += p.exec_values_decoded;
  values_unpacked += p.exec_values_unpacked;
  kernel_calls += p.exec_kernel_calls;
}

namespace {
double HistogramSum(const eon::obs::MetricsSnapshot& s, const std::string& name) {
  double sum = 0;
  for (const eon::obs::MetricSample& m : s.samples) {
    if (m.name == name) sum += m.histogram.sum;
  }
  return sum;
}

eon::CacheStats SumCacheStats(eon::EonCluster* cluster) {
  eon::CacheStats sum;
  for (const auto& n : cluster->nodes()) {
    const eon::CacheStats s = n->cache()->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.bytes_filled += s.bytes_filled;
    sum.evictions += s.evictions;
    sum.coalesced += s.coalesced;
    sum.prefetch_issued += s.prefetch_issued;
    sum.prefetch_useful += s.prefetch_useful;
    sum.prefetch_wasted += s.prefetch_wasted;
  }
  return sum;
}

eon::WalStats SumWalStats(eon::EonCluster* cluster) {
  eon::WalStats sum;
  for (const auto& n : cluster->nodes()) {
    if (n->wal() == nullptr) continue;
    const eon::WalStats s = n->wal()->stats();
    sum.records_appended += s.records_appended;
    sum.bytes_appended += s.bytes_appended;
    sum.groups_flushed += s.groups_flushed;
    sum.commit_wait_micros += s.commit_wait_micros;
  }
  return sum;
}
}  // namespace

LayerWindow::LayerWindow(Fixture* fixture)
    : fixture_(fixture),
      store_(fixture->store->totals()),
      cache_(SumCacheStats(fixture->cluster.get())),
      wal_(SumWalStats(fixture->cluster.get())),
      registry_(eon::obs::MetricsRegistry::Default()->Snapshot()) {}

void LayerWindow::Finish(Layers* l) const {
  eon::EonCluster* cluster = fixture_->cluster.get();
  l->store = fixture_->store->totals().Minus(store_);
  const eon::CacheStats c = SumCacheStats(cluster);
  l->cache.hits = c.hits - cache_.hits;
  l->cache.misses = c.misses - cache_.misses;
  l->cache.bytes_filled = c.bytes_filled - cache_.bytes_filled;
  l->cache.evictions = c.evictions - cache_.evictions;
  l->cache.coalesced = c.coalesced - cache_.coalesced;
  l->cache.prefetch_issued = c.prefetch_issued - cache_.prefetch_issued;
  l->cache.prefetch_useful = c.prefetch_useful - cache_.prefetch_useful;
  l->cache.prefetch_wasted = c.prefetch_wasted - cache_.prefetch_wasted;
  const eon::WalStats w = SumWalStats(cluster);
  l->wal.records_appended = w.records_appended - wal_.records_appended;
  l->wal.bytes_appended = w.bytes_appended - wal_.bytes_appended;
  l->wal.groups_flushed = w.groups_flushed - wal_.groups_flushed;
  l->wal.commit_wait_micros = w.commit_wait_micros - wal_.commit_wait_micros;

  const eon::obs::MetricsSnapshot d =
      eon::obs::MetricsRegistry::Default()->Snapshot().Delta(registry_);
  l->catalog_commits =
      static_cast<uint64_t>(d.SumAcrossLabels("eon_cluster_commits_total"));
  l->pool_tasks = static_cast<uint64_t>(d.SumAcrossLabels("eon_pool_tasks_total"));
  l->io_pool_tasks =
      static_cast<uint64_t>(d.SumAcrossLabels("eon_io_pool_tasks_total"));
  l->io_pool_task_ms = HistogramSum(d, "eon_io_pool_task_micros") / 1000.0;
}

void AddLayerMetrics(const Layers& l, double per, Report* r) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto n = [per](double v) { return per > 0 ? v / per : v; };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  auto ms = [](int64_t micros) { return static_cast<double>(micros) / 1000.0; };
  const StoreTotals& s = l.store;
  r->Add("storage.get.count", n(d(s.get.count)), "count");
  r->Add("storage.get.bytes", n(d(s.get.bytes)), "B");
  r->Add("storage.get.busy_ms", n(ms(s.get.busy_micros)), "ms");
  r->Add("storage.put.count", n(d(s.put.count)), "count");
  r->Add("storage.put.bytes", n(d(s.put.bytes)), "B");
  r->Add("storage.put.busy_ms", n(ms(s.put.busy_micros)), "ms");
  r->Add("storage.list.count", n(d(s.list.count)), "count");
  r->Add("storage.list.bytes", n(d(s.list.bytes)), "B");
  r->Add("storage.list.busy_ms", n(ms(s.list.busy_micros)), "ms");
  r->Add("storage.delete.count", n(d(s.del.count)), "count");
  r->Add("storage.delete.busy_ms", n(ms(s.del.busy_micros)), "ms");
  r->Add("storage.failed", n(d(s.failed)), "count");
  r->Add("storage.put.data", n(d(s.put_data)), "count");
  r->Add("storage.put.wal", n(d(s.put_wal)), "count");
  r->Add("storage.put.catalog", n(d(s.put_catalog)), "count");

  const eon::CacheStats& c = l.cache;
  r->Add("cache.hit_ratio", ratio(d(c.hits), d(c.hits + c.misses)), "ratio");
  r->Add("cache.fill_bytes", n(d(c.bytes_filled)), "B");
  r->Add("cache.coalesced", n(d(c.coalesced)), "count");
  r->Add("cache.evictions", n(d(c.evictions)), "count");
  r->Add("cache.prefetch.issued", n(d(c.prefetch_issued)), "count");
  r->Add("cache.prefetch.wasted", n(d(c.prefetch_wasted)), "count");
  r->Add("cache.prefetch.useful_ratio",
         ratio(d(c.prefetch_useful), d(c.prefetch_issued)), "ratio");

  static const char* kPhases[] = {"plan", "scan", "join", "aggregate", "merge"};
  for (size_t i = 0; i < eon::obs::kNumQueryPhases; ++i) {
    r->Add(std::string("engine.") + kPhases[i] + "_ms", n(l.phase_ms[i]), "ms");
  }
  r->Add("engine.task_cpu_ms", n(l.task_cpu_ms), "ms");
  r->Add("engine.parallelism", ratio(l.task_cpu_ms, l.critical_cpu_ms), "ratio");
  r->Add("engine.fetch_wait_ms", n(l.fetch_wait_ms), "ms");
  r->Add("engine.rows_scanned_per_row_returned",
         ratio(d(l.rows_scanned), d(l.rows_returned)), "ratio");
  r->Add("engine.containers_pruned_ratio",
         ratio(d(l.containers_pruned), d(l.containers_total)), "ratio");
  r->Add("columnar.values_decoded", n(d(l.values_decoded)), "count");
  r->Add("columnar.values_unpacked", n(d(l.values_unpacked)), "count");
  r->Add("columnar.kernel_calls", n(d(l.kernel_calls)), "count");
  r->Add("shard.context_us", l.context_us, "us");

  r->Add("sql.parse_us", l.parse_us, "us");
  r->Add("server.wire_overhead_us", l.wire_overhead_us, "us");
  r->Add("server.admission_wait_p99_ms", l.admission_wait_p99_ms, "ms");
  r->Add("server.shed", d(l.shed), "count");
  r->Add("server.timed_out", d(l.timed_out), "count");
  r->Add("server.peak_slots", l.peak_slots, "count");

  const eon::WalStats& w = l.wal;
  r->Add("wal.groups", n(d(w.groups_flushed)), "count");
  r->Add("wal.records_per_group",
         ratio(d(w.records_appended), d(w.groups_flushed)), "ratio");
  r->Add("wal.commit_wait_ms", n(ms(w.commit_wait_micros)), "ms");
  r->Add("wal.bytes", n(d(w.bytes_appended)), "B");
  r->Add("wos.unflushed_rows_max", d(l.wos_unflushed_max), "count");
  r->Add("tm.moveouts", n(d(l.moveouts)), "count");
  r->Add("tm.moveout_rows", n(d(l.moveout_rows)), "count");
  r->Add("tm.write_amp", ratio(d(s.put.bytes), d(l.user_bytes)), "ratio");
  r->Add("catalog.commits", n(d(l.catalog_commits)), "count");
  r->Add("pool.tasks", n(d(l.pool_tasks)), "count");
  r->Add("io_pool.tasks", n(d(l.io_pool_tasks)), "count");
  r->Add("io_pool.task_ms", n(l.io_pool_task_ms), "ms");
  r->Add("loadgen.late_p99_ms", l.late_p99_ms, "ms");
  r->Add("trace.overhead_pct", l.trace_overhead_pct, "%");
}

Result<std::unique_ptr<Fixture>> BuildFixture(const Pins& pins) {
  auto f = std::make_unique<Fixture>();
  eon::SimStoreOptions sopts;
  sopts.get_latency_micros = 0;
  sopts.put_latency_micros = 0;
  sopts.list_latency_micros = 0;
  sopts.delete_latency_micros = 0;
  sopts.scan_latency_micros = 0;
  sopts.bandwidth_bytes_per_sec = 0;
  sopts.ndp_scan_bytes_per_sec = 0;
  sopts.metrics_name = "eonbench";
  f->sim = std::make_unique<eon::SimObjectStore>(sopts, &f->clock);
  f->store = std::make_unique<MeteredStore>(f->sim.get());

  eon::ClusterOptions copts;
  copts.num_shards = kShards;
  copts.k_safety = 2;
  copts.node.cache.capacity_bytes = pins.cache_bytes;
  copts.node.cache.max_inflight_prefetch_bytes = pins.prefetch_byte_cap;
  copts.node.dc.slow_query_micros = pins.slow_query_micros;
  copts.node.dc.trace_ring = pins.trace_ring;
  copts.exec_threads = pins.exec_threads;
  copts.io_threads = pins.io_threads;
  copts.prefetch_depth = pins.prefetch_depth;
  copts.pushdown = pins.pushdown;
  copts.pushdown_selectivity_cutoff = pins.pushdown_cutoff;
  copts.trace_sample = pins.trace_sample;
  copts.wos = pins.wos;
  copts.group_commit_micros = pins.group_commit_micros;
  copts.wos_flush_rows = pins.wos_flush_rows;
  std::vector<eon::NodeSpec> specs;
  for (int i = 1; i <= kNodes; ++i) {
    specs.push_back(eon::NodeSpec{"node" + std::to_string(i), ""});
  }
  EON_ASSIGN_OR_RETURN(f->cluster, eon::EonCluster::Create(
                                       f->store.get(), &f->clock, copts, specs));

  f->tpch.scale = kScale;  // Data seed stays the TpchOptions default.
  f->data = eon::GenerateTpch(f->tpch);
  EON_RETURN_IF_ERROR(eon::CreateTpchTables(f->cluster.get()));
  EON_RETURN_IF_ERROR(eon::LoadTpch(f->cluster.get(), f->data, 512));
  // Compact the daily-partitioned load as a steady-state tuple mover
  // would have (same schedule as the Figure-10 bench).
  eon::TupleMover tm(f->cluster.get(), eon::MergeoutOptions{.stratum_fanin = 2});
  for (int pass = 0; pass < 12; ++pass) {
    EON_ASSIGN_OR_RETURN(uint64_t jobs, tm.RunOnce());
    if (jobs == 0) break;
  }
  eon::Schema events({{"e_writer", eon::DataType::kInt64},
                      {"e_batch", eon::DataType::kInt64},
                      {"e_row", eon::DataType::kInt64},
                      {"e_value", eon::DataType::kInt64}});
  EON_ASSIGN_OR_RETURN(
      eon::Oid events_oid,
      eon::CreateTable(f->cluster.get(), "events", events, std::nullopt,
                       {eon::ProjectionSpec{"events_super",
                                            {},
                                            {"e_writer", "e_batch"},
                                            {"e_batch"}}}));
  (void)events_oid;
  return f;
}

namespace {
eon::Oid EventsOid(eon::EonCluster* cluster) {
  const eon::TableDef* t =
      cluster->AnyUpNode()->catalog()->snapshot()->FindTableByName("events");
  return t == nullptr ? eon::kInvalidOid : t->oid;
}
}  // namespace

uint64_t UnflushedEventRows(eon::EonCluster* cluster) {
  const eon::Oid oid = EventsOid(cluster);
  uint64_t rows = 0;
  for (const auto& n : cluster->nodes()) {
    if (n->wos() != nullptr) rows += n->wos()->UnflushedRows(oid);
  }
  return rows;
}

std::string DataFootprint(eon::EonCluster* cluster) {
  std::map<eon::Oid, const eon::StorageContainerMeta*> containers;
  std::vector<std::shared_ptr<const eon::CatalogState>> snapshots;
  for (const auto& n : cluster->nodes()) {
    snapshots.push_back(n->catalog()->snapshot());
    for (const auto& [oid, c] : snapshots.back()->containers) containers[oid] = &c;
  }
  uint64_t files = 0, bytes = 0;
  for (const auto& [oid, c] : containers) {
    files += c->num_columns;
    bytes += c->total_bytes;
  }
  char buf[200];
  snprintf(buf, sizeof(buf),
           "data: %zu ROS containers, %llu column files, %.2f MB on the "
           "store; cache %llu MB per node",
           containers.size(), static_cast<unsigned long long>(files),
           static_cast<double>(bytes) / 1e6,
           static_cast<unsigned long long>(
               cluster->options().node.cache.capacity_bytes >> 20));
  return buf;
}

std::pair<uint64_t, uint64_t> EventMoveouts(eon::EonCluster* cluster) {
  const eon::Oid oid = EventsOid(cluster);
  std::set<uint64_t> versions;
  std::map<eon::Oid, uint64_t> rows_by_container;
  for (const auto& n : cluster->nodes()) {
    auto snapshot = n->catalog()->snapshot();
    for (const eon::ProjectionDef* p : snapshot->ProjectionsOf(oid)) {
      for (const eon::StorageContainerMeta* c : snapshot->ContainersOf(p->oid)) {
        versions.insert(c->create_version);
        rows_by_container[c->oid] = c->row_count;
      }
    }
  }
  uint64_t rows = 0;
  for (const auto& [container, count] : rows_by_container) rows += count;
  return {versions.size(), rows};
}

// --- Oracles -------------------------------------------------------------------

namespace {

using eon::testing_support::ReferenceExecute;
using eon::testing_support::SameResults;

std::string GroupKey(const Row& row, const std::vector<size_t>& columns) {
  std::string key;
  for (size_t c : columns) key += row[c].ToString() + "|";
  return key;
}

Result<std::vector<size_t>> GroupColumns(const eon::Schema& schema,
                                         const eon::QuerySpec& spec) {
  std::vector<size_t> out;
  for (const std::string& g : spec.group_by) {
    EON_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(g));
    out.push_back(i);
  }
  return out;
}

Row Column(const Row& row, size_t c) { return Row{row[c]}; }

bool NearlyEqual(const eon::Value& a, const eon::Value& b) {
  if (a.type() != eon::DataType::kDouble || b.type() != eon::DataType::kDouble ||
      a.is_null() || b.is_null()) {
    return a == b;
  }
  const double x = a.dbl_value(), y = b.dbl_value();
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

/// SameResults, or equal up to a 1e-9 relative difference in doubles.
/// SameResults compares doubles printed to 9 significant digits, which
/// flags a distributed sum that differs from the serial one in the last
/// bit whenever the value sits on a rounding boundary.
bool Matches(std::vector<Row> a, std::vector<Row> b, bool ordered,
             std::string* diff) {
  if (SameResults(a, b, ordered, diff)) return true;
  if (a.size() != b.size()) return false;
  if (!ordered) {
    auto less = [](const Row& x, const Row& y) {
      for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
        if (x[i].type() == eon::DataType::kDouble) continue;
        if (x[i] != y[i]) return x[i] < y[i];
      }
      return false;
    };
    std::stable_sort(a.begin(), a.end(), less);
    std::stable_sort(b.begin(), b.end(), less);
  }
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!NearlyEqual(a[r][c], b[r][c])) return false;
    }
  }
  diff->clear();
  return true;
}

}  // namespace

Result<ResultOracle> ResultOracle::Build(
    const eon::TpchData& data,
    const std::vector<std::pair<std::string, eon::QuerySpec>>& queries) {
  const eon::testing_support::RefDatabase db =
      eon::testing_support::TpchReferenceDb(data);
  ResultOracle oracle;
  for (const auto& [name, spec] : queries) {
    Expected e;
    e.spec = spec;
    eon::QuerySpec full = spec;
    full.limit = -1;
    EON_ASSIGN_OR_RETURN(e.rows, ReferenceExecute(db, full));
    if (spec.limit >= 0) {
      if (spec.group_by.empty() || !spec.order_by.has_value()) {
        return Status::InvalidArgument(name + ": LIMIT without GROUP BY/ORDER BY");
      }
      // The reference's output schema matches the engine's: group columns
      // first, in GROUP BY order.
      std::vector<size_t> cols;
      for (size_t i = 0; i < spec.group_by.size(); ++i) cols.push_back(i);
      for (const Row& r : e.rows) e.by_group[GroupKey(r, cols)] = r;
    }
    oracle.expected_.push_back(std::move(e));
  }
  return oracle;
}

bool ResultOracle::Check(size_t query, const eon::Schema& schema,
                         const std::vector<Row>& rows,
                         std::string* diff) const {
  const Expected& e = expected_[query];
  if (e.spec.limit < 0) return Matches(rows, e.rows, false, diff);

  const size_t want = std::min<size_t>(e.spec.limit, e.rows.size());
  if (rows.size() != want) {
    *diff = "row count " + std::to_string(rows.size()) + " vs " +
            std::to_string(want);
    return false;
  }
  Result<size_t> order = schema.IndexOf(*e.spec.order_by);
  Result<std::vector<size_t>> groups = GroupColumns(schema, e.spec);
  if (!order.ok() || !groups.ok()) {
    *diff = "result schema lacks the order/group columns";
    return false;
  }
  // Ties at the cutoff may pick different rows, but the top order values
  // are fixed, and each returned row must be its group's exact answer.
  std::vector<Row> got_order, want_order;
  for (size_t i = 0; i < want; ++i) {
    got_order.push_back(Column(rows[i], *order));
    want_order.push_back(Column(e.rows[i], *order));
  }
  if (!Matches(got_order, want_order, true, diff)) return false;
  for (const Row& r : rows) {
    auto it = e.by_group.find(GroupKey(r, *groups));
    if (it == e.by_group.end()) {
      *diff = "unknown group " + GroupKey(r, *groups);
      return false;
    }
    if (!Matches({r}, {it->second}, true, diff)) return false;
  }
  return true;
}

std::string EventsOracle::Sql(int64_t from_batch) {
  return "SELECT e_writer, COUNT(*) AS n, SUM(e_batch) AS batch_sum, "
         "SUM(e_row) AS row_sum, MIN(e_batch) AS min_batch, MAX(e_batch) AS "
         "max_batch FROM events WHERE e_batch >= " +
         std::to_string(from_batch) + " GROUP BY e_writer";
}

bool EventsOracle::Check(const std::vector<Row>& rows, int64_t from_batch,
                         int64_t own_writer, int64_t own_acked,
                         std::string* diff) {
  std::map<int64_t, int64_t> now;
  for (const Row& r : rows) {
    if (r.size() != 6) {
      *diff = "events row has " + std::to_string(r.size()) + " columns";
      return false;
    }
    const int64_t writer = r[0].int_value();
    const int64_t n = r[1].int_value();
    const int64_t batch_sum = r[2].int_value();
    const int64_t row_sum = r[3].int_value();
    const int64_t min_batch = r[4].int_value();
    const int64_t max_batch = r[5].int_value();
    // Batches from_batch..max_batch, each with all its rows.
    const int64_t batches = max_batch - from_batch + 1;
    if (min_batch != from_batch || batches <= 0 ||
        n != kBatchRows * batches ||
        batch_sum != kBatchRows * ((from_batch + max_batch) * batches / 2) ||
        row_sum != batches * kBatchRows * (kBatchRows - 1) / 2) {
      *diff = "writer " + std::to_string(writer) + " is not a whole-batch "
              "prefix: n=" + std::to_string(n) + " batches " +
              std::to_string(min_batch) + ".." + std::to_string(max_batch) +
              " from " + std::to_string(from_batch);
      return false;
    }
    now[writer] = max_batch;
  }
  for (const auto& [writer, max_batch] : seen_) {
    if (max_batch < from_batch) continue;  // Below the window.
    auto it = now.find(writer);
    if (it == now.end() || it->second < max_batch) {
      *diff = "writer " + std::to_string(writer) + " shrank from batch " +
              std::to_string(max_batch);
      return false;
    }
  }
  if (own_acked >= from_batch) {
    auto it = now.find(own_writer);
    if (it == now.end() || it->second < own_acked) {
      *diff = "acknowledged batch " + std::to_string(own_acked) +
              " of writer " + std::to_string(own_writer) + " not visible";
      return false;
    }
  }
  for (const auto& [writer, max_batch] : now) seen_[writer] = max_batch;
  return true;
}

Status SelfCheckOracles(const ResultOracle& oracle,
                        const std::vector<Row>& good_rows,
                        const eon::Schema& schema, size_t query) {
  std::string diff;
  if (!oracle.Check(query, schema, good_rows, &diff)) {
    return Status::Corruption("oracle rejects a correct result: " + diff);
  }
  if (good_rows.empty() || good_rows[0].empty()) {
    return Status::InvalidArgument("self-check needs a non-empty result");
  }
  std::vector<Row> corrupted = good_rows;
  Row& victim = corrupted[0];
  eon::Value& v = victim.back();
  v = v.type() == eon::DataType::kDouble ? eon::Value::Dbl(v.dbl_value() + 1.0)
                                         : eon::Value::Int(v.int_value() + 1);
  if (oracle.Check(query, schema, corrupted, &diff)) {
    return Status::Corruption("oracle accepted a corrupted tpch result");
  }

  // Events: a torn batch, then a prefix that shrinks on one connection.
  auto row = [](int64_t writer, int64_t from, int64_t max_batch, int64_t n) {
    const int64_t b = max_batch - from + 1;
    return Row{eon::Value::Int(writer), eon::Value::Int(n),
               eon::Value::Int(kBatchRows * ((from + max_batch) * b / 2)),
               eon::Value::Int(b * kBatchRows * (kBatchRows - 1) / 2),
               eon::Value::Int(from), eon::Value::Int(max_batch)};
  };
  EventsOracle events;
  if (events.Check({row(1, 0, 2, 3 * kBatchRows - 1)}, 0, 0, -1, &diff)) {
    return Status::Corruption("events oracle accepted a torn batch");
  }
  if (!events.Check({row(1, 0, 4, 5 * kBatchRows)}, 0, 0, -1, &diff) ||
      events.Check({row(1, 1, 3, 3 * kBatchRows)}, 1, 0, -1, &diff)) {
    return Status::Corruption("events oracle accepted a shrinking prefix");
  }
  return Status::OK();
}

}  // namespace eonbench
