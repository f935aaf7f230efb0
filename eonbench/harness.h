// Shared pieces of the end-to-end Eon benchmark: pinned engine knobs, the
// metered object-store decorator, the in-memory span log, the TPC-H
// fixture, result oracles, and the report every workload fills.

#ifndef EONBENCH_HARNESS_H_
#define EONBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "engine/query.h"
#include "obs/trace.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "workload/tpch.h"

namespace eonbench {

using eon::Result;
using eon::Row;
using eon::Status;

inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Sample statistics -----------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Latencies tagged with the one-second window in which they started
/// (scheduled arrival on serve_mixed).
struct Samples {
  std::vector<double> ms;
  std::vector<int64_t> window;

  void Add(int64_t at_micros, double value) {
    ms.push_back(value);
    window.push_back(at_micros / 1000000);
  }
  void Append(const Samples& other);
  /// Median over windows of `window_seconds` of each window's q-quantile.
  /// A short stall on the host slows the statements of a few windows (under
  /// open-loop load, every statement queued behind it); this lets those
  /// windows pass where the pooled quantile would move with them.
  double WindowedQuantile(double q, int64_t window_seconds = 1) const;
  double WindowedMedian() const { return WindowedQuantile(0.5); }
};

// --- Pinned knobs ------------------------------------------------------------

/// Every engine knob that would otherwise be resolved from an EON_*
/// environment variable, pinned so a run measures the same configuration
/// on any host.
struct Pins {
  int exec_threads = 2;        ///< EON_EXEC_THREADS
  int io_threads = 4;          ///< EON_IO_THREADS
  int prefetch_depth = 4;      ///< EON_PREFETCH_DEPTH
  int pushdown = 0;            ///< EON_PUSHDOWN (off)
  double pushdown_cutoff = 0.35;  ///< EON_PUSHDOWN_SELECTIVITY_CUTOFF
  double trace_sample = eon::ClusterOptions::kTraceDisabled;  ///< EON_TRACE_SAMPLE
  int wos = 1;                         ///< EON_WOS
  int64_t group_commit_micros = 200;   ///< EON_GROUP_COMMIT_MICROS
  int64_t wos_flush_rows = 512;        ///< EON_WOS_FLUSH_ROWS
  int exec_slots = 4;                  ///< EON_EXEC_SLOTS
  uint64_t prefetch_byte_cap = 64ULL << 20;  ///< EON_PREFETCH_BYTE_CAP
  int64_t slow_query_micros = 10000;   ///< EON_SLOW_QUERY_MICROS
  size_t trace_ring = 4096;            ///< EON_TRACE_RING
  uint64_t cache_bytes = 256ULL << 20;
};

/// One-line JSON description of the pins, host and build.
std::string ConfigJson(const Pins& pins);

// --- Span log ----------------------------------------------------------------

/// Spans recorded by the benchmark's own code around calls into the
/// engine, kept in an obs::Tracer on a wall clock. Armed only in traced
/// runs, where spans are kept during odd one-second windows and skipped
/// during even ones, so one run yields both traced and untraced samples of
/// the same workload; the difference is the tracing overhead.
class SpanLog {
 public:
  static constexpr int64_t kWindowMicros = 1000000;
  /// Well above the spans of a 60-second traced run.
  static constexpr size_t kMaxSpans = 1 << 17;

  static SpanLog& Get();

  void Arm(int64_t start_micros) {
    start_micros_ = start_micros;
    armed_.store(true, std::memory_order_release);
  }
  void Disarm() { armed_.store(false, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }
  /// Whether a span starting at `now` is recorded.
  bool Active(int64_t now) const {
    return armed() && ((now - start_micros_) / kWindowMicros) % 2 == 1;
  }

  eon::obs::Tracer* tracer() { return &tracer_; }
  /// Chrome trace-event JSON of every recorded span.
  Status Write(const std::string& path) const;

 private:
  std::atomic<bool> armed_{false};
  int64_t start_micros_ = 0;
  eon::WallClock clock_;
  eon::obs::Tracer tracer_{&clock_, kMaxSpans};
};

/// RAII span; the enclosing span on this thread becomes its parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  eon::obs::Span span_;  ///< Inert when the span is not recorded.
  uint64_t parent_ = 0;
};

// --- Metered object store ----------------------------------------------------

/// First-byte latency the decorator sleeps per request class, on a wall
/// clock. Zero during setup.
struct StoreLatency {
  int64_t get_micros = 0;
  int64_t put_micros = 0;
  int64_t list_micros = 0;
  int64_t delete_micros = 0;
};

/// The latency model every workload runs under once setup is done: the
/// SimStoreOptions S3 defaults scaled down by 7.5x so a run fits in
/// seconds (GET 15 ms -> 2 ms, PUT 25 -> 3.3, LIST 30 -> 4, DELETE 15 -> 2).
inline StoreLatency MeasuredLatency() { return {2000, 3300, 4000, 2000}; }

struct OpTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
  int64_t busy_micros = 0;  ///< Wall time inside the call, sleep included.
};

struct StoreTotals {
  OpTotals get, put, list, del, scan;
  uint64_t put_data = 0;     ///< PUTs under data/ and dv/ (ROS files).
  uint64_t put_wal = 0;      ///< PUTs under wal/ (log parts, checkpoints).
  uint64_t put_catalog = 0;  ///< Every other PUT (catalog sync, cluster info).
  uint64_t failed = 0;
  uint64_t microdollars = 0;  ///< Request cost at the SimStoreOptions prices.

  StoreTotals Minus(const StoreTotals& base) const;
};

/// Decorator between the cluster and a zero-latency SimObjectStore: times
/// and counts every request, and injects wall-clock latency once setup is
/// over (SimStoreOptions cannot change after construction, and setup's
/// tens of thousands of PUTs would take minutes at real latency).
class MeteredStore : public eon::ObjectStore {
 public:
  explicit MeteredStore(eon::SimObjectStore* inner);

  void SetLatency(const StoreLatency& latency);
  StoreTotals totals() const;
  /// Checks the decorator's per-op counts, bytes and cost against the
  /// inner store's own metrics(); a non-OK status names the mismatch.
  Status Reconcile() const;

  Status Put(const std::string& key, const std::string& data) override;
  Result<std::string> Get(const std::string& key) override;
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t len) override;
  Result<std::vector<eon::ObjectMeta>> List(const std::string& prefix) override;
  Status Delete(const std::string& key) override;
  Status ScanObject(const eon::ScanObjectRequest& request,
                    eon::ScanObjectResponse* response) override;
  eon::ObjectStoreMetrics metrics() const override { return inner_->metrics(); }

 private:
  struct Op {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<int64_t> busy_micros{0};
    std::atomic<int64_t> latency_micros{0};
    OpTotals Load() const;
  };
  /// Sleep the op's injected latency, then run `fn`; records a span named
  /// `span` and the call's wall time.
  template <typename Fn>
  auto Timed(Op* op, const char* span, Fn&& fn);

  eon::SimObjectStore* const inner_;
  eon::WallClock wall_;
  Op get_, put_, list_, del_, scan_;
  std::atomic<uint64_t> put_data_{0}, put_wal_{0}, put_catalog_{0};
  std::atomic<uint64_t> failed_{0};
};

// --- Fixture -------------------------------------------------------------------

constexpr int kNodes = 4;
constexpr uint32_t kShards = 3;
constexpr double kScale = 0.5;

/// The events table written by INSERTs: one batch of kBatchRows rows per
/// statement, every row (writer, batch, row-in-batch, value). Ten rows is
/// the trickle batch of bench/ab_ingest's mixed read/write phase.
constexpr int64_t kBatchRows = 10;
constexpr uint64_t kEventRowBytes = 4 * sizeof(int64_t);
std::vector<Row> EventBatch(int64_t writer, int64_t batch, uint64_t seed,
                            int64_t rows = kBatchRows);
std::string InsertSql(const std::vector<Row>& rows);

/// A 4-node / 3-shard cluster over the metered zero-latency store, loaded
/// with the TPC-H-style data at kScale and compacted by mergeout as the
/// Figure-10 bench does, plus the empty events table. The data set is the
/// same for every run seed: the data seed changes what mergeout produces
/// (216 to 262 column files read per cold pass over five seeds), which
/// would make every timing a function of the seed rather than the code.
struct Fixture {
  eon::SimClock clock;
  std::unique_ptr<eon::SimObjectStore> sim;
  std::unique_ptr<MeteredStore> store;
  std::unique_ptr<eon::EonCluster> cluster;  ///< Destroyed before the stores.
  eon::TpchOptions tpch;
  eon::TpchData data;
};

Result<std::unique_ptr<Fixture>> BuildFixture(const Pins& pins);

/// Sum over nodes of Wos::UnflushedRows for the events table.
uint64_t UnflushedEventRows(eon::EonCluster* cluster);
/// One-line size of the loaded data: ROS containers, column files and
/// bytes on the store (from the catalogs), against the cache capacity.
std::string DataFootprint(eon::EonCluster* cluster);
/// Moveout commits (distinct create versions of events containers) and
/// the rows they moved, read from every node's catalog.
std::pair<uint64_t, uint64_t> EventMoveouts(eon::EonCluster* cluster);

// --- Oracles -------------------------------------------------------------------

/// Reference answers for a fixed query list, computed once by the naive
/// single-node executor in tests/. Queries with LIMIT are checked on the
/// order-column values of the top rows plus each row's exact group, since
/// rows tied at the cutoff may legally differ.
class ResultOracle {
 public:
  static Result<ResultOracle> Build(
      const eon::TpchData& data,
      const std::vector<std::pair<std::string, eon::QuerySpec>>& queries);
  bool Check(size_t query, const eon::Schema& schema,
             const std::vector<Row>& rows, std::string* diff) const;

 private:
  struct Expected {
    eon::QuerySpec spec;
    std::vector<Row> rows;  ///< Full (unlimited) reference result.
    std::map<std::string, Row> by_group;  ///< LIMIT queries only.
  };
  std::vector<Expected> expected_;
};

/// Reads of the events aggregate over batches >= from_batch must show, per
/// writer, whole batches from_batch..max (each complete). Within that
/// window the prefix never shrinks on the reading connection, and it
/// includes the reader's own acknowledged batches.
class EventsOracle {
 public:
  static std::string Sql(int64_t from_batch);
  /// `own_writer`/`own_acked` describe the reading connection's writes
  /// (own_acked = highest acknowledged batch, -1 = none yet).
  bool Check(const std::vector<Row>& rows, int64_t from_batch,
             int64_t own_writer, int64_t own_acked, std::string* diff);

 private:
  std::map<int64_t, int64_t> seen_;  ///< writer -> highest batch observed.
};

/// Proves both oracles reject a deliberately corrupted result.
Status SelfCheckOracles(const ResultOracle& oracle,
                        const std::vector<Row>& good_rows,
                        const eon::Schema& schema, size_t query);

// --- Report --------------------------------------------------------------------

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    notes.push_back("MISMATCH " + std::move(why));
  }
};

/// Per-layer totals of one run, measured from outside each layer. The
/// engine block is filled only by in-process workloads (QueryProfile is
/// not carried over the wire); the server block only by serve_mixed.
struct Layers {
  StoreTotals store;
  eon::CacheStats cache;
  eon::WalStats wal;
  double phase_ms[eon::obs::kNumQueryPhases] = {};
  double task_cpu_ms = 0;
  double critical_cpu_ms = 0;
  double fetch_wait_ms = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  uint64_t containers_total = 0;
  uint64_t containers_pruned = 0;
  uint64_t values_decoded = 0;
  uint64_t values_unpacked = 0;
  uint64_t kernel_calls = 0;
  double context_us = 0;  ///< Median PrepareContext time.
  double parse_us = 0;    ///< Median ParseSelect / ParseInsert time.
  double wire_overhead_us = 0;
  double admission_wait_p99_ms = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;
  int peak_slots = 0;
  uint64_t wos_unflushed_max = 0;
  uint64_t moveouts = 0;
  uint64_t moveout_rows = 0;
  uint64_t user_bytes = 0;  ///< Row bytes of acknowledged INSERTs.
  uint64_t catalog_commits = 0;
  uint64_t pool_tasks = 0;
  uint64_t io_pool_tasks = 0;
  double io_pool_task_ms = 0;
  double late_p99_ms = 0;
  double trace_overhead_pct = 0;

  void AddProfile(const eon::obs::QueryProfile& p, size_t rows_returned);
};

/// Counters at the start of a measurement window; Finish() fills the
/// store (decorator), cache (FileCache::stats), WAL (WalWriter::stats)
/// and registry (MetricsRegistry::Snapshot().Delta()) blocks of `layers`
/// with what the whole cluster did since.
class LayerWindow {
 public:
  explicit LayerWindow(Fixture* fixture);
  void Finish(Layers* layers) const;

 private:
  Fixture* const fixture_;
  const StoreTotals store_;
  const eon::CacheStats cache_;
  const eon::WalStats wal_;
  const eon::obs::MetricsSnapshot registry_;
};

/// Adds every per-layer metric to `report`; counts and times are divided
/// by `per` (passes for the TPC-H workloads, 1 for serve_mixed).
void AddLayerMetrics(const Layers& layers, double per, Report* report);

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool calibrate = false;
};

/// A workload's three stages: Setup (timed, repeated for setup_s),
/// Prepare (reference answers and oracle self-checks, untimed), Run.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status Prepare(Report* report) = 0;
  virtual Status Run(const RunOptions& options, Report* report) = 0;
};

Result<std::unique_ptr<Workload>> SetupTpch(bool cold, uint64_t seed,
                                            const Pins& pins);
Result<std::unique_ptr<Workload>> SetupServe(uint64_t seed, const Pins& pins);

/// Returns freed memory to the OS and restarts the process's peak-RSS
/// count at its current resident size; false when the kernel refuses.
bool ResetPeakRss();
/// Peak resident set size (VmHWM) since the last ResetPeakRss, MB.
double PeakRssMb();

}  // namespace eonbench

#endif  // EONBENCH_HARNESS_H_
