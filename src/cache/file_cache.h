#ifndef EON_CACHE_FILE_CACHE_H_
#define EON_CACHE_FILE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/ros.h"
#include "obs/dc.h"
#include "obs/metrics.h"
#include "storage/object_store.h"

namespace eon {

class IoPool;

/// Shaping policies (Section 5.2): users can keep large batch scans from
/// evicting files that low-latency dashboards depend on.
enum class CachePolicy : uint8_t {
  kDefault = 0,    ///< Normal LRU residency.
  kPin = 1,        ///< Evicted only when nothing unpinned remains.
  kNeverCache = 2, ///< Pass through to shared storage; never inserted.
};

struct CacheOptions {
  uint64_t capacity_bytes = 1ULL << 30;
  /// Newly loaded files are likely to be queried: insert on write
  /// (Section 5.2). Can be disabled for archive loads.
  bool write_through = true;
  /// Value of the `cache` label on this cache's registry instruments;
  /// empty = auto-assigned "cache<N>". Nodes set their node name here so
  /// per-node cache behavior is distinguishable in one exported snapshot.
  std::string metrics_name;
  /// Metrics registry to record into; null = process default.
  obs::MetricsRegistry* registry = nullptr;
  /// Data Collector to record eviction / miss-fill / coalesced-wait
  /// events into (the `dc_cache_events` system table); null = none.
  /// Nodes pass their own collector here.
  obs::DataCollector* collector = nullptr;
  /// I/O pool for FetchRefAsync / PrefetchAsync / parallel WarmFrom.
  /// null = the async entry points run inline on the caller (correct,
  /// just without overlap). Must outlive the cache.
  IoPool* io_pool = nullptr;
  /// Admission bound on speculative reads: bytes of prefetch allowed in
  /// flight at once (by the caller's size hints). Prefetches beyond the
  /// window are rejected, not queued — a demand fetch will still get the
  /// file. 0 = auto: EON_PREFETCH_BYTE_CAP env var, else 64 MiB.
  uint64_t max_inflight_prefetch_bytes = 0;
};

/// One speculative fetch request. The size hint feeds prefetch admission
/// (the in-flight byte window) before the true size is known; callers
/// estimate it from catalog stats. 0 = unknown (counts as free).
struct PrefetchRequest {
  std::string key;
  uint64_t size_hint = 0;
};

/// Aggregate cache counters. Since the registry migration this is a VIEW
/// assembled from the cache's registry instruments by stats() — kept so
/// existing callers and tests read one coherent struct.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes_hit = 0;
  uint64_t bytes_filled = 0;  ///< Bytes fetched from shared storage on miss.
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t drops = 0;
  /// Misses that joined another caller's in-flight fetch of the same key
  /// instead of issuing their own shared-storage read (singleflight).
  uint64_t coalesced = 0;
  /// Speculative reads actually issued to shared storage.
  uint64_t prefetch_issued = 0;
  /// Prefetched files later read by a demand fetch (the prefetch hid that
  /// fetch's latency).
  uint64_t prefetch_useful = 0;
  /// Prefetched files evicted or dropped before any demand read — wasted
  /// store traffic; the admission window exists to bound this.
  uint64_t prefetch_wasted = 0;
  /// Prefetch requests skipped because the file was already resident or
  /// already in flight (demand or another prefetch).
  uint64_t prefetch_coalesced = 0;
  /// Prefetch requests refused by the in-flight byte window.
  uint64_t prefetch_rejected = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Whole-file LRU disk cache in front of shared storage (Section 5.2).
/// Because storage files are never modified once written, the cache only
/// handles add and drop — never invalidate. Serves the engine through the
/// FileFetcher interface.
///
/// Thread-safe, built for morsel-parallel scans:
///  - Sharded locking: keys hash onto independent lock shards, so
///    concurrent hits on different files never serialize on one mutex.
///  - Singleflight: N concurrent misses on one key issue ONE shared
///    storage fetch; the rest wait for it and share the result.
///  - Pinning: FetchRef() returns shared bytes and pins the entry
///    resident until every ref is released, so eviction can never yank a
///    file out from under an in-progress scan. Entry data is refcounted,
///    so even Drop/Clear cannot dangle a live reader.
///
/// LRU semantics are byte-for-byte those of the classic single-list
/// implementation: every access takes a globally unique recency stamp
/// and eviction removes the smallest stamps first, so the eviction order
/// is identical — sharding only splits the locks, not the policy.
class FileCache : public FileFetcher {
 public:
  FileCache(CacheOptions options, ObjectStore* shared_storage);
  /// Waits for every in-flight async fetch/prefetch this cache issued on
  /// the I/O pool (WaitIdle) before tearing down.
  ~FileCache() override;

  /// Fetch through the cache: hit serves the cached copy and refreshes
  /// recency; miss reads shared storage and (policy permitting) inserts.
  Result<std::string> Fetch(const std::string& key) override;

  /// Zero-copy fetch: shares the cached bytes and pins the entry resident
  /// until the returned ref is released. The scan path uses this.
  Result<FileRef> FetchRef(const std::string& key) override;

  /// Non-blocking FetchRef. A resident entry completes immediately on the
  /// caller (no pool hop — the warm path stays as fast as FetchRef); a
  /// miss runs on the I/O pool and rides the same singleflight as every
  /// other fetch of the key. Without an I/O pool this degrades to an
  /// inline FetchRef wrapped in a ready handle.
  PendingFile FetchRefAsync(const std::string& key) override;

  /// Speculative reads: start fetching `requests` into the cache without
  /// waiting. Already-resident / already-in-flight keys are skipped
  /// (prefetch_coalesced); requests that would push the in-flight window
  /// over max_inflight_prefetch_bytes are refused (prefetch_rejected).
  /// A prefetch that loses the race with a demand fetch coalesces via the
  /// shard singleflight, never duplicating a store read. Failures are
  /// dropped — the later demand fetch surfaces (or retries) the error.
  /// Returns how many requests were NOT already resident or in flight
  /// (issued or window-rejected); 0 means the batch was fully warm, which
  /// callers use to back off speculation on hot caches.
  size_t PrefetchAsync(const std::vector<PrefetchRequest>& requests);

  /// Block until no async fetch/prefetch issued by this cache is running
  /// or queued on the I/O pool.
  void WaitIdle();

  /// Fetch bypassing residency ("don't use the cache for this query"):
  /// a hit is still served, but a miss does not insert.
  Result<std::string> FetchBypass(const std::string& key);

  /// Write-through insert at load/mergeout time.
  Status Insert(const std::string& key, const std::string& data);

  /// Remove a file (storage drop or unsubscription purge). Idempotent.
  /// Live refs to the dropped entry keep their bytes (refcounted).
  void Drop(const std::string& key);

  /// Drop every cached file with the given key prefix (shard purge).
  void DropPrefix(const std::string& prefix);

  bool Contains(const std::string& key) const;
  void Clear();

  /// Set the shaping policy for keys with the given prefix (e.g. a table's
  /// storage-id prefix: "cache recent partitions of T" / "never cache T2").
  void SetPolicy(const std::string& key_prefix, CachePolicy policy);

  /// Most-recently-used file keys whose cumulative size fits the budget —
  /// the list a warming peer supplies to a new subscriber (Section 5.2).
  std::vector<std::string> MostRecentlyUsed(uint64_t budget_bytes) const;

  /// Warm this cache: fetch `keys` from `source` (a peer's cache or shared
  /// storage) and insert. Missing keys are skipped, not errors. With an
  /// I/O pool the fetches fan out in parallel (ParallelFor), so warming N
  /// files costs about the slowest fetch per lane rather than the sum;
  /// every fetch completes before the first insert, and insertion runs
  /// serially in reverse key order whatever the pool, so the warmed LRU
  /// order is the same with or without one.
  Status WarmFrom(const std::vector<std::string>& keys, FileFetcher* source);

  /// Resident lookup without recency update or fill — the peer side of
  /// cache warming serves from this so warming neither perturbs the peer's
  /// LRU order nor triggers shared-storage reads on the peer.
  Result<std::string> TryGetResident(const std::string& key) const;

  uint64_t size_bytes() const {
    return size_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t file_count() const {
    return file_count_.load(std::memory_order_relaxed);
  }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }
  /// Current prefetch admission window usage (sum of in-flight hints).
  uint64_t inflight_prefetch_bytes() const {
    return inflight_prefetch_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t max_inflight_prefetch_bytes() const {
    return max_inflight_prefetch_bytes_;
  }
  /// Live FetchRef pin handles (a file pinned twice counts twice).
  uint64_t pinned_refs() const;
  /// Thin view over the registry instruments (see CacheStats).
  CacheStats stats() const;
  /// The `cache` label value of this cache's instruments.
  const std::string& metrics_name() const { return metrics_name_; }
  ObjectStore* shared_storage() const { return shared_; }

 private:
  struct Entry {
    std::shared_ptr<const std::string> data;
    bool policy_pinned = false;  ///< CachePolicy::kPin residency pin.
    /// Inserted by a prefetch and not yet read by any demand fetch.
    /// Speculative residency is the cheapest to give back: these entries
    /// are evicted before ANY demand-inserted entry, and evicting or
    /// dropping one counts as prefetch_wasted.
    bool prefetched = false;
    int ref_pins = 0;            ///< Live FetchRef handles.
    uint64_t gen = 0;            ///< Incarnation; guards stale unpins.
    uint64_t last_access = 0;    ///< Global recency stamp (bigger = newer).
  };

  /// One in-flight shared-storage fetch that concurrent misses join.
  struct Inflight {
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const std::string> data;
    std::condition_variable cv;  ///< Waited on under the shard mutex.
  };

  /// Lock shard: an independent slice of the key space. Lock order, where
  /// multiple locks are needed (eviction, SetPolicy, MRU listing), is
  /// policy_mu_ first, then shards in index order.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
    std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight;
  };

  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(const std::string& key) const;
  CachePolicy PolicyFor(const std::string& key) const;
  uint64_t NextStamp() { return stamp_seq_.fetch_add(1); }
  /// Insert under the shard lock; no capacity enforcement (caller runs
  /// MaybeEvict() after unlocking). `prefetched` marks speculative
  /// inserts (see Entry::prefetched).
  void InsertLocked(Shard& shard, const std::string& key,
                    std::shared_ptr<const std::string> data,
                    CachePolicy policy, bool prefetched = false);
  /// Enforce capacity. Takes every shard lock; call with none held.
  void MaybeEvict();
  void UpdateGauges();
  /// Record into the Data Collector (no-op without one). Safe under any
  /// cache lock: the DC ring mutex is a strict leaf.
  void RecordDcEvent(obs::DcCacheEvent::Kind kind, const std::string& key,
                     uint64_t bytes);
  /// Wrap entry bytes in a ref whose release unpins the entry.
  FileRef MakePinnedRef(const std::string& key, const Entry& entry);
  void ReleasePin(const std::string& key, uint64_t gen);
  Result<FileRef> FetchShared(const std::string& key, bool allow_insert,
                              bool pin);
  /// A demand access touched `entry`: clear the speculative flag and
  /// credit the prefetch as useful. Call under the entry's shard lock.
  void MarkDemandRead(Entry* entry);
  /// Body of one admitted prefetch (runs on the I/O pool, or inline
  /// without one); releases `hint` bytes of the admission window when
  /// done.
  void DoPrefetch(const std::string& key, uint64_t hint);
  void BeginAsyncTask();
  void EndAsyncTask();

  const CacheOptions options_;
  ObjectStore* shared_;
  std::string metrics_name_;

  mutable std::mutex policy_mu_;
  std::map<std::string, CachePolicy> prefix_policies_;

  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> stamp_seq_{1};
  std::atomic<uint64_t> size_bytes_{0};
  std::atomic<uint64_t> file_count_{0};

  uint64_t max_inflight_prefetch_bytes_ = 0;  ///< Resolved at construction.
  std::atomic<uint64_t> inflight_prefetch_bytes_{0};

  /// Async fetch/prefetch tasks issued and not yet finished; the dtor
  /// (and WaitIdle) blocks on this so a pool task never touches a dead
  /// cache.
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;
  uint64_t async_tasks_ = 0;

  // Registry instruments (labels: cache=<metrics_name_>). Resolved once
  // at construction; hot-path updates are lock-free atomics.
  struct {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* bytes_hit = nullptr;
    obs::Counter* bytes_filled = nullptr;
    obs::Counter* insertions = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* drops = nullptr;
    obs::Counter* coalesced = nullptr;
    obs::Counter* prefetch_issued = nullptr;
    obs::Counter* prefetch_useful = nullptr;
    obs::Counter* prefetch_wasted = nullptr;
    obs::Counter* prefetch_coalesced = nullptr;
    obs::Counter* prefetch_rejected = nullptr;
    obs::Gauge* size_bytes = nullptr;
    obs::Gauge* files = nullptr;
    obs::Gauge* pinned_refs = nullptr;
    obs::Gauge* prefetch_inflight_bytes = nullptr;
    /// Wall micros demand fetches spent blocked on a PendingFile.
    obs::Histogram* fetch_wait_micros = nullptr;
    obs::Counter* warm_files = nullptr;     ///< Files inserted by WarmFrom.
    obs::Histogram* warm_micros = nullptr;  ///< Wall per WarmFrom call.
  } metrics_;
};

/// FileFetcher over a peer's cache: serves only files resident on the peer
/// (NotFound otherwise). The warming subscriber "can then either fetch the
/// files from shared storage or from the peer itself" (Section 5.2).
class PeerCacheFetcher : public FileFetcher {
 public:
  explicit PeerCacheFetcher(const FileCache* peer) : peer_(peer) {}
  Result<std::string> Fetch(const std::string& key) override {
    return peer_->TryGetResident(key);
  }

 private:
  const FileCache* peer_;
};

}  // namespace eon

#endif  // EON_CACHE_FILE_CACHE_H_
