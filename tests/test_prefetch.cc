// Async I/O & prefetch tests: the FetchRefAsync / PrefetchAsync cache
// surface (admission window, singleflight collisions, eviction preference,
// failure fallback, parallel warming) and the executor's read-ahead
// pipeline, which must be invisible in results — scans are bit-identical
// at every prefetch depth and exec width. Runs under TSan via
// scripts/tsan.sh (`ctest -L race`).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/file_cache.h"
#include "cluster/cluster.h"
#include "common/io_pool.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "workload/tpch.h"

namespace eon {
namespace {

using testing_support::ReferenceExecute;
using testing_support::SameResults;

// ---------------------------------------------------------------------------
// Cache-level tests: MemObjectStore with f0..f9 of 100 bytes each.
// ---------------------------------------------------------------------------

class PrefetchCacheTest : public ::testing::Test {
 protected:
  PrefetchCacheTest() {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          store_.Put("f" + std::to_string(i), std::string(100, 'a' + i)).ok());
    }
  }

  MemObjectStore store_;
};

/// Store whose Get blocks until the gate opens, so a test can hold a
/// prefetch "in flight against shared storage" deterministically.
class GatedStore : public ObjectStore {
 public:
  explicit GatedStore(ObjectStore* base) : base_(base) {}
  Status Put(const std::string& key, const std::string& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return base_->Get(key);
  }
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t length) override {
    return base_->ReadRange(key, offset, length);
  }
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  ObjectStoreMetrics metrics() const override { return base_->metrics(); }

  /// Block until `n` Get calls are waiting at the gate.
  void WaitForGetters(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  ObjectStore* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TEST_F(PrefetchCacheTest, FetchRefAsyncResidentCompletesImmediately) {
  IoPool pool(IoPool::Options{1, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  opts.io_pool = &pool;
  FileCache cache(opts, &store_);
  ASSERT_TRUE(cache.Fetch("f0").ok());

  int64_t wait_micros = 0;
  {
    PendingFile pending = cache.FetchRefAsync("f0");
    Result<FileRef> got = pending.Wait(&wait_micros);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(**got, std::string(100, 'a'));
    // A resident entry completed inline: the waiter never blocked.
    EXPECT_EQ(wait_micros, 0);
    EXPECT_EQ(cache.pinned_refs(), 1u);
  }
  // The handle and the ref it returned both released: the pin is gone.
  EXPECT_EQ(cache.pinned_refs(), 0u);
}

TEST_F(PrefetchCacheTest, FetchRefAsyncMissCompletesThroughPool) {
  IoPool pool(IoPool::Options{2, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  opts.io_pool = &pool;
  FileCache cache(opts, &store_);

  PendingFile pending = cache.FetchRefAsync("f3");
  Result<FileRef> got = pending.Wait();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, std::string(100, 'd'));
  EXPECT_TRUE(cache.Contains("f3"));
  got->reset();
  // The miss went to shared storage exactly once.
  EXPECT_EQ(store_.metrics().gets, 1u);
}

TEST_F(PrefetchCacheTest, PrefetchInsertsAndDemandReadCountsUseful) {
  // No I/O pool: PrefetchAsync degrades to an inline fetch, which makes
  // the useful/wasted accounting deterministic.
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  FileCache cache(opts, &store_);

  cache.PrefetchAsync({{"f2", 100}});
  EXPECT_TRUE(cache.Contains("f2"));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_useful, 0u);
  // A prefetch fill is not a demand miss.
  EXPECT_EQ(stats.misses, 0u);

  auto got = cache.Fetch("f2");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::string(100, 'c'));
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.prefetch_useful, 1u);

  // Re-prefetching a resident key is suppressed, not re-issued.
  cache.PrefetchAsync({{"f2", 100}});
  EXPECT_EQ(cache.stats().prefetch_issued, 1u);
  EXPECT_EQ(cache.stats().prefetch_coalesced, 1u);
}

TEST_F(PrefetchCacheTest, SingleflightCoalescesDemandWithInflightPrefetch) {
  GatedStore gate(&store_);
  IoPool pool(IoPool::Options{1, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  opts.io_pool = &pool;
  FileCache cache(opts, &gate);

  cache.PrefetchAsync({{"f0", 100}});
  gate.WaitForGetters(1);  // The prefetch is now inside the storage Get.

  std::thread demand([&] {
    Result<std::string> got = cache.Fetch("f0");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, std::string(100, 'a'));
  });
  // Give the demand fetch time to reach the singleflight join; whether it
  // joins or arrives after the fill, the storage read must not duplicate.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  demand.join();
  cache.WaitIdle();

  EXPECT_EQ(store_.metrics().gets, 1u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  // The demand read touched the prefetched bytes: the prefetch was useful.
  EXPECT_EQ(stats.prefetch_useful, 1u);
  EXPECT_EQ(cache.inflight_prefetch_bytes(), 0u);
}

TEST_F(PrefetchCacheTest, ByteCapBoundsInflightPrefetch) {
  GatedStore gate(&store_);
  IoPool pool(IoPool::Options{2, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  opts.io_pool = &pool;
  opts.max_inflight_prefetch_bytes = 150;  // Fits one 100-byte hint.
  FileCache cache(opts, &gate);
  EXPECT_EQ(cache.max_inflight_prefetch_bytes(), 150u);

  cache.PrefetchAsync({{"f0", 100}, {"f1", 100}});
  // First request reserved the window; second was refused, not queued.
  EXPECT_EQ(cache.inflight_prefetch_bytes(), 100u);
  EXPECT_EQ(cache.stats().prefetch_rejected, 1u);

  gate.WaitForGetters(1);
  gate.Open();
  cache.WaitIdle();
  EXPECT_EQ(cache.inflight_prefetch_bytes(), 0u);
  EXPECT_EQ(cache.stats().prefetch_issued, 1u);
  EXPECT_TRUE(cache.Contains("f0"));
  EXPECT_FALSE(cache.Contains("f1"));

  // The cap bounds speculation only — demand fetches are never refused.
  auto got = cache.Fetch("f1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, std::string(100, 'b'));
}

TEST_F(PrefetchCacheTest, EvictionPrefersPrefetchedUnreadEntries) {
  CacheOptions opts;
  opts.capacity_bytes = 300;  // Fits 3 files.
  FileCache cache(opts, &store_);

  ASSERT_TRUE(cache.Fetch("f0").ok());
  ASSERT_TRUE(cache.Fetch("f1").ok());
  cache.PrefetchAsync({{"f2", 100}});  // Inline; newest entry, speculative.
  EXPECT_TRUE(cache.Contains("f2"));

  // Pressure: plain LRU would evict f0 (oldest). Speculative residency is
  // cheaper to give back, so the unread prefetch goes first despite being
  // the newest — and counts as wasted store traffic.
  ASSERT_TRUE(cache.Fetch("f3").ok());
  EXPECT_TRUE(cache.Contains("f0"));
  EXPECT_TRUE(cache.Contains("f1"));
  EXPECT_FALSE(cache.Contains("f2"));
  EXPECT_TRUE(cache.Contains("f3"));
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);

  // A demand-read prefetch graduates to ordinary LRU residency: after a
  // demand read, f4 is no longer preferred prey.
  cache.Drop("f3");  // Make room so the prefetch itself fits.
  cache.PrefetchAsync({{"f4", 100}});
  EXPECT_TRUE(cache.Contains("f4"));
  ASSERT_TRUE(cache.Fetch("f4").ok());
  ASSERT_TRUE(cache.Fetch("f5").ok());  // Evicts f0 (plain LRU), not f4.
  EXPECT_TRUE(cache.Contains("f4"));
  EXPECT_FALSE(cache.Contains("f0"));
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);
}

// Concurrency smoke for TSan: demand readers holding pins while prefetch
// batches churn the same small cache must neither race nor lose pinned
// bytes.
TEST_F(PrefetchCacheTest, PinnedRefsSurvivePrefetchChurn) {
  IoPool pool(IoPool::Options{4, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 300;
  opts.io_pool = &pool;
  FileCache cache(opts, &store_);

  Result<FileRef> held = cache.FetchRef("f0");
  ASSERT_TRUE(held.ok());

  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const int k = (t * 7 + i) % 10;
        Result<FileRef> ref = cache.FetchRef("f" + std::to_string(k));
        if (!ref.ok() || (**ref).size() != 100 || (**ref)[0] != 'a' + k) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<PrefetchRequest> batch;
    for (int k = 1; k < 10; ++k) {
      batch.push_back(PrefetchRequest{"f" + std::to_string(k), 100});
    }
    cache.PrefetchAsync(batch);
  }
  for (std::thread& t : readers) t.join();
  cache.WaitIdle();

  EXPECT_EQ(bad.load(), 0);
  // The pinned entry outlived every eviction decision the churn forced.
  EXPECT_TRUE(cache.Contains("f0"));
  EXPECT_EQ(**held, std::string(100, 'a'));
  EXPECT_EQ(cache.pinned_refs(), 1u);
  held->reset();
  EXPECT_EQ(cache.pinned_refs(), 0u);
  EXPECT_EQ(cache.inflight_prefetch_bytes(), 0u);
  EXPECT_LE(cache.size_bytes(), 300u);
}

TEST_F(PrefetchCacheTest, FailedPrefetchFallsBackToDemand) {
  IoPool pool(IoPool::Options{1, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  opts.io_pool = &pool;
  FileCache cache(opts, &store_);

  cache.PrefetchAsync({{"missing", 40}});
  cache.WaitIdle();
  EXPECT_FALSE(cache.Contains("missing"));
  EXPECT_EQ(cache.stats().prefetch_issued, 1u);
  EXPECT_EQ(cache.inflight_prefetch_bytes(), 0u);

  // The demand path surfaces the error itself — the failed prefetch left
  // nothing behind (no negative caching, no poisoned inflight entry).
  EXPECT_FALSE(cache.Fetch("missing").ok());

  // Once the file exists, demand succeeds: prefetch failures are invisible.
  ASSERT_TRUE(store_.Put("missing", "late arrival").ok());
  auto got = cache.Fetch("missing");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "late arrival");
}

TEST_F(PrefetchCacheTest, WarmFromFansOutOnIoPool) {
  CacheOptions peer_opts;
  peer_opts.capacity_bytes = 10000;
  FileCache peer(peer_opts, &store_);
  for (const char* k : {"f0", "f1", "f2", "f3", "f4"}) {
    ASSERT_TRUE(peer.Fetch(k).ok());
  }

  IoPool pool(IoPool::Options{4, "", nullptr});
  CacheOptions opts;
  opts.capacity_bytes = 10000;
  opts.io_pool = &pool;
  FileCache fresh(opts, &store_);
  PeerCacheFetcher peer_view(&peer);
  ASSERT_TRUE(fresh.WarmFrom(peer.MostRecentlyUsed(10000), &peer_view).ok());

  for (const char* k : {"f0", "f1", "f2", "f3", "f4"}) {
    EXPECT_TRUE(fresh.Contains(k)) << k;
  }
  // Parallel warming pulled from the peer, not shared storage (the peer's
  // 5 initial misses were the only storage reads)...
  EXPECT_EQ(store_.metrics().gets, 5u);
  // ...and preserved the peer's recency order despite the fan-out.
  auto order = fresh.MostRecentlyUsed(150);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "f4");
}

// ---------------------------------------------------------------------------
// Executor-level differential: prefetch must be invisible in results.
// ---------------------------------------------------------------------------

constexpr int kDepths[] = {0, 2, 8};
constexpr int kWidths[] = {1, 4};

/// One fully loaded cluster per (prefetch depth, exec width), all built
/// from the same generated data. (depth 0, width 1) is the serial
/// no-readahead baseline.
struct PrefetchClusters {
  TpchOptions topts;
  TpchData data;
  testing_support::RefDatabase reference;

  struct Instance {
    SimClock clock;
    std::unique_ptr<SimObjectStore> store;
    std::unique_ptr<EonCluster> cluster;
  };
  std::map<std::pair<int, int>, std::unique_ptr<Instance>> by_config;

  static PrefetchClusters* Get() {
    static PrefetchClusters* instance = [] {
      auto* pc = new PrefetchClusters();
      pc->topts.scale = 0.05;
      pc->data = GenerateTpch(pc->topts);
      pc->reference = testing_support::TpchReferenceDb(pc->data);
      for (int depth : kDepths) {
        for (int width : kWidths) {
          auto inst = std::make_unique<Instance>();
          SimStoreOptions sopts;
          sopts.get_latency_micros = 0;
          sopts.put_latency_micros = 0;
          sopts.list_latency_micros = 0;
          inst->store = std::make_unique<SimObjectStore>(sopts, &inst->clock);
          ClusterOptions copts;
          copts.num_shards = 2;
          copts.k_safety = 2;
          copts.exec_threads = width;
          copts.io_threads = 2;
          copts.prefetch_depth = depth;
          std::vector<NodeSpec> specs;
          for (int i = 1; i <= 3; ++i) {
            specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
          }
          auto cluster =
              EonCluster::Create(inst->store.get(), &inst->clock, copts, specs);
          EON_CHECK(cluster.ok());
          inst->cluster = std::move(cluster).value();
          EON_CHECK(inst->cluster->prefetch_depth() == depth);
          EON_CHECK(CreateTpchTables(inst->cluster.get()).ok());
          EON_CHECK(LoadTpch(inst->cluster.get(), pc->data, 256).ok());
          pc->by_config[{depth, width}] = std::move(inst);
        }
      }
      return pc;
    }();
    return instance;
  }
};

/// Empty every node's cache so the next query runs cold — the regime the
/// prefetch pipeline exists for.
void ClearAllCaches(EonCluster* cluster) {
  for (const auto& node : cluster->nodes()) node->cache()->Clear();
}

/// Exact (bit-for-bit) row equality — doubles compare with ==, no
/// tolerance. Read-ahead only changes WHEN files arrive, never what a
/// scan returns, so this must hold at every depth and width.
bool BitIdentical(const std::vector<Row>& a, const std::vector<Row>& b,
                  std::string* diff) {
  if (a.size() != b.size()) {
    *diff = "row count " + std::to_string(a.size()) + " vs " +
            std::to_string(b.size());
    return false;
  }
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      *diff = "row " + std::to_string(r) + " width mismatch";
      return false;
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      bool same = x.type() == y.type() && x.is_null() == y.is_null();
      if (same && !x.is_null()) {
        switch (x.type()) {
          case DataType::kInt64:
            same = x.int_value() == y.int_value();
            break;
          case DataType::kDouble:
            same = x.dbl_value() == y.dbl_value();
            break;
          case DataType::kString:
            same = x.str_value() == y.str_value();
            break;
        }
      }
      if (!same) {
        *diff = "row " + std::to_string(r) + " col " + std::to_string(c) +
                ": " + x.ToString() + " vs " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

/// Query shapes covering the prefetched paths: whole-table scan, a
/// selective predicate scan (the late-mat two-phase shape), a merged
/// group-by, and an ordered predicate scan on a second table.
std::vector<std::pair<std::string, QuerySpec>> PrefetchQuerySet() {
  std::vector<std::pair<std::string, QuerySpec>> out;
  const Schema li = TpchLineitemSchema();
  const Schema ord = TpchOrdersSchema();
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_quantity", "l_shipmode"};
    out.emplace_back("plain_scan", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_extendedprice"};
    q.scan.predicate =
        Predicate::And(Predicate::Cmp(*li.IndexOf("l_shipdate"), CmpOp::kGe,
                                      Value::Int(9800)),
                       Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLe,
                                      Value::Int(25)));
    out.emplace_back("predicate_scan", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_shipmode"};
    q.group_by = {"l_shipmode"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"}};
    out.emplace_back("merged_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "orders";
    q.scan.columns = {"o_orderkey", "o_totalprice", "o_orderpriority"};
    q.scan.predicate = Predicate::Cmp(*ord.IndexOf("o_totalprice"),
                                      CmpOp::kGt, Value::Dbl(5000.0));
    q.order_by = "o_orderkey";
    out.emplace_back("ordered_scan", q);
  }
  return out;
}

// Cold-cache scans must return bit-identical rows at every (prefetch
// depth × exec width), including the late-materialized scan's phase-2
// output columns. The depth-0 serial run is the baseline, and it must
// match the reference executor.
TEST(PrefetchDifferential, ColdScanIdentityAcrossDepthsAndWidths) {
  PrefetchClusters* pc = PrefetchClusters::Get();
  for (const auto& [name, spec] : PrefetchQuerySet()) {
    auto expected = ReferenceExecute(pc->reference, spec);
    ASSERT_TRUE(expected.ok()) << name << ": " << expected.status().ToString();
    std::vector<Row> baseline;
    bool have_baseline = false;
    for (int depth : kDepths) {
      for (int width : kWidths) {
        EonCluster* cluster = pc->by_config[{depth, width}]->cluster.get();
        ClearAllCaches(cluster);
        EonSession session(cluster, "", /*seed=*/31);
        auto result = session.Execute(spec);
        ASSERT_TRUE(result.ok())
            << name << " depth " << depth << " width " << width << ": "
            << result.status().ToString();
        std::string diff;
        if (!have_baseline) {
          EXPECT_TRUE(SameResults(result->rows, *expected, /*ordered=*/false,
                                  &diff))
              << name << " vs reference: " << diff;
          baseline = std::move(result->rows);
          have_baseline = true;
          continue;
        }
        EXPECT_TRUE(BitIdentical(result->rows, baseline, &diff))
            << name << ": depth " << depth << " width " << width
            << " diverged from depth-0 serial: " << diff;
      }
    }
  }
}

// The pipeline actually runs: a cold multi-container scan with read-ahead
// issues speculative fetches and demand reads consume them; a fully warm
// rerun issues none (every request suppressed as already-resident).
TEST(PrefetchDifferential, ColdScanIssuesUsefulPrefetchWarmScanIssuesNone) {
  PrefetchClusters* pc = PrefetchClusters::Get();
  EonCluster* cluster = pc->by_config[{8, 1}]->cluster.get();
  ClearAllCaches(cluster);

  QuerySpec q;
  q.scan.table = "lineitem";
  q.scan.columns = {"l_orderkey", "l_quantity", "l_shipmode"};

  EonSession cold_session(cluster, "", /*seed=*/37);
  auto cold = cold_session.Execute(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->profile.prefetch_issued, 0u);
  EXPECT_GT(cold->profile.prefetch_useful, 0u);
  // One whole-object GET per container read: prefetch and demand read
  // coalesce on the object, and no column costs a request of its own.
  EXPECT_EQ(cold->profile.containers_pruned, 0u);
  EXPECT_EQ(cold->profile.store_gets, cold->profile.containers_total);

  // A fresh session with the same seed replays the same participation
  // decision, so the rerun scans from the nodes the cold run just warmed
  // (EonSession varies serving-node selection per query on purpose).
  EonSession warm_session(cluster, "", /*seed=*/37);
  auto warm = warm_session.Execute(q);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->profile.prefetch_issued, 0u);
  EXPECT_GT(warm->profile.prefetch_coalesced, 0u);
  // Warm demand reads never block on the pipeline.
  EXPECT_EQ(warm->profile.exec_fetch_wait_micros, 0);

  std::string diff;
  EXPECT_TRUE(BitIdentical(warm->rows, cold->rows, &diff)) << diff;
}

}  // namespace
}  // namespace eon
