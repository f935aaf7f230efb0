// Write-optimized-store tests: INSERT fast path through the WAL + WOS,
// union scans vs the flush-then-query oracle (bit-identical across
// thread widths), DELETE/UPDATE over WOS-resident rows,
// moveout (threshold, TupleMover sweep, shared-WAL truncation safety),
// rollback of the parallel upload at every failing PUT, crash recovery
// via WAL replay, and the SQL/session INSERT surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "engine/sql.h"
#include "engine/system_tables.h"
#include "engine/trace.h"
#include "obs/dc.h"
#include "obs/metrics.h"
#include "server/session_manager.h"
#include "storage/sim_object_store.h"
#include "tm/tuple_mover.h"

namespace eon {
namespace {

/// Counts a writer thread's acknowledged commits so a test's main loop
/// can make each of its rounds wait for writer progress: without the
/// wait, the rounds can all finish before the writer's first attempt and
/// the race the test is named for never happens.
class AckLatch {
 public:
  void Ack() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++acked_;
    }
    cv_.notify_all();
  }
  uint64_t acked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acked_;
  }
  /// Waits until more than `mark` commits are acknowledged; false after
  /// `timeout` without one.
  bool WaitBeyond(uint64_t mark, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return acked_ > mark; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t acked_ = 0;
};

/// Runs `rounds` calls of `round(i)`; before each one, waits (bounded)
/// until `latch` has acknowledged a commit since the previous round
/// began, so every round overlaps live writer traffic. Prints the
/// commits interleaved with each round. Returns false, after recording a
/// test failure, when the writer stalls or a round fails.
bool RunRoundsInterleaved(AckLatch* latch, int rounds,
                          const std::function<bool(int)>& round) {
  constexpr std::chrono::seconds kWriterTimeout{60};
  std::vector<uint64_t> interleaved;
  uint64_t mark = 0;
  for (int i = 0; i < rounds; ++i) {
    if (!latch->WaitBeyond(mark, kWriterTimeout)) {
      ADD_FAILURE() << "writer acknowledged no commit within "
                    << kWriterTimeout.count() << " s before round " << i;
      return false;
    }
    const uint64_t now = latch->acked();
    if (i > 0) interleaved.push_back(now - mark);
    mark = now;
    if (!round(i)) return false;
  }
  if (!latch->WaitBeyond(mark, kWriterTimeout)) {
    ADD_FAILURE() << "writer acknowledged no commit within "
                  << kWriterTimeout.count() << " s after the last round";
    return false;
  }
  interleaved.push_back(latch->acked() - mark);
  std::string line = "commits interleaved per round:";
  for (uint64_t n : interleaved) line += " " + std::to_string(n);
  std::printf("%s\n", line.c_str());
  return true;
}

/// Test-local store decorator: fails the k-th PUT of a `data/` key
/// (1-based; 0 = never) and records every `data/` key it was asked to PUT
/// since the last Arm. Everything else passes straight through.
class FailNthDataPut : public ObjectStore {
 public:
  explicit FailNthDataPut(ObjectStore* base) : base_(base) {}

  void Arm(int k) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_at_ = k;
    seen_ = 0;
    attempted_.clear();
  }
  std::vector<std::string> attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }

  Status Put(const std::string& key, const std::string& data) override {
    if (key.rfind("data/", 0) == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      attempted_.push_back(key);
      if (++seen_ == fail_at_) return Status::IOError("injected PUT failure");
    }
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    return base_->Get(key);
  }
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t len) override {
    return base_->ReadRange(key, offset, len);
  }
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  ObjectStoreMetrics metrics() const override { return base_->metrics(); }

 private:
  ObjectStore* const base_;
  mutable std::mutex mu_;
  int fail_at_ = 0;
  int seen_ = 0;
  std::vector<std::string> attempted_;
};

/// Test-local store decorator: while held, every `data/` PUT blocks until
/// Release() — the moveout's ungated build-and-upload window, frozen.
/// Counts every request that returned an error.
class LatchedStore : public ObjectStore {
 public:
  explicit LatchedStore(ObjectStore* base) : base_(base) {}

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  /// Wait (up to 10 s) until a data PUT is blocked on the latch.
  bool WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return blocked_ > 0; });
  }
  int failed() const { return failed_.load(); }

  Status Put(const std::string& key, const std::string& data) override {
    if (key.rfind("data/", 0) == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      if (held_) {
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !held_; });
        --blocked_;
      }
    }
    return Count(base_->Put(key, data));
  }
  Result<std::string> Get(const std::string& key) override {
    return Count(base_->Get(key));
  }
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t len) override {
    return Count(base_->ReadRange(key, offset, len));
  }
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override {
    return Count(base_->List(prefix));
  }
  Status Delete(const std::string& key) override {
    return Count(base_->Delete(key));
  }
  ObjectStoreMetrics metrics() const override { return base_->metrics(); }

 private:
  template <typename R>
  R Count(R r) {
    if (!r.ok()) failed_.fetch_add(1);
    return r;
  }

  ObjectStore* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  int blocked_ = 0;
  std::atomic<int> failed_{0};
};

/// One self-contained cluster (clock + store + nodes) so tests can stand
/// up several side by side (WOS on vs off, width 1 vs 4). With `faulty`
/// set the cluster talks to the store through a FailNthDataPut, then
/// always through a LatchedStore.
struct Bundle {
  SimClock clock;
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<FailNthDataPut> faulty;
  std::unique_ptr<LatchedStore> latch;
  std::unique_ptr<EonCluster> cluster;
};

std::unique_ptr<Bundle> MakeCluster(int exec_threads, int wos,
                                    int64_t flush_rows = int64_t{1} << 40,
                                    bool faulty = false) {
  auto b = std::make_unique<Bundle>();
  SimStoreOptions sopts;
  sopts.get_latency_micros = 0;
  sopts.put_latency_micros = 0;
  sopts.list_latency_micros = 0;
  b->store = std::make_unique<SimObjectStore>(sopts, &b->clock);
  ObjectStore* shared = b->store.get();
  if (faulty) {
    b->faulty = std::make_unique<FailNthDataPut>(shared);
    shared = b->faulty.get();
  }
  b->latch = std::make_unique<LatchedStore>(shared);
  shared = b->latch.get();

  ClusterOptions copts;
  copts.num_shards = 2;
  copts.k_safety = 2;
  copts.exec_threads = exec_threads;
  copts.wos = wos;
  copts.group_commit_micros = 0;  // Flush immediately: deterministic tests.
  copts.wos_flush_rows = flush_rows;
  std::vector<NodeSpec> specs;
  for (int i = 1; i <= 3; ++i) {
    specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
  }
  auto cluster = EonCluster::Create(shared, &b->clock, copts, specs);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  if (!cluster.ok()) return nullptr;
  b->cluster = std::move(cluster).value();

  Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  EXPECT_TRUE(CreateTable(b->cluster.get(), "t", schema, std::nullopt,
                          {ProjectionSpec{"t_super", {}, {"id"}, {"id"}}})
                  .ok());
  return b;
}

std::vector<Row> MakeRows(int64_t from, int64_t n) {
  std::vector<Row> rows;
  for (int64_t i = from; i < from + n; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Dbl(static_cast<double>(i) / 2)});
  }
  return rows;
}

Result<QueryResult> RunQuery(EonCluster* cluster, const QuerySpec& spec) {
  EonSession session(cluster);
  return session.Execute(spec);
}

QuerySpec FullScan() {
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"id", "v"};
  return q;
}

QuerySpec PredScan() {
  QuerySpec q = FullScan();
  q.scan.predicate = Predicate::And(
      Predicate::Cmp(0, CmpOp::kGe, Value::Int(10)),
      Predicate::Cmp(1, CmpOp::kLt, Value::Dbl(27.0)));
  return q;
}

QuerySpec AggQuery() {
  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"id", "v"};
  q.aggregates = {{AggFn::kSum, "id", "s"}, {AggFn::kCount, "", "c"}};
  return q;
}

::testing::AssertionResult RowsIdentical(const std::vector<Row>& a,
                                         const std::vector<Row>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return ::testing::AssertionFailure() << "arity differs at row " << i;
    }
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (!(a[i][c] == b[i][c])) {
        return ::testing::AssertionFailure()
               << "value differs at row " << i << " col " << c << ": "
               << a[i][c].ToString() << " vs " << b[i][c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

uint64_t TotalUnflushed(EonCluster* cluster) {
  uint64_t total = 0;
  for (const auto& n : cluster->nodes()) {
    if (n->wos() != nullptr) total += n->wos()->total_unflushed_rows();
  }
  return total;
}

size_t ContainerCount(EonCluster* cluster) {
  return cluster->AnyUpNode()->catalog()->snapshot()->containers.size();
}

std::vector<std::string> DataKeys(ObjectStore* store) {
  std::vector<std::string> keys;
  auto listed = store->List("data/");
  EXPECT_TRUE(listed.ok());
  if (listed.ok()) {
    for (const ObjectMeta& m : *listed) keys.push_back(m.key);
  }
  return keys;
}

/// Sorted ids of a full scan: equal to the expected ids iff every row is
/// read exactly once.
std::vector<int64_t> ScannedIds(EonCluster* cluster) {
  std::vector<int64_t> ids;
  auto r = RunQuery(cluster, FullScan());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) {
    for (const Row& row : r->rows) ids.push_back(row[0].int_value());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int64_t> IdRange(int64_t n) {
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(WosTest, InsertVisibleBeforeMoveout) {
  auto b = MakeCluster(/*exec_threads=*/1, /*wos=*/1);
  ASSERT_NE(b, nullptr);
  const size_t containers_before = ContainerCount(b->cluster.get());

  auto inserted = InsertInto(b->cluster.get(), "t", MakeRows(0, 10));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(*inserted, 10u);

  // Durable in the log, resident in a memtable — no new ROS containers.
  EXPECT_EQ(ContainerCount(b->cluster.get()), containers_before);
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 10u);

  auto r = RunQuery(b->cluster.get(), FullScan());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 10u);
}

// The tentpole gate: a WOS+ROS union scan returns bit-identical rows to
// querying after the WOS flushed — at thread widths 1 and 4, for plain
// scans, predicated scans, and aggregates.
TEST(WosTest, UnionScanBitIdenticalToFlushOracle) {
  for (int width : {1, 4}) {
    auto b = MakeCluster(width, /*wos=*/1);
    ASSERT_NE(b, nullptr);
    // ROS population: two committed loads; WOS population: three INSERT
    // statements (split sizes exercise multi-batch memtables).
    ASSERT_TRUE(CopyInto(b->cluster.get(), "t", MakeRows(0, 25)).ok());
    ASSERT_TRUE(CopyInto(b->cluster.get(), "t", MakeRows(25, 15)).ok());
    ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(40, 7)).ok());
    ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(47, 7)).ok());
    ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(54, 6)).ok());

    const QuerySpec specs[] = {FullScan(), PredScan(), AggQuery()};
    std::vector<std::vector<Row>> before;
    for (const QuerySpec& spec : specs) {
      auto r = RunQuery(b->cluster.get(), spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      before.push_back(r->rows);
    }

    auto moved = MoveoutWos(b->cluster.get(), "t");
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    EXPECT_EQ(*moved, 20u);
    EXPECT_EQ(TotalUnflushed(b->cluster.get()), 0u);

    for (size_t s = 0; s < before.size(); ++s) {
      auto r = RunQuery(b->cluster.get(), specs[s]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(RowsIdentical(before[s], r->rows))
          << "width " << width << " spec " << s;
    }
  }
}

// EON_WOS=off falls back to direct-ROS COPY; with a deterministic sort
// (unique ids) both paths answer every query identically.
TEST(WosTest, WosOffFallbackBitIdentical) {
  auto on = MakeCluster(1, /*wos=*/1);
  auto off = MakeCluster(1, /*wos=*/0);
  ASSERT_NE(on, nullptr);
  ASSERT_NE(off, nullptr);
  EXPECT_TRUE(on->cluster->wos_enabled());
  EXPECT_FALSE(off->cluster->wos_enabled());
  for (const auto& n : off->cluster->nodes()) {
    EXPECT_FALSE(n->wos_enabled());
  }

  for (auto* b : {on.get(), off.get()}) {
    ASSERT_TRUE(CopyInto(b->cluster.get(), "t", MakeRows(0, 20)).ok());
    ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(20, 9)).ok());
    ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(29, 11)).ok());
  }
  // The off cluster wrote containers immediately; the on cluster holds
  // the inserts in memtables.
  EXPECT_EQ(TotalUnflushed(off->cluster.get()), 0u);
  EXPECT_EQ(TotalUnflushed(on->cluster.get()), 20u);

  QuerySpec ordered = FullScan();
  ordered.order_by = "id";
  QuerySpec pred = PredScan();
  pred.order_by = "id";
  for (const QuerySpec& spec : {ordered, pred, AggQuery()}) {
    auto a = RunQuery(on->cluster.get(), spec);
    auto c = RunQuery(off->cluster.get(), spec);
    ASSERT_TRUE(a.ok() && c.ok());
    EXPECT_TRUE(RowsIdentical(a->rows, c->rows));
  }
}

TEST(WosTest, DeleteAndUpdateCoverWosRows) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(CopyInto(b->cluster.get(), "t", MakeRows(0, 20)).ok());
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(20, 20)).ok());

  // WOS-only delete (ids 30..39) — needs a commit version even though no
  // delete vector is written.
  auto del_wos = DeleteWhere(b->cluster.get(), "t",
                             Predicate::Cmp(0, CmpOp::kGe, Value::Int(30)));
  ASSERT_TRUE(del_wos.ok()) << del_wos.status().ToString();
  EXPECT_EQ(*del_wos, 10u);

  // Mixed delete: ids 0..4 live in ROS, none left in WOS below 5.
  auto del_ros = DeleteWhere(b->cluster.get(), "t",
                             Predicate::Cmp(0, CmpOp::kLt, Value::Int(5)));
  ASSERT_TRUE(del_ros.ok());
  EXPECT_EQ(*del_ros, 5u);

  auto r = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][1].int_value(), 25);  // 40 - 10 - 5.

  // UPDATE touching a WOS-resident row (id 25): delete + reinsert.
  auto updated = UpdateWhere(
      b->cluster.get(), "t", Predicate::Cmp(0, CmpOp::kEq, Value::Int(25)),
      [](Row* row) { (*row)[1] = Value::Dbl(999.0); });
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 1u);

  QuerySpec q = FullScan();
  q.scan.predicate = Predicate::Cmp(0, CmpOp::kEq, Value::Int(25));
  auto row = RunQuery(b->cluster.get(), q);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->rows.size(), 1u);
  EXPECT_EQ(row->rows[0][1].dbl_value(), 999.0);

  // The flush oracle agrees after everything lands in ROS.
  auto before = RunQuery(b->cluster.get(), FullScan());
  ASSERT_TRUE(MoveoutWos(b->cluster.get(), "t").ok());
  auto after = RunQuery(b->cluster.get(), FullScan());
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(RowsIdentical(before->rows, after->rows));
}

TEST(WosTest, MoveoutThresholdSchedulesBackgroundMoveout) {
  auto b = MakeCluster(1, 1, /*flush_rows=*/8);
  ASSERT_NE(b, nullptr);
  const size_t containers_before = ContainerCount(b->cluster.get());
  b->latch->Hold();

  // Below threshold: stays in the memtable.
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(0, 5)).ok());
  EXPECT_EQ(ContainerCount(b->cluster.get()), containers_before);
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 5u);

  // Crossing it: the INSERT returns while the Tuple Mover thread's
  // moveout is still uploading, and the rows read from the WOS.
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(5, 5)).ok());
  ASSERT_TRUE(b->latch->WaitUntilBlocked());
  EXPECT_EQ(ContainerCount(b->cluster.get()), containers_before);
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 10u);
  EXPECT_EQ(ScannedIds(b->cluster.get()), IdRange(10));

  // Containers appear once the upload lands and the mover drains.
  b->latch->Release();
  b->cluster->mover()->Drain();
  EXPECT_GT(ContainerCount(b->cluster.get()), containers_before);
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 0u);
  EXPECT_EQ(ScannedIds(b->cluster.get()), IdRange(10));
}

// An INSERT's rows are durable once its WAL commit returns, so its status
// is that commit's: a moveout it triggers that fails must not turn it
// into an error a client would retry (and write twice).
TEST(WosTest, InsertSucceedsWhenTriggeredMoveoutFails) {
  auto b = MakeCluster(1, 1, /*flush_rows=*/8, /*faulty=*/true);
  ASSERT_NE(b, nullptr);
  b->faulty->Arm(1);
  auto inserted = InsertInto(b->cluster.get(), "t", MakeRows(0, 10));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  b->cluster->mover()->Drain();
  EXPECT_EQ(b->faulty->attempted().size(), 2u);  // The moveout did run.
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 10u);  // And rolled back.
  auto r = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][1].int_value(), 10);
}

// Background moveouts, and direct ones racing them, serialize from the
// snapshot through the truncation: no log is truncated twice at once, so
// no request fails (double DELETEs, a second marker PUT at one LSN) and
// each node's log keeps exactly one checkpoint marker.
TEST(WosTest, OverlappingMoveoutsTruncateEachLogOnce) {
  auto b = MakeCluster(/*exec_threads=*/4, 1, /*flush_rows=*/16);
  ASSERT_NE(b, nullptr);
  EonCluster* cluster = b->cluster.get();
  constexpr int kInserters = 4;
  constexpr int kBatches = 30;
  constexpr int64_t kBatchRows = 5;

  std::atomic<int> inserters_left{kInserters};
  std::atomic<int64_t> acked{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kInserters; ++w) {
    threads.emplace_back([&, w] {
      InsertOptions opts;
      opts.connected_node = "n" + std::to_string(w % 3 + 1);
      for (int i = 0; i < kBatches; ++i) {
        const int64_t from = (w * kBatches + i) * kBatchRows;
        auto ins = InsertInto(cluster, "t", MakeRows(from, kBatchRows), opts);
        if (ins.ok()) {
          acked += kBatchRows;
        } else {
          failures++;
        }
      }
      inserters_left--;
    });
  }
  for (int m = 0; m < 2; ++m) {
    threads.emplace_back([&] {
      while (inserters_left.load() > 0) {
        if (!MoveoutWos(cluster, "t").ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  cluster->mover()->Drain();
  ASSERT_TRUE(MoveoutWos(cluster, "t").ok());

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(b->latch->failed(), 0);
  EXPECT_EQ(TotalUnflushed(cluster), 0u);
  auto r = RunQuery(cluster, AggQuery());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][1].int_value(), acked.load());
  EXPECT_EQ(acked.load(), kInserters * kBatches * kBatchRows);
  for (const auto& n : cluster->nodes()) {
    auto markers = b->store->List(n->WalPrefix() + "ckpt/");
    ASSERT_TRUE(markers.ok());
    EXPECT_EQ(markers->size(), 1u) << n->name();
  }
}

// DELETE and UPDATE while a moveout sits in its ungated window (rows
// snapshotted, containers uploading, nothing committed): each waits the
// moveout out, so deleted rows stay deleted and updated rows appear once.
TEST(WosTest, DeleteAndUpdateDuringUngatedMoveoutWindow) {
  auto b = MakeCluster(/*exec_threads=*/2, 1, /*flush_rows=*/8);
  ASSERT_NE(b, nullptr);
  EonCluster* cluster = b->cluster.get();

  // Runs `statement` on a thread while a moveout is held mid-upload;
  // checks it waits for the moveout, then lets the moveout land.
  auto during_moveout = [&](int64_t from, auto statement) {
    b->latch->Hold();
    EXPECT_TRUE(InsertInto(cluster, "t", MakeRows(from, 10)).ok());
    EXPECT_TRUE(b->latch->WaitUntilBlocked());
    std::atomic<bool> done{false};
    std::thread th([&] {
      statement();
      done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(done.load()) << "statement ran inside the moveout window";
    b->latch->Release();
    th.join();
    cluster->mover()->Drain();
  };

  during_moveout(0, [&] {
    auto deleted =
        DeleteWhere(cluster, "t", Predicate::Cmp(0, CmpOp::kLt, Value::Int(3)));
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(*deleted, 3u);
  });
  during_moveout(10, [&] {
    auto updated = UpdateWhere(
        cluster, "t",
        Predicate::And(Predicate::Cmp(0, CmpOp::kGe, Value::Int(5)),
                       Predicate::Cmp(0, CmpOp::kLt, Value::Int(15))),
        [](Row* row) { (*row)[1] = Value::Dbl(-1.0); });
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(*updated, 10u);
  });

  std::vector<int64_t> expected;
  for (int64_t id = 3; id < 20; ++id) expected.push_back(id);
  EXPECT_EQ(ScannedIds(cluster), expected);
  QuerySpec updated_rows = FullScan();
  updated_rows.scan.predicate = Predicate::Cmp(1, CmpOp::kEq, Value::Dbl(-1.0));
  updated_rows.order_by = "id";
  auto u = RunQuery(cluster, updated_rows);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ASSERT_EQ(u->rows.size(), 10u);
  for (size_t i = 0; i < u->rows.size(); ++i) {
    EXPECT_EQ(u->rows[i][0].int_value(), static_cast<int64_t>(5 + i));
  }

  // Flush-then-query oracle.
  QuerySpec ordered = FullScan();
  ordered.order_by = "id";
  auto before = RunQuery(cluster, ordered);
  ASSERT_TRUE(MoveoutWos(cluster, "t").ok());
  auto after = RunQuery(cluster, ordered);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_TRUE(RowsIdentical(before->rows, after->rows));
}

// Backpressure: with the moveout's upload held, INSERTs to one node block
// once its memtable holds 4x the threshold, and resume when the moveout
// lands. No acknowledged row is lost.
TEST(WosTest, InsertsBlockAtBackpressureCapUntilMoveoutLands) {
  auto b = MakeCluster(1, 1, /*flush_rows=*/8);
  ASSERT_NE(b, nullptr);
  EonCluster* cluster = b->cluster.get();
  obs::Counter* waits =
      obs::OrDefault(nullptr)->GetCounter("eon_wos_backpressure_waits_total");
  const uint64_t waits_before = waits->Value();
  InsertOptions on_n1;
  on_n1.connected_node = "n1";

  b->latch->Hold();
  ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(0, 8), on_n1).ok());
  ASSERT_TRUE(b->latch->WaitUntilBlocked());
  // 8 rows in flight + 24 more = the cap of 32; none of these waits.
  for (int64_t from = 8; from < 32; from += 8) {
    ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(from, 8), on_n1).ok());
  }
  EXPECT_EQ(waits->Value(), waits_before);

  std::atomic<bool> done{false};
  Status blocked_status = Status::OK();
  std::thread blocked([&] {
    blocked_status = InsertInto(cluster, "t", MakeRows(32, 8), on_n1).status();
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "INSERT past the cap did not wait";
  b->latch->Release();
  blocked.join();
  EXPECT_TRUE(blocked_status.ok()) << blocked_status.ToString();
  EXPECT_EQ(waits->Value(), waits_before + 1);

  cluster->mover()->Drain();
  EXPECT_EQ(ScannedIds(cluster), IdRange(40));
}

// Node lifecycle and cluster teardown with a moveout in flight (held
// mid-upload) and another queued behind it: nothing hangs, and every
// acknowledged row is read exactly once after the node comes back.
TEST(WosTest, KillRestartAndTeardownWithMoveoutInFlight) {
  InsertOptions on_n1, on_n2;
  on_n1.connected_node = "n1";
  on_n2.connected_node = "n2";

  // Kill the node whose rows are in flight: the moveout aborts at its
  // commit window, and the rows come back from the WAL on restart.
  {
    auto b = MakeCluster(1, 1, /*flush_rows=*/8);
    ASSERT_NE(b, nullptr);
    EonCluster* cluster = b->cluster.get();
    Node* n1 = cluster->node_by_name("n1");
    b->latch->Hold();
    ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(0, 10), on_n1).ok());
    ASSERT_TRUE(b->latch->WaitUntilBlocked());
    ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(10, 10), on_n2).ok());
    ASSERT_TRUE(cluster->KillNode(n1->oid()).ok());
    b->latch->Release();
    cluster->mover()->Drain();
    ASSERT_TRUE(cluster->RestartNode(n1->oid()).ok());
    EXPECT_EQ(ScannedIds(cluster), IdRange(20));
    ASSERT_TRUE(MoveoutWos(cluster, "t").ok());
    EXPECT_EQ(TotalUnflushed(cluster), 0u);
    EXPECT_EQ(ScannedIds(cluster), IdRange(20));
  }

  // Kill and restart it inside the window: the moveout commits against
  // the replayed memtable, whose batches its flush markers then cover.
  {
    auto b = MakeCluster(1, 1, /*flush_rows=*/8);
    ASSERT_NE(b, nullptr);
    EonCluster* cluster = b->cluster.get();
    Node* n1 = cluster->node_by_name("n1");
    b->latch->Hold();
    ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(0, 10), on_n1).ok());
    ASSERT_TRUE(b->latch->WaitUntilBlocked());
    ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(10, 10), on_n2).ok());
    ASSERT_TRUE(cluster->KillNode(n1->oid()).ok());
    ASSERT_TRUE(cluster->RestartNode(n1->oid(), /*warm_cache=*/false).ok());
    b->latch->Release();
    cluster->mover()->Drain();
    EXPECT_EQ(TotalUnflushed(cluster), 0u);
    EXPECT_EQ(ScannedIds(cluster), IdRange(20));
  }

  // Tear the cluster down: the queued job is dropped, the running one
  // finishes once its upload returns, and the destructor joins it.
  {
    auto b = MakeCluster(1, 1, /*flush_rows=*/8);
    ASSERT_NE(b, nullptr);
    b->latch->Hold();
    ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(0, 10), on_n1).ok());
    ASSERT_TRUE(b->latch->WaitUntilBlocked());
    ASSERT_TRUE(
        InsertInto(b->cluster.get(), "t", MakeRows(10, 10), on_n2).ok());
    std::thread teardown([&] { b->cluster.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b->latch->Release();
    teardown.join();
  }
}

TEST(WosTest, TupleMoverSweepAndSystemTables) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  ASSERT_TRUE(CreateTable(b->cluster.get(), "u", schema, std::nullopt,
                          {ProjectionSpec{"u_super", {}, {"id"}, {"id"}}})
                  .ok());
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(0, 12)).ok());
  ASSERT_TRUE(InsertInto(b->cluster.get(), "u", MakeRows(0, 8)).ok());

  // system_wos sees the memtables before the sweep.
  auto wos_rows = MaterializeSystemTable(b->cluster.get(), "system_wos");
  ASSERT_TRUE(wos_rows.ok());
  uint64_t unflushed = 0;
  for (const Row& row : *wos_rows) unflushed += row[5].int_value();
  EXPECT_EQ(unflushed, 20u);

  TupleMover tm(b->cluster.get());
  auto moved = tm.RunMoveout();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 20u);
  EXPECT_EQ(tm.stats().moveout_rows, 20u);
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 0u);

  // Idempotent when dry.
  auto again = tm.RunMoveout();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);

  // dc_wal_events recorded the durability milestones.
  auto events = MaterializeSystemTable(b->cluster.get(), "dc_wal_events");
  ASSERT_TRUE(events.ok());
  bool saw_group = false, saw_moveout = false, saw_checkpoint = false;
  for (const Row& row : *events) {
    const std::string& kind = row[2].str_value();
    if (kind == "group_commit") saw_group = true;
    if (kind == "moveout") saw_moveout = true;
    if (kind == "checkpoint") saw_checkpoint = true;
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_moveout);
  EXPECT_TRUE(saw_checkpoint);
}

// The WAL is one log per node shared by every table: moveout of one
// table must not truncate another table's unflushed inserts.
TEST(WosTest, MoveoutTruncationPreservesOtherTablesRecords) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  ASSERT_TRUE(CreateTable(b->cluster.get(), "u", schema, std::nullopt,
                          {ProjectionSpec{"u_super", {}, {"id"}, {"id"}}})
                  .ok());
  InsertOptions on_n1;
  on_n1.connected_node = "n1";
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(0, 6), on_n1).ok());
  ASSERT_TRUE(InsertInto(b->cluster.get(), "u", MakeRows(0, 7), on_n1).ok());

  // Moving out t truncates n1's WAL — only up to just below u's batch.
  ASSERT_TRUE(MoveoutWos(b->cluster.get(), "t").ok());

  // Crash n1: its memtable is gone; replay must resurrect u's rows.
  Node* n1 = b->cluster->node_by_name("n1");
  ASSERT_NE(n1, nullptr);
  ASSERT_TRUE(b->cluster->KillNode(n1->oid()).ok());
  ASSERT_TRUE(b->cluster->RestartNode(n1->oid()).ok());

  QuerySpec qu;
  qu.scan.table = "u";
  qu.scan.columns = {"id", "v"};
  qu.aggregates = {{AggFn::kCount, "", "c"}};
  auto ru = RunQuery(b->cluster.get(), qu);
  ASSERT_TRUE(ru.ok()) << ru.status().ToString();
  EXPECT_EQ(ru->rows[0][0].int_value(), 7);

  auto rt = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->rows[0][1].int_value(), 6);
}

TEST(WosTest, RecoveryAfterKillReplaysToCommittedState) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(CopyInto(b->cluster.get(), "t", MakeRows(0, 10)).ok());
  InsertOptions on_n1;
  on_n1.connected_node = "n1";
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(10, 8), on_n1).ok());
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(18, 7), on_n1).ok());
  // A committed tombstone over WOS rows must also survive the crash.
  auto deleted = DeleteWhere(b->cluster.get(), "t",
                             Predicate::Cmp(0, CmpOp::kEq, Value::Int(12)));
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);

  auto before = RunQuery(b->cluster.get(), FullScan());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 24u);

  Node* n1 = b->cluster->node_by_name("n1");
  ASSERT_TRUE(b->cluster->KillNode(n1->oid()).ok());
  ASSERT_TRUE(b->cluster->RestartNode(n1->oid()).ok());
  EXPECT_TRUE(n1->wos_enabled());

  auto after = RunQuery(b->cluster.get(), FullScan());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(RowsIdentical(before->rows, after->rows));

  // And the replayed memtable still feeds a clean moveout.
  auto moved = MoveoutWos(b->cluster.get(), "t");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 14u);  // 15 inserted minus 1 tombstoned.
  auto oracle = RunQuery(b->cluster.get(), FullScan());
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(RowsIdentical(before->rows, oracle->rows));
}

// Regression: after a moveout flushes EVERYTHING, truncation deletes every
// WAL part and leaves only a checkpoint marker at LSN L. A restarted node
// must resume LSN assignment above L — resuming at 1 hands out LSNs the
// next restart's checkpoint filter silently discards, losing committed,
// acknowledged inserts.
TEST(WosTest, RestartAfterFullTruncationKeepsLaterInserts) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  InsertOptions on_n1;
  on_n1.connected_node = "n1";
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(0, 6), on_n1).ok());
  ASSERT_TRUE(MoveoutWos(b->cluster.get(), "t").ok());  // Truncates all.

  Node* n1 = b->cluster->node_by_name("n1");
  ASSERT_NE(n1, nullptr);
  const uint64_t checkpoint = n1->wal()->last_lsn();
  ASSERT_TRUE(b->cluster->KillNode(n1->oid()).ok());
  ASSERT_TRUE(b->cluster->RestartNode(n1->oid()).ok());

  // Committed and acknowledged after the first restart...
  ASSERT_TRUE(InsertInto(b->cluster.get(), "t", MakeRows(6, 4), on_n1).ok());
  EXPECT_GT(n1->wal()->last_lsn(), checkpoint);

  // ...must survive the second: with LSNs reused from 1 the replay's
  // checkpoint filter would drop them.
  ASSERT_TRUE(b->cluster->KillNode(n1->oid()).ok());
  ASSERT_TRUE(b->cluster->RestartNode(n1->oid()).ok());
  auto r = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][1].int_value(), 10);
}

// An UPDATE races concurrent INSERTs: match collection and tombstoning
// happen in one gated window, so a racing row is either updated-and-
// reinserted or untouched — never tombstoned without reinsertion (the
// lost-row bug of collecting matches in a separate earlier pass).
TEST(WosTest, UpdateConcurrentWithInsertsLosesNoRows) {
  auto b = MakeCluster(/*exec_threads=*/4, 1);
  ASSERT_NE(b, nullptr);
  constexpr int kBatches = 20;
  constexpr int64_t kBatchRows = 5;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kBatches; ++i) {
      auto ins = InsertInto(b->cluster.get(), "t",
                            MakeRows(i * kBatchRows, kBatchRows));
      if (!ins.ok()) {
        failures++;
        break;
      }
    }
    done.store(true);
  });
  std::thread updater([&] {
    while (!done.load()) {
      auto u = UpdateWhere(
          b->cluster.get(), "t", Predicate::Cmp(0, CmpOp::kGe, Value::Int(0)),
          [](Row* row) { (*row)[1] = Value::Dbl(-1.0); });
      if (!u.ok()) {
        failures++;
        return;
      }
    }
  });
  writer.join();
  updater.join();
  EXPECT_EQ(failures.load(), 0);

  auto r = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][1].int_value(), kBatches * kBatchRows);
}

// Node lifecycle vs in-flight statements: the WAL/WOS are node-lifetime
// objects (down = close/clear in place), so kill/restart racing inserts
// that already hold the pointers must fail cleanly, never crash, and
// every acknowledged row must still be readable afterwards.
TEST(WosTest, KillAndRestartUnderConcurrentInsertsIsSafe) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  Node* n1 = b->cluster->node_by_name("n1");
  ASSERT_NE(n1, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> acked{0};
  AckLatch latch;
  std::thread writer([&] {
    InsertOptions on_n1;
    on_n1.connected_node = "n1";
    int64_t next = 0;
    while (!stop.load()) {
      // Mid-kill inserts may fail (node down, WAL closed) — never crash.
      auto ins = InsertInto(b->cluster.get(), "t", MakeRows(next, 1), on_n1);
      if (ins.ok()) {
        acked++;
        latch.Ack();
      }
      next++;
    }
  });
  const bool rounds_ok = RunRoundsInterleaved(&latch, 8, [&](int i) {
    Status killed = b->cluster->KillNode(n1->oid());
    EXPECT_TRUE(killed.ok()) << "round " << i << ": " << killed.ToString();
    if (!killed.ok()) return false;
    Status restarted = b->cluster->RestartNode(n1->oid());
    EXPECT_TRUE(restarted.ok()) << "round " << i << ": "
                                << restarted.ToString();
    return restarted.ok();
  });
  stop.store(true);
  writer.join();
  ASSERT_TRUE(rounds_ok);

  // Acknowledged inserts were durable before their ack: all are visible.
  auto r = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->rows[0][1].int_value(), acked.load());
  // The survivors still feed a clean moveout.
  ASSERT_TRUE(MoveoutWos(b->cluster.get(), "t").ok());
}

// Instance recovery races a writer committing INSERTs and COPYs. Taking
// the peer checkpoint and coming up are one step for concurrent commits:
// a commit landing in between would skip the still-down node, leave its
// catalog a version behind, and fail the next replication to it. Every
// acknowledged row must then be readable through the recovered node.
TEST(WosTest, InstanceRecoveryUnderConcurrentCommitsLosesNoRows) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  Node* n1 = b->cluster->node_by_name("n1");
  Node* n3 = b->cluster->node_by_name("n3");
  ASSERT_NE(n3, nullptr);

  std::atomic<bool> stop{false};
  std::mutex acked_mu;
  std::set<int64_t> acked;
  AckLatch latch;
  std::thread writer([&] {
    InsertOptions on_n1;
    on_n1.connected_node = "n1";
    for (int64_t next = 0; !stop.load(); next += 2) {
      // Commits racing the recovery may fail (a subscription changing
      // under a COPY aborts it); only acknowledged rows count.
      std::vector<Row> rows = MakeRows(next, 2);
      const bool ok =
          (next / 2) % 2 == 0
              ? InsertInto(b->cluster.get(), "t", rows, on_n1).ok()
              : CopyInto(b->cluster.get(), "t", rows).ok();
      if (!ok) continue;
      {
        std::lock_guard<std::mutex> lock(acked_mu);
        acked.insert({next, next + 1});
      }
      latch.Ack();
    }
  });
  const bool rounds_ok = RunRoundsInterleaved(&latch, 25, [&](int i) {
    Status destroyed = b->cluster->DestroyNodeInstance(n3->oid());
    EXPECT_TRUE(destroyed.ok()) << destroyed.ToString();
    Status recovered =
        b->cluster->RecoverDestroyedNode(n3->oid(), /*warm_cache=*/false);
    EXPECT_TRUE(recovered.ok()) << "round " << i << ": "
                                << recovered.ToString();
    return destroyed.ok() && recovered.ok();
  });
  stop.store(true);
  writer.join();
  ASSERT_TRUE(rounds_ok);
  ASSERT_TRUE(n3->is_up());
  EXPECT_EQ(n3->catalog()->version(), n1->catalog()->version());

  // Serve every shard n3 subscribes to from n3, so its catalog supplies
  // those shards' container lists.
  auto context = BuildExecContext(b->cluster.get(), "", 0);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  for (ShardId shard : n3->SubscribedShards({SubscriptionState::kActive})) {
    if (context->participation.shard_to_node.count(shard)) {
      context->participation.shard_to_node[shard] = n3->oid();
    }
  }
  auto r = ExecuteQuery(b->cluster.get(), FullScan(), *context);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<int64_t> seen;
  for (const Row& row : r->rows) seen.insert(row[0].int_value());
  EXPECT_GT(acked.size(), 0u);
  for (int64_t id : acked) {
    EXPECT_TRUE(seen.count(id)) << "acknowledged row " << id << " missing";
  }
}

// Instance loss wipes the node's catalog, whose oid counter restarts at
// 1. A key minted after the wipe but before recovery (a COPY still in
// flight on the node) must not repeat one the old instance wrote, so
// the wipe draws a fresh instance id. Deterministic: the post-wipe mints
// walk the restarted oids past every pre-wipe one.
TEST(WosTest, MintStorageKeyNeverRepeatsAcrossInstanceLoss) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  Node* n3 = b->cluster->node_by_name("n3");
  ASSERT_NE(n3, nullptr);

  std::set<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(keys.insert(n3->MintStorageKey("data/")).second);
  }
  ASSERT_TRUE(b->cluster->DestroyNodeInstance(n3->oid()).ok());
  constexpr int kPostWipeMints = 4096;
  for (int i = 0; i < kPostWipeMints; ++i) {
    const std::string key = n3->MintStorageKey("data/");
    ASSERT_TRUE(keys.insert(key).second)
        << "post-wipe mint " << i << " repeated " << key;
  }
  ASSERT_TRUE(
      b->cluster->RecoverDestroyedNode(n3->oid(), /*warm_cache=*/false).ok());
  for (int i = 0; i < 8; ++i) {
    const std::string key = n3->MintStorageKey("data/");
    ASSERT_TRUE(keys.insert(key).second) << "post-recovery mint repeated "
                                         << key;
  }
}

TEST(WosTest, SqlInsertRoutesThroughSessionAndProfile) {
  auto b = MakeCluster(1, 1);
  ASSERT_NE(b, nullptr);
  SessionManager sessions(b->cluster.get(), nullptr, "default");
  auto sid = sessions.Connect("n1");
  ASSERT_TRUE(sid.ok());

  auto r = sessions.ExecuteSql(*sid,
                               "INSERT INTO t VALUES (1, 0.5), (2, 1.5);");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->schema.column(0).name, "rows_inserted");
  EXPECT_EQ(r->rows[0][0].int_value(), 2);
  EXPECT_EQ(r->profile.wal_records_appended, 1u);
  EXPECT_EQ(r->profile.wal_rows, 2u);
  EXPECT_TRUE(r->profile.wal_led_group);
  EXPECT_GE(r->profile.wal_group_size, 1u);

  // The profile's wal block renders in both formats.
  const std::string text = r->profile.ToText();
  EXPECT_NE(text.find("wal:"), std::string::npos);
  EXPECT_NE(r->profile.ToJson().Dump().find("\"wal\""), std::string::npos);

  auto count =
      sessions.ExecuteSql(*sid, "SELECT COUNT(*) AS c FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].int_value(), 2);

  // Parse errors: arity, type, unknown table, trailing garbage.
  EXPECT_FALSE(sessions.ExecuteSql(*sid, "INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(
      sessions.ExecuteSql(*sid, "INSERT INTO t VALUES ('a', 1.0)").ok());
  EXPECT_FALSE(
      sessions.ExecuteSql(*sid, "INSERT INTO nope VALUES (1, 1.0)").ok());
  EXPECT_FALSE(
      sessions.ExecuteSql(*sid, "INSERT INTO t VALUES (3, 3.0) extra").ok());
  // Failures above must not have inserted anything.
  count = sessions.ExecuteSql(*sid, "SELECT COUNT(*) AS c FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].int_value(), 2);
}

// Moveout concurrent with queries: every result observes an atomic batch
// prefix — never a row twice (WOS and ROS), never a torn batch.
TEST(WosTest, MoveoutUnderConcurrentQueriesStaysConsistent) {
  auto b = MakeCluster(/*exec_threads=*/4, 1);
  ASSERT_NE(b, nullptr);
  constexpr int kBatches = 24;
  constexpr int64_t kBatchRows = 10;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kBatches; ++i) {
      auto ins = InsertInto(b->cluster.get(), "t",
                            MakeRows(i * kBatchRows, kBatchRows));
      if (!ins.ok()) {
        failures++;
        break;
      }
      if (i % 6 == 5) {
        auto moved = MoveoutWos(b->cluster.get(), "t");
        if (!moved.ok()) failures++;
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      EonSession session(b->cluster.get());
      while (!done.load()) {
        auto res = session.Execute(AggQuery());
        if (!res.ok()) {
          failures++;
          return;
        }
        const int64_t count = res->rows[0][1].int_value();
        // An empty prefix is valid: the reader can outrun the first batch
        // (SUM over zero rows is NULL, so don't touch it).
        if (count == 0) continue;
        const int64_t sum = res->rows[0][0].int_value();
        // Batches are atomic and apply in LSN order: the visible set is
        // always ids [0, count) with count a whole number of batches.
        if (count % kBatchRows != 0 || sum != count * (count - 1) / 2) {
          ADD_FAILURE() << "inconsistent snapshot: count=" << count
                        << " sum=" << sum;
          failures++;
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto final = RunQuery(b->cluster.get(), AggQuery());
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(final->rows[0][1].int_value(), kBatches * kBatchRows);
}

// Rollback of the parallel upload: for every k, the k-th data PUT of a
// multi-container COPY and of a moveout fails. Rollback runs after every
// upload lane returned, so each failure point must leave no `data/`
// object behind, the catalog version unchanged, no cache holding a
// rolled-back key, and (moveout) the WOS rows unflushed and read once.
TEST(WosTest, ParallelUploadRollsBackAtEveryFailingPut) {
  auto b = MakeCluster(/*exec_threads=*/1, /*wos=*/1, int64_t{1} << 40,
                       /*faulty=*/true);
  ASSERT_NE(b, nullptr);
  EonCluster* cluster = b->cluster.get();
  auto catalog_version = [&] {
    return cluster->AnyUpNode()->catalog()->version();
  };
  auto check_rolled_back = [&](const std::vector<std::string>& keys_before,
                               uint64_t version_before, int k) {
    EXPECT_EQ(DataKeys(b->store.get()), keys_before) << "k=" << k;
    EXPECT_EQ(catalog_version(), version_before) << "k=" << k;
    for (const std::string& key : b->faulty->attempted()) {
      for (const auto& n : cluster->nodes()) {
        EXPECT_FALSE(n->cache()->TryGetResident(key).ok())
            << n->name() << " still caches " << key << " (k=" << k << ")";
      }
    }
  };

  // Failure-free COPY first: measures how many data PUTs one load makes.
  b->faulty->Arm(0);
  ASSERT_TRUE(CopyInto(cluster, "t", MakeRows(0, 20)).ok());
  const int copy_puts = static_cast<int>(b->faulty->attempted().size());
  ASSERT_EQ(copy_puts, 2);  // Two shards, one container object each.
  int copy_points = 0;
  for (int k = 1; k <= copy_puts; ++k) {
    const std::vector<std::string> keys_before = DataKeys(b->store.get());
    const uint64_t version_before = catalog_version();
    b->faulty->Arm(k);
    EXPECT_FALSE(CopyInto(cluster, "t", MakeRows(100, 20)).ok()) << k;
    EXPECT_EQ(static_cast<int>(b->faulty->attempted().size()), copy_puts)
        << "every lane runs to the end before rollback (k=" << k << ")";
    check_rolled_back(keys_before, version_before, k);
    EXPECT_EQ(ScannedIds(cluster), IdRange(20)) << k;
    ++copy_points;
  }

  // WOS rows waiting for a moveout that fails at every data PUT.
  b->faulty->Arm(0);
  ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(20, 15)).ok());
  ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(35, 15)).ok());
  ASSERT_EQ(TotalUnflushed(cluster), 30u);
  int moveout_points = 0;
  for (int k = 1;; ++k) {
    const std::vector<std::string> keys_before = DataKeys(b->store.get());
    const uint64_t version_before = catalog_version();
    b->faulty->Arm(k);
    auto moved = MoveoutWos(cluster, "t");
    if (moved.ok()) {
      // k is past the last data PUT: the moveout went through.
      EXPECT_EQ(static_cast<int>(b->faulty->attempted().size()), k - 1);
      break;
    }
    check_rolled_back(keys_before, version_before, k);
    EXPECT_EQ(TotalUnflushed(cluster), 30u) << k;
    EXPECT_EQ(ScannedIds(cluster), IdRange(50)) << k;
    ++moveout_points;
  }
  EXPECT_EQ(moveout_points, 2);  // Two shard containers, one PUT each.
  EXPECT_EQ(TotalUnflushed(cluster), 0u);
  EXPECT_EQ(ScannedIds(cluster), IdRange(50));
  std::printf("failure points tried: copy=%d moveout=%d\n", copy_points,
              moveout_points);
}

// The same enumeration through the background path: a threshold-crossing
// INSERT schedules the moveout, and every failing data PUT leaves the
// store, catalog and caches as they were, the rows unflushed and read
// once — and the INSERT itself succeeds.
TEST(WosTest, BackgroundMoveoutRollsBackAtEveryFailingPut) {
  auto b = MakeCluster(/*exec_threads=*/1, /*wos=*/1, /*flush_rows=*/30,
                       /*faulty=*/true);
  ASSERT_NE(b, nullptr);
  EonCluster* cluster = b->cluster.get();
  ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(0, 29)).ok());
  int64_t next = 29;
  int points = 0;
  for (int k = 1;; ++k) {
    const std::vector<std::string> keys_before = DataKeys(b->store.get());
    const uint64_t version_before =
        cluster->AnyUpNode()->catalog()->version();
    b->faulty->Arm(k);
    ASSERT_TRUE(InsertInto(cluster, "t", MakeRows(next++, 1)).ok()) << k;
    cluster->mover()->Drain();
    if (TotalUnflushed(cluster) == 0) {
      EXPECT_EQ(static_cast<int>(b->faulty->attempted().size()), k - 1);
      break;
    }
    EXPECT_EQ(DataKeys(b->store.get()), keys_before) << "k=" << k;
    EXPECT_EQ(cluster->AnyUpNode()->catalog()->version(), version_before)
        << "k=" << k;
    for (const std::string& key : b->faulty->attempted()) {
      for (const auto& n : cluster->nodes()) {
        EXPECT_FALSE(n->cache()->TryGetResident(key).ok())
            << n->name() << " still caches " << key << " (k=" << k << ")";
      }
    }
    EXPECT_EQ(TotalUnflushed(cluster), static_cast<uint64_t>(next)) << k;
    EXPECT_EQ(ScannedIds(cluster), IdRange(next)) << k;
    ++points;
  }
  EXPECT_EQ(points, 2);  // Two shard containers, one PUT each.
  EXPECT_EQ(ScannedIds(cluster), IdRange(next));
}

// Per-query accounting: the INSERT that crosses the threshold is billed
// for its WAL PUT alone; the moveout it triggers runs under the Tuple
// Mover's own trace. The mover's instruments read through system_metrics.
TEST(WosTest, ThresholdCrossingInsertProfileShowsOnlyItsWalPut) {
  auto b = MakeCluster(1, 1, /*flush_rows=*/2);
  ASSERT_NE(b, nullptr);
  SessionManager sessions(b->cluster.get(), nullptr, "default");
  auto sid = sessions.Connect("n1");
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(sessions.SetOption(*sid, "trace", "on").ok());

  auto r = sessions.ExecuteSql(
      *sid, "INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5);");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  b->cluster->mover()->Drain();
  EXPECT_EQ(TotalUnflushed(b->cluster.get()), 0u);  // The moveout ran.

  const uint64_t trace_id = r->profile.trace_id;
  ASSERT_NE(trace_id, 0u);
  EXPECT_EQ(r->profile.wal_records_appended, 1u);
  EXPECT_EQ(r->profile.store_puts, 0u);
  std::vector<std::string> requests;
  for (const obs::DcStoreRequest& req :
       obs::DataCollector::Default()->StoreRequests()) {
    if (req.trace_id == trace_id) requests.push_back(req.op + " " + req.key);
  }
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].rfind("put wal/n1/", 0), 0u) << requests[0];
  for (const obs::SpanData& span :
       CollectTraceSpans(b->cluster.get(), trace_id)) {
    EXPECT_NE(span.name, "moveout");
    EXPECT_NE(span.name, "wal_truncate");
  }

  auto metrics = MaterializeSystemTable(b->cluster.get(), "system_metrics");
  ASSERT_TRUE(metrics.ok());
  std::set<std::string> names;
  for (const Row& row : *metrics) names.insert(row[0].str_value());
  for (const char* name :
       {"eon_moveout_gate_hold_micros", "eon_moveout_queue_wait_micros",
        "eon_wos_backpressure_waits_total"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

}  // namespace
}  // namespace eon
