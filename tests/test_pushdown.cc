// Near-data processing (predicate/aggregate pushdown) tests: the
// ChoosePushdown cost model, the ObjectStore::ScanObject surface of every
// backend (bit-identity with local scans, retry semantics, NotSupported
// fallback), and the executor's pushed morsel path — which must be
// invisible in results at every exec width and crunch mode.
// Runs under TSan via scripts/tsan.sh (`ctest -L race`).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/file_cache.h"
#include "cluster/cluster.h"
#include "columnar/ndp.h"
#include "columnar/ros.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/executor.h"
#include "engine/session.h"
#include "engine/system_tables.h"
#include "storage/posix_object_store.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "workload/tpch.h"

namespace eon {
namespace {

using testing_support::ReferenceExecute;
using testing_support::SameResults;

// ---------------------------------------------------------------------------
// ChoosePushdown: the per-morsel cost decision, pinned case by case.
// ---------------------------------------------------------------------------

PushdownDecision FavorableDecision() {
  PushdownDecision d;
  d.mode = 1;
  d.has_predicate = true;
  d.selectivity = 0.05;
  d.selectivity_cutoff = 0.35;
  d.cold_bytes = 1000000;
  d.pushed_bytes = 10000;
  return d;
}

TEST(ChoosePushdownTest, OffModeNeverPushes) {
  PushdownDecision d = FavorableDecision();
  d.mode = 0;
  EXPECT_FALSE(ChoosePushdown(d));
}

TEST(ChoosePushdownTest, NothingToPushStaysLocal) {
  // No predicate and no aggregates: a push ships every byte anyway.
  PushdownDecision d = FavorableDecision();
  d.has_predicate = false;
  d.has_aggregates = false;
  EXPECT_FALSE(ChoosePushdown(d));
  // Even force mode refuses a pointless push.
  d.mode = 2;
  EXPECT_FALSE(ChoosePushdown(d));
}

TEST(ChoosePushdownTest, ForceModePushesWheneverThereIsWork) {
  PushdownDecision d = FavorableDecision();
  d.mode = 2;
  d.cold_bytes = 0;  // Even fully warm.
  d.selectivity = 1.0;
  EXPECT_TRUE(ChoosePushdown(d));
}

TEST(ChoosePushdownTest, WarmCacheStaysLocal) {
  PushdownDecision d = FavorableDecision();
  d.cold_bytes = 0;
  EXPECT_FALSE(ChoosePushdown(d));
}

TEST(ChoosePushdownTest, UnselectivePredicateStaysLocal) {
  PushdownDecision d = FavorableDecision();
  d.selectivity = 0.5;  // Above the 0.35 cutoff.
  EXPECT_FALSE(ChoosePushdown(d));
  // The cutoff is configurable: raising it re-enables the push.
  d.selectivity_cutoff = 0.6;
  EXPECT_TRUE(ChoosePushdown(d));
}

TEST(ChoosePushdownTest, PushedBytesMustUndercutColdBytes) {
  PushdownDecision d = FavorableDecision();
  d.pushed_bytes = d.cold_bytes;
  EXPECT_FALSE(ChoosePushdown(d));
  d.pushed_bytes = d.cold_bytes - 1;
  EXPECT_TRUE(ChoosePushdown(d));
}

TEST(ChoosePushdownTest, AggregatePushIgnoresSelectivityCutoff) {
  // A pushed fold returns partials, not rows: selectivity is irrelevant.
  PushdownDecision d = FavorableDecision();
  d.has_predicate = false;
  d.has_aggregates = true;
  d.selectivity = 1.0;
  d.pushed_bytes = 1024;
  EXPECT_TRUE(ChoosePushdown(d));
}

// ---------------------------------------------------------------------------
// Direct ScanObject on the store backends: a hand-built ROS container.
// ---------------------------------------------------------------------------

Schema NdpSchema() {
  return Schema({ColumnDef{"id", DataType::kInt64},
                 ColumnDef{"v", DataType::kInt64},
                 ColumnDef{"s", DataType::kString}});
}

std::vector<Row> NdpRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 500; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Int(i % 20),
                       Value::Str(i % 3 == 0 ? "fizz" : "plain")});
  }
  return rows;
}

/// Build the container and Put its object under `base_key` via `store`.
RosBuildResult BuildNdpContainer(ObjectStore* store,
                                 const std::string& base_key) {
  RosWriteOptions wopts;
  wopts.rows_per_block = 64;
  auto built = RosContainerWriter::Build(NdpSchema(), NdpRows(), wopts);
  EON_CHECK(built.ok());
  EON_CHECK(store->Put(base_key, built->data).ok());
  return std::move(built).value();
}

ScanObjectRequest RowScanRequest(const std::string& base_key) {
  ScanObjectRequest req;
  req.base_key = base_key;
  req.schema = NdpSchema();
  req.output_columns = {0, 2};
  req.predicate = Predicate::Cmp(1, CmpOp::kLt, Value::Int(3));
  req.predicate_columns = {1};
  return req;
}

/// Expected survivors of RowScanRequest, computed row-wise from source.
std::vector<Row> ExpectedRowScan() {
  std::vector<Row> out;
  for (const Row& r : NdpRows()) {
    if (r[1].int_value() < 3) out.push_back(Row{r[0], r[2]});
  }
  return out;
}

void ExpectRowsEqual(const std::vector<Row>& got,
                     const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t c = 0; c < got[i].size(); ++c) {
      EXPECT_EQ(got[i][c].Compare(want[i][c]), 0)
          << "row " << i << " col " << c;
    }
  }
}

/// A near-data response's rows (row pushdown) and its groups as
/// (key, states) pairs (aggregate pushdown).
std::vector<Row> Rows(const ScanObjectResponse& resp) {
  return ChunkToRows(resp.chunk);
}

std::vector<std::pair<Row, std::vector<AggState>>> Groups(
    const ScanObjectResponse& resp) {
  const GroupStates& g = resp.groups;
  const size_t num_aggs =
      g.num_groups == 0 ? 0 : g.states.size() / g.num_groups;
  // A global group has no key columns, so no key rows.
  const std::vector<Row> keys = ChunkToRows(g.keys);
  std::vector<std::pair<Row, std::vector<AggState>>> out;
  for (size_t i = 0; i < g.num_groups; ++i) {
    out.emplace_back(keys.empty() ? Row{} : keys[i],
                     std::vector<AggState>(
                         g.states.begin() + i * num_aggs,
                         g.states.begin() + (i + 1) * num_aggs));
  }
  return out;
}

TEST(ScanObjectTest, MemStoreRowScanMatchesRowWiseOracle) {
  MemObjectStore store;
  BuildNdpContainer(&store, "ndp/c1");

  ScanObjectResponse resp;
  ASSERT_TRUE(store.ScanObject(RowScanRequest("ndp/c1"), &resp).ok());
  ExpectRowsEqual(Rows(resp), ExpectedRowScan());
  EXPECT_EQ(resp.rows_output, Rows(resp).size());
  EXPECT_EQ(resp.rows_visited, 500u);
  EXPECT_GT(resp.bytes_scanned, 0u);
  EXPECT_GT(resp.response_bytes, 0u);
  // The response is much smaller than the files the store read locally.
  EXPECT_LT(resp.response_bytes, resp.bytes_scanned);

  // Metering: one scan; bytes_read grows by the RESPONSE only (the bytes
  // that crossed the store interface), bytes_scanned by the local reads.
  const ObjectStoreMetrics m = store.metrics();
  EXPECT_EQ(m.scans, 1u);
  EXPECT_EQ(m.bytes_scanned, resp.bytes_scanned);
}

TEST(ScanObjectTest, PosixStoreMatchesMemStore) {
  MemObjectStore mem;
  BuildNdpContainer(&mem, "ndp/c1");
  // TempDir() persists across runs and PosixObjectStore::Put refuses to
  // overwrite, so start from an empty root.
  const std::string root = ::testing::TempDir() + "/ndp_posix_store";
  std::filesystem::remove_all(root);
  PosixObjectStore posix(root);
  BuildNdpContainer(&posix, "ndp/c1");

  ScanObjectResponse a, b;
  ASSERT_TRUE(mem.ScanObject(RowScanRequest("ndp/c1"), &a).ok());
  ASSERT_TRUE(posix.ScanObject(RowScanRequest("ndp/c1"), &b).ok());
  ExpectRowsEqual(Rows(b), Rows(a));
  EXPECT_EQ(b.bytes_scanned, a.bytes_scanned);
  EXPECT_EQ(b.response_bytes, a.response_bytes);
  EXPECT_EQ(posix.metrics().scans, 1u);
}

TEST(ScanObjectTest, AggregatePartialsMatchManualFold) {
  MemObjectStore store;
  BuildNdpContainer(&store, "ndp/c1");

  ScanObjectRequest req = RowScanRequest("ndp/c1");
  req.output_columns = {0, 1, 2};  // id, v, s in the pushed row layout.
  req.group_columns = {2};         // GROUP BY s.
  req.aggregates = {AggColumn{AggFn::kCount, SIZE_MAX},
                    AggColumn{AggFn::kSum, 1},
                    AggColumn{AggFn::kMin, 0},
                    AggColumn{AggFn::kMax, 0}};
  ScanObjectResponse resp;
  ASSERT_TRUE(store.ScanObject(req, &resp).ok());
  EXPECT_TRUE(Rows(resp).empty());

  // Manual oracle over the surviving rows.
  std::map<std::string, std::array<int64_t, 4>> want;  // n, sum, min, max
  for (const Row& r : NdpRows()) {
    if (r[1].int_value() >= 3) continue;
    auto [it, inserted] = want.try_emplace(
        r[2].str_value(),
        std::array<int64_t, 4>{0, 0, INT64_MAX, INT64_MIN});
    it->second[0]++;
    it->second[1] += r[1].int_value();
    it->second[2] = std::min(it->second[2], r[0].int_value());
    it->second[3] = std::max(it->second[3], r[0].int_value());
  }
  ASSERT_EQ(Groups(resp).size(), want.size());
  for (const auto& [key, states] : Groups(resp)) {
    ASSERT_EQ(key.size(), 1u);
    ASSERT_EQ(states.size(), 4u);
    const auto& w = want.at(key[0].str_value());
    EXPECT_EQ(states[0].Finalize(AggFn::kCount, DataType::kInt64).int_value(),
              w[0]);
    EXPECT_EQ(states[1].Finalize(AggFn::kSum, DataType::kInt64).int_value(),
              w[1]);
    EXPECT_EQ(states[2].Finalize(AggFn::kMin, DataType::kInt64).int_value(),
              w[2]);
    EXPECT_EQ(states[3].Finalize(AggFn::kMax, DataType::kInt64).int_value(),
              w[3]);
  }
}

TEST(ScanObjectTest, PushabilityMatrix) {
  // Exactly-mergeable: COUNT anything, MIN/MAX anything, SUM/AVG int64.
  EXPECT_TRUE(IsPushableAggregate(AggFn::kCount, DataType::kString));
  EXPECT_TRUE(IsPushableAggregate(AggFn::kMin, DataType::kDouble));
  EXPECT_TRUE(IsPushableAggregate(AggFn::kMax, DataType::kString));
  EXPECT_TRUE(IsPushableAggregate(AggFn::kSum, DataType::kInt64));
  EXPECT_TRUE(IsPushableAggregate(AggFn::kAvg, DataType::kInt64));
  // Not pushable: double SUM/AVG (FP merge order), COUNT DISTINCT
  // (unbounded state transfer).
  EXPECT_FALSE(IsPushableAggregate(AggFn::kSum, DataType::kDouble));
  EXPECT_FALSE(IsPushableAggregate(AggFn::kAvg, DataType::kDouble));
  EXPECT_FALSE(IsPushableAggregate(AggFn::kCountDistinct, DataType::kInt64));
}

TEST(ScanObjectTest, RetryingStoreRetriesTransientScanFailures) {
  SimClock clock;
  SimStoreOptions sopts;
  sopts.get_latency_micros = 0;
  sopts.put_latency_micros = 0;
  sopts.scan_latency_micros = 0;
  sopts.transient_failure_prob = 0.4;
  SimObjectStore sim(sopts, &clock);
  RetryingObjectStore retry(&sim, RetryOptions{}, &clock);
  BuildNdpContainer(&retry, "ndp/c1");  // Puts ride the retry loop too.

  // Several scans through the 40%-failure store: the retry loop must make
  // every one succeed with the exact same rows.
  const std::vector<Row> want = ExpectedRowScan();
  for (int i = 0; i < 8; ++i) {
    ScanObjectResponse resp;
    ASSERT_TRUE(retry.ScanObject(RowScanRequest("ndp/c1"), &resp).ok())
        << "scan " << i;
    ExpectRowsEqual(Rows(resp), want);
  }
  EXPECT_GT(retry.total_retries(), 0u);
}

/// Store with no near-data capability: ScanObject inherits the base-class
/// NotSupported default.
class PlainStore : public ObjectStore {
 public:
  explicit PlainStore(ObjectStore* base) : base_(base) {}
  Status Put(const std::string& key, const std::string& data) override {
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
  ObjectStore* base_;
};

TEST(ScanObjectTest, NotSupportedPassesThroughRetryUnretried) {
  SimClock clock;
  MemObjectStore mem;
  PlainStore plain(&mem);
  RetryingObjectStore retry(&plain, RetryOptions{}, &clock);
  ScanObjectResponse resp;
  Status s = retry.ScanObject(RowScanRequest("ndp/c1"), &resp);
  EXPECT_TRUE(s.IsNotSupported());
  // A capability miss is not transient: no backoff, no retries.
  EXPECT_EQ(retry.total_retries(), 0u);
}

// ---------------------------------------------------------------------------
// Executor-level differential: pushdown must be invisible in results.
// ---------------------------------------------------------------------------

constexpr int kPushModes[] = {0, 2};  // Off vs forced.
constexpr int kWidths[] = {1, 4};

struct PushdownClusters {
  TpchOptions topts;
  TpchData data;
  testing_support::RefDatabase reference;

  struct Instance {
    SimClock clock;
    std::unique_ptr<SimObjectStore> store;
    std::unique_ptr<EonCluster> cluster;
  };
  std::map<std::pair<int, int>, std::unique_ptr<Instance>> by_config;

  static PushdownClusters* Get() {
    static PushdownClusters* instance = [] {
      auto* pc = new PushdownClusters();
      pc->topts.scale = 0.05;
      pc->data = GenerateTpch(pc->topts);
      pc->reference = testing_support::TpchReferenceDb(pc->data);
      for (int push : kPushModes) {
        for (int width : kWidths) {
          auto inst = std::make_unique<Instance>();
          SimStoreOptions sopts;
          sopts.get_latency_micros = 0;
          sopts.put_latency_micros = 0;
          sopts.list_latency_micros = 0;
          sopts.scan_latency_micros = 0;
          inst->store = std::make_unique<SimObjectStore>(sopts, &inst->clock);
          ClusterOptions copts;
          copts.num_shards = 2;
          copts.k_safety = 2;
          copts.exec_threads = width;
          copts.io_threads = 2;
          copts.pushdown = push;
          std::vector<NodeSpec> specs;
          for (int i = 1; i <= 3; ++i) {
            specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
          }
          auto cluster =
              EonCluster::Create(inst->store.get(), &inst->clock, copts, specs);
          EON_CHECK(cluster.ok());
          inst->cluster = std::move(cluster).value();
          EON_CHECK(inst->cluster->pushdown_mode() == push);
          EON_CHECK(CreateTpchTables(inst->cluster.get()).ok());
          EON_CHECK(LoadTpch(inst->cluster.get(), pc->data, 256).ok());
          pc->by_config[{push, width}] = std::move(inst);
        }
      }
      return pc;
    }();
    return instance;
  }
};

void ClearAllCaches(EonCluster* cluster) {
  for (const auto& node : cluster->nodes()) node->cache()->Clear();
}

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

/// Query shapes covering the pushed paths: a selective predicate scan, a
/// whole-table group-by with exactly-mergeable aggregates (the aggregate
/// pushdown shape), a filtered aggregate, and an ordered predicate scan.
std::vector<std::pair<std::string, QuerySpec>> PushdownQuerySet() {
  std::vector<std::pair<std::string, QuerySpec>> out;
  const Schema li = TpchLineitemSchema();
  const Schema ord = TpchOrdersSchema();
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
    q.scan.columns = {"l_shipmode", "l_quantity", "l_orderkey"};
    q.group_by = {"l_shipmode"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"},
                    {AggFn::kMin, "l_orderkey", "lo"},
                    {AggFn::kMax, "l_orderkey", "hi"}};
    out.emplace_back("pushed_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_quantity"};
    q.scan.predicate = Predicate::Cmp(*li.IndexOf("l_shipdate"), CmpOp::kGe,
                                      Value::Int(9700));
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kAvg, "l_quantity", "avg_q"}};
    out.emplace_back("filtered_global_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "orders";
    q.scan.columns = {"o_orderkey", "o_orderpriority"};
    q.scan.predicate = Predicate::Cmp(*ord.IndexOf("o_totalprice"),
                                      CmpOp::kGt, Value::Dbl(5000.0));
    q.order_by = "o_orderkey";
    out.emplace_back("ordered_scan", q);
  }
  return out;
}

// Cold scans must return bit-identical rows with pushdown off vs forced,
// at every (exec width x crunch mode). The off/width-1 run is the
// baseline, and it must match the reference executor.
TEST(PushdownDifferential, ColdIdentityAcrossModesWidthsCrunch) {
  PushdownClusters* pc = PushdownClusters::Get();
  constexpr CrunchMode kCrunches[] = {CrunchMode::kNone,
                                      CrunchMode::kHashFilter,
                                      CrunchMode::kContainerSplit};
  for (const auto& [name, spec] : PushdownQuerySet()) {
    auto expected = ReferenceExecute(pc->reference, spec);
    ASSERT_TRUE(expected.ok()) << name << ": " << expected.status().ToString();
    for (CrunchMode crunch : kCrunches) {
      std::vector<Row> baseline;
      bool have_baseline = false;
      for (int push : kPushModes) {
        for (int width : kWidths) {
          EonCluster* cluster = pc->by_config[{push, width}]->cluster.get();
          ClearAllCaches(cluster);
          EonSession session(cluster, "", /*seed=*/31);
          session.set_crunch_mode(crunch);
          auto result = session.Execute(spec);
          ASSERT_TRUE(result.ok())
              << name << " push " << push << " width " << width << ": "
              << result.status().ToString();
          // Force mode must actually push whenever there is pushable
          // work: a predicate (any crunch), or aggregates when crunch is
          // off (crunch disables aggregate pushdown by design).
          const bool pushable =
              spec.scan.predicate != nullptr ||
              (!spec.aggregates.empty() && crunch == CrunchMode::kNone);
          if (push == 2 && pushable) {
            EXPECT_GT(result->profile.pushdown_containers_pushed, 0u)
                << name << " width " << width << " crunch "
                << static_cast<int>(crunch);
          }
          std::string diff;
          if (!have_baseline) {
            EXPECT_TRUE(SameResults(result->rows, *expected,
                                    /*ordered=*/false, &diff))
                << name << " crunch " << static_cast<int>(crunch)
                << " vs reference: " << diff;
            baseline = std::move(result->rows);
            have_baseline = true;
            continue;
          }
          EXPECT_TRUE(BitIdentical(result->rows, baseline, &diff))
              << name << " push " << push << " width " << width << " crunch "
              << static_cast<int>(crunch) << " diverged: " << diff;
        }
      }
    }
  }
}

// Forced aggregate pushdown: partials come back from the store (zero
// scanned rows materialize on the nodes) and merge to the same bits.
TEST(PushdownDifferential, AggregatePartialsComeFromTheStore) {
  PushdownClusters* pc = PushdownClusters::Get();
  EonCluster* forced = pc->by_config[{2, 1}]->cluster.get();
  EonCluster* off = pc->by_config[{0, 1}]->cluster.get();
  ClearAllCaches(forced);
  ClearAllCaches(off);

  QuerySpec q = PushdownQuerySet()[1].second;  // pushed_group_by
  EonSession fs(forced, "", /*seed=*/11);
  EonSession os(off, "", /*seed=*/11);
  auto fr = fs.Execute(q);
  auto orr = os.Execute(q);
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  ASSERT_TRUE(orr.ok()) << orr.status().ToString();
  EXPECT_TRUE(fr->profile.pushdown_aggregates);
  EXPECT_GT(fr->profile.pushdown_containers_pushed, 0u);
  EXPECT_GT(fr->profile.store_scans, 0u);
  EXPECT_FALSE(orr->profile.pushdown_aggregates);
  EXPECT_EQ(orr->profile.pushdown_containers_pushed, 0u);
  std::string diff;
  EXPECT_TRUE(BitIdentical(fr->rows, orr->rows, &diff)) << diff;
}

// Double SUM is not exactly mergeable store-side: with no predicate either,
// even force mode has nothing to push and the whole scan stays local.
TEST(PushdownDifferential, DoubleSumIsNeverPushed) {
  PushdownClusters* pc = PushdownClusters::Get();
  EonCluster* forced = pc->by_config[{2, 1}]->cluster.get();
  EonCluster* off = pc->by_config[{0, 1}]->cluster.get();
  ClearAllCaches(forced);
  ClearAllCaches(off);

  QuerySpec q;
  q.scan.table = "orders";
  q.scan.columns = {"o_orderpriority", "o_totalprice"};
  q.group_by = {"o_orderpriority"};
  q.aggregates = {{AggFn::kSum, "o_totalprice", "s"}};

  EonSession fs(forced, "", /*seed=*/13);
  EonSession os(off, "", /*seed=*/13);
  auto fr = fs.Execute(q);
  auto orr = os.Execute(q);
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  ASSERT_TRUE(orr.ok()) << orr.status().ToString();
  EXPECT_FALSE(fr->profile.pushdown_aggregates);
  EXPECT_EQ(fr->profile.pushdown_containers_pushed, 0u);
  std::string diff;
  EXPECT_TRUE(BitIdentical(fr->rows, orr->rows, &diff)) << diff;
}

// ---------------------------------------------------------------------------
// Cost-based planner choice on a custom table with a wide payload column.
// ---------------------------------------------------------------------------

struct PlannerFixture {
  SimClock clock;
  std::unique_ptr<SimObjectStore> store;
  std::unique_ptr<EonCluster> cluster;

  PlannerFixture() {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    sopts.scan_latency_micros = 0;
    store = std::make_unique<SimObjectStore>(sopts, &clock);
    ClusterOptions copts;
    copts.num_shards = 2;
    copts.k_safety = 2;
    copts.exec_threads = 1;
    copts.pushdown = 1;  // Cost-based.
    std::vector<NodeSpec> specs = {{"n1", ""}, {"n2", ""}, {"n3", ""}};
    auto c = EonCluster::Create(store.get(), &clock, copts, specs);
    EON_CHECK(c.ok());
    cluster = std::move(c).value();

    Schema schema({ColumnDef{"id", DataType::kInt64},
                   ColumnDef{"v", DataType::kInt64},
                   ColumnDef{"payload", DataType::kString}});
    ProjectionSpec proj;
    proj.name = "events_super";
    proj.columns = {"id", "v", "payload"};
    proj.sort_columns = {"id"};
    proj.segmentation_columns = {"id"};
    // No partition column: one big container per shard, so the predicate
    // filters INSIDE containers instead of container pruning doing it all.
    EON_CHECK(CreateTable(cluster.get(), "events", schema, std::nullopt,
                          {proj})
                  .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 4000; ++i) {
      // High-cardinality payload: dictionary encoding cannot shrink it, so
      // the payload column file is wide — the bytes a push avoids moving.
      std::string payload = "payload-" + std::to_string(i * 2654435761ULL);
      payload.resize(64, 'x');
      rows.push_back(
          Row{Value::Int(i), Value::Int(i % 100), Value::Str(payload)});
    }
    CopyOptions lopts;
    lopts.rows_per_block = 512;
    EON_CHECK(CopyInto(cluster.get(), "events", rows, lopts).ok());
  }

  Result<QueryResult> RunSelective(uint64_t seed) {
    QuerySpec q;
    q.scan.table = "events";
    q.scan.columns = {"id", "payload"};
    // Equality prior 0.05: well under the 0.35 cutoff.
    q.scan.predicate = Predicate::Cmp(1, CmpOp::kEq, Value::Int(7));
    EonSession session(cluster.get(), "", seed);
    return session.Execute(q);
  }
};

TEST(PushdownPlannerChoice, ColdSelectiveScanPushesWarmScanStaysLocal) {
  PlannerFixture f;
  ClearAllCaches(f.cluster.get());

  // Cold + selective + wide payload: every morsel should push, the scan
  // reads nothing through the caches, and no prefetch is issued.
  auto cold = f.RunSelective(/*seed=*/17);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->profile.pushdown_containers_pushed, 0u);
  EXPECT_EQ(cold->profile.pushdown_containers_local, 0u);
  EXPECT_EQ(cold->profile.prefetch_issued, 0u);
  EXPECT_EQ(cold->profile.cache_fill_bytes, 0u);
  EXPECT_GT(cold->profile.store_scans, 0u);
  EXPECT_GT(cold->profile.pushdown_bytes_saved,
            cold->profile.pushdown_response_bytes);

  // Warm the caches with a pushdown-irrelevant full read, then rerun: the
  // planner must now keep every morsel local (cold_bytes == 0).
  {
    QuerySpec warmup;
    warmup.scan.table = "events";
    warmup.scan.columns = {"id", "v", "payload"};
    EonSession session(f.cluster.get(), "", /*seed=*/17);
    ASSERT_TRUE(session.Execute(warmup).ok());
  }
  auto warm = f.RunSelective(/*seed=*/17);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->profile.pushdown_containers_pushed, 0u);
  EXPECT_GT(warm->profile.pushdown_containers_local, 0u);
  EXPECT_EQ(warm->profile.store_scans, 0u);

  std::string diff;
  EXPECT_TRUE(BitIdentical(cold->rows, warm->rows, &diff)) << diff;
}

TEST(PushdownPlannerChoice, PushedScanShrinksBytesOverNetwork) {
  PlannerFixture f;
  ClearAllCaches(f.cluster.get());
  auto pushed = f.RunSelective(/*seed=*/19);
  ASSERT_TRUE(pushed.ok());
  ASSERT_GT(pushed->profile.pushdown_containers_pushed, 0u);

  // Same query, caches cleared, pushdown disabled via a sibling cluster?
  // Cheaper: the pushed run's own accounting must show the asymmetry —
  // bytes crossing the wire (store_bytes_read) are a small fraction of
  // what the store scanned next to the data.
  EXPECT_GT(pushed->profile.pushdown_store_bytes_scanned,
            4 * pushed->profile.pushdown_response_bytes);
  EXPECT_GT(pushed->profile.pushdown_store_rows_filtered, 0u);
}

// Cost-based mode on nodes that scan some containers locally (warm) and
// push others (cold), all holding rows of the same group keys: the
// pushed partials merge into the node's own groups before the node's
// partial is accounted as moving to the coordinator, so the rows and the
// network bytes equal those of the pushdown-off run.
TEST(PushdownPlannerChoice, WarmAndColdContainersMergePerNodeBeforeTransfer) {
  auto run = [](int pushdown) -> Result<QueryResult> {
    SimClock clock;
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    sopts.scan_latency_micros = 0;
    SimObjectStore store(sopts, &clock);
    ClusterOptions copts;
    copts.num_shards = 2;
    copts.k_safety = 2;
    copts.exec_threads = 1;
    copts.pushdown = pushdown;
    auto c = EonCluster::Create(&store, &clock, copts,
                                {{"n1", ""}, {"n2", ""}, {"n3", ""}});
    EON_CHECK(c.ok());
    EonCluster* cluster = c->get();
    Schema schema({ColumnDef{"id", DataType::kInt64},
                   ColumnDef{"v", DataType::kInt64},
                   ColumnDef{"payload", DataType::kString}});
    ProjectionSpec proj;
    proj.name = "events_super";
    proj.columns = {"id", "v", "payload"};
    proj.sort_columns = {"id"};
    proj.segmentation_columns = {"id"};
    EON_CHECK(CreateTable(cluster, "events", schema, std::nullopt, {proj})
                  .ok());
    // Four loads, one container per shard each. The first two go cold
    // when the caches are cleared; the last two are written through the
    // caches and stay warm. Every load holds every group key v.
    for (int64_t load = 0; load < 4; ++load) {
      if (load == 2) ClearAllCaches(cluster);
      std::vector<Row> rows;
      for (int64_t i = load * 1000; i < (load + 1) * 1000; ++i) {
        rows.push_back(Row{Value::Int(i), Value::Int(i % 10),
                           Value::Str(std::string(64, 'a' + i % 26))});
      }
      EON_CHECK(CopyInto(cluster, "events", rows).ok());
    }
    QuerySpec q;
    q.scan.table = "events";
    q.scan.columns = {"v", "id"};
    q.group_by = {"v"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "id", "s"},
                    {AggFn::kMin, "id", "lo"},
                    {AggFn::kMax, "id", "hi"}};
    EonSession session(cluster, "", /*seed=*/29);
    return session.Execute(q);
  };
  auto mixed = run(/*pushdown=*/1);
  auto off = run(/*pushdown=*/0);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_TRUE(mixed->profile.pushdown_aggregates);
  EXPECT_GT(mixed->profile.pushdown_containers_pushed, 0u);
  EXPECT_GT(mixed->profile.pushdown_containers_local, 0u);
  EXPECT_FALSE(mixed->profile.local_group_by);
  EXPECT_EQ(off->profile.pushdown_containers_pushed, 0u);
  std::string diff;
  EXPECT_TRUE(BitIdentical(mixed->rows, off->rows, &diff)) << diff;
  EXPECT_EQ(mixed->rows.size(), 10u);
  EXPECT_GT(off->profile.network_bytes, 0u);
  EXPECT_EQ(mixed->profile.network_bytes, off->profile.network_bytes);
}

// The dc_store_requests system table grows op="scan" rows carrying
// bytes_scanned, queryable through the ordinary engine path.
TEST(PushdownPlannerChoice, ScanRequestsLandInDataCollector) {
  PlannerFixture f;
  ClearAllCaches(f.cluster.get());
  ASSERT_TRUE(f.RunSelective(/*seed=*/23).ok());

  QuerySpec q;
  q.scan.table = "dc_store_requests";
  q.scan.columns = {"op", "bytes", "bytes_scanned"};
  const Schema& schema = *SystemTableSchema("dc_store_requests");
  q.scan.predicate =
      Predicate::Cmp(*schema.IndexOf("op"), CmpOp::kEq, Value::Str("scan"));
  EonSession session(f.cluster.get(), "", /*seed=*/1);
  auto rows = session.Execute(q);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GT(rows->rows.size(), 0u);
  for (const Row& r : rows->rows) {
    EXPECT_EQ(r[0].str_value(), "scan");
    EXPECT_GT(r[2].int_value(), 0);  // bytes_scanned recorded.
  }
}

// Fallback: a shared store without ScanObject silently degrades forced
// pushdown to the local path — same rows, zero pushed containers.
TEST(PushdownFallback, StoreWithoutScanCapabilityFallsBack) {
  SimClock clock;
  MemObjectStore mem;
  PlainStore plain(&mem);
  ClusterOptions copts;
  copts.num_shards = 2;
  copts.k_safety = 2;
  copts.exec_threads = 1;
  copts.pushdown = 2;  // Forced — and still must fall back cleanly.
  std::vector<NodeSpec> specs = {{"n1", ""}, {"n2", ""}};
  auto c = EonCluster::Create(&plain, &clock, copts, specs);
  ASSERT_TRUE(c.ok());
  EonCluster* cluster = c->get();

  Schema schema({ColumnDef{"id", DataType::kInt64},
                 ColumnDef{"v", DataType::kInt64}});
  ProjectionSpec proj;
  proj.name = "t_super";
  proj.columns = {"id", "v"};
  proj.sort_columns = {"id"};
  proj.segmentation_columns = {"id"};
  ASSERT_TRUE(CreateTable(cluster, "t", schema, std::nullopt, {proj}).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Int(i % 10)});
  }
  ASSERT_TRUE(CopyInto(cluster, "t", rows, CopyOptions{}).ok());
  ClearAllCaches(cluster);

  QuerySpec q;
  q.scan.table = "t";
  q.scan.columns = {"id"};
  q.scan.predicate = Predicate::Cmp(1, CmpOp::kEq, Value::Int(3));
  EonSession session(cluster, "", /*seed=*/5);
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->profile.pushdown_containers_pushed, 0u);
  EXPECT_GT(result->profile.pushdown_containers_local, 0u);
  EXPECT_EQ(result->rows.size(), 100u);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan target): parallel pushed scans against one store and
// one cluster must neither race nor diverge.
// ---------------------------------------------------------------------------

TEST(PushdownRace, ConcurrentScanObjectCallsAreIndependent) {
  MemObjectStore store;
  BuildNdpContainer(&store, "ndp/c1");
  const std::vector<Row> want = ExpectedRowScan();

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        ScanObjectRequest req = RowScanRequest("ndp/c1");
        if ((t + i) % 2 == 1) {
          // Interleave aggregate pushes over the same files.
          req.aggregates = {AggColumn{AggFn::kCount, SIZE_MAX}};
          req.group_columns = {};
          ScanObjectResponse resp;
          if (!store.ScanObject(req, &resp).ok() ||
              Groups(resp).size() != 1 ||
              Groups(resp).begin()
                      ->second[0]
                      .Finalize(AggFn::kCount, DataType::kInt64)
                      .int_value() != static_cast<int64_t>(want.size())) {
            bad.fetch_add(1);
          }
          continue;
        }
        ScanObjectResponse resp;
        if (!store.ScanObject(req, &resp).ok() ||
            Rows(resp).size() != want.size()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store.metrics().scans, 32u);
}

TEST(PushdownRace, ConcurrentForcedQueriesStayIdentical) {
  PushdownClusters* pc = PushdownClusters::Get();
  EonCluster* cluster = pc->by_config[{2, 4}]->cluster.get();
  ClearAllCaches(cluster);

  QuerySpec q = PushdownQuerySet()[0].second;  // predicate_scan
  EonSession baseline_session(cluster, "", /*seed=*/41);
  auto baseline = baseline_session.Execute(q);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      // A fresh session per run keeps every execution at the same seed and
      // sequence (same participation, same morsel order), so each result
      // must match the baseline bit for bit while its pushed morsels race
      // the other threads' on the same store.
      for (int i = 0; i < 3; ++i) {
        EonSession session(cluster, "", /*seed=*/41);
        auto result = session.Execute(q);
        std::string diff;
        if (!result.ok() || !BitIdentical(result->rows, baseline->rows, &diff)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

}  // namespace
}  // namespace eon
