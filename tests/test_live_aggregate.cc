// Unit tests for live aggregate projections (Section 2.1): creation,
// backfill, load-time maintenance, query rewrite, update restrictions.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "engine/ddl.h"
#include "engine/dml.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"

namespace eon {
namespace {

class LiveAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
    ClusterOptions copts;
    copts.num_shards = 3;
    auto cluster = EonCluster::Create(
        store_.get(), &clock_, copts,
        {NodeSpec{"n1", ""}, NodeSpec{"n2", ""}, NodeSpec{"n3", ""}});
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).value();

    Schema events({{"region", DataType::kString},
                   {"kind", DataType::kInt64},
                   {"amount", DataType::kDouble}});
    ASSERT_TRUE(CreateTable(cluster_.get(), "events", events, std::nullopt,
                            {ProjectionSpec{"events_super", {}, {"kind"},
                                            {"kind"}}})
                    .ok());
  }

  std::vector<Row> MakeBatch(int64_t start, int64_t n) {
    static const char* kRegions[] = {"east", "west", "north"};
    std::vector<Row> rows;
    for (int64_t i = start; i < start + n; ++i) {
      rows.push_back(Row{Value::Str(kRegions[i % 3]), Value::Int(i % 5),
                         Value::Dbl(static_cast<double>(i % 100))});
    }
    return rows;
  }

  QuerySpec RegionTotals() {
    QuerySpec q;
    q.scan.table = "events";
    q.scan.columns = {"region", "amount"};
    q.group_by = {"region"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "amount", "total"},
                    {AggFn::kMax, "amount", "peak"}};
    q.order_by = "region";
    return q;
  }

  Status MakeLap() {
    return CreateLiveAggregateProjection(
               cluster_.get(), "events", "events_by_region", {"region"},
               {{AggFn::kCount, ""},
                {AggFn::kSum, "amount"},
                {AggFn::kMax, "amount"}})
               .ok()
               ? Status::OK()
               : Status::Internal("lap create failed");
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
};

TEST_F(LiveAggregateTest, BackfillsExistingData) {
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", MakeBatch(0, 300)).ok());
  ASSERT_TRUE(MakeLap().ok());

  EonSession session(cluster_.get());
  auto result = session.Execute(RegionTotals());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.used_live_aggregate);
  ASSERT_EQ(result->rows.size(), 3u);
  // count per region: 100 each.
  for (const Row& r : result->rows) {
    EXPECT_EQ(r[1].int_value(), 100);
  }
}

TEST_F(LiveAggregateTest, MaintainedAcrossLoadsAndMatchesBase) {
  ASSERT_TRUE(MakeLap().ok());
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(
        CopyInto(cluster_.get(), "events", MakeBatch(b * 250, 250)).ok());
  }

  // Rewritten result must equal the ground truth computed from the base
  // (force the base path by adding an agg the LAP lacks: MIN).
  EonSession session(cluster_.get());
  QuerySpec via_lap = RegionTotals();
  auto lap_result = session.Execute(via_lap);
  ASSERT_TRUE(lap_result.ok());
  EXPECT_TRUE(lap_result->profile.used_live_aggregate);

  QuerySpec via_base = RegionTotals();
  via_base.aggregates.push_back({AggFn::kMin, "amount", "lo"});
  auto base_result = session.Execute(via_base);
  ASSERT_TRUE(base_result.ok());
  EXPECT_FALSE(base_result->profile.used_live_aggregate);

  ASSERT_EQ(lap_result->rows.size(), base_result->rows.size());
  for (size_t i = 0; i < lap_result->rows.size(); ++i) {
    EXPECT_EQ(lap_result->rows[i][0].str_value(),
              base_result->rows[i][0].str_value());
    EXPECT_EQ(lap_result->rows[i][1].int_value(),
              base_result->rows[i][1].int_value());
    EXPECT_NEAR(lap_result->rows[i][2].dbl_value(),
                base_result->rows[i][2].dbl_value(), 1e-6);
    EXPECT_DOUBLE_EQ(lap_result->rows[i][3].dbl_value(),
                     base_result->rows[i][3].dbl_value());
  }
}

// A group whose summed values are all NULL sums to NULL through the
// LAP, as it does over the base table.
TEST_F(LiveAggregateTest, AllNullSumMatchesBase) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 40; ++i) {
    const bool east = i % 2 == 0;
    rows.push_back(Row{Value::Str(east ? "east" : "west"), Value::Int(i % 5),
                       east ? Value::Null(DataType::kDouble)
                            : Value::Dbl(static_cast<double>(i))});
  }
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", rows).ok());
  EonSession session(cluster_.get());
  auto base = session.Execute(RegionTotals());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_FALSE(base->profile.used_live_aggregate);

  ASSERT_TRUE(MakeLap().ok());
  auto via_lap = session.Execute(RegionTotals());
  ASSERT_TRUE(via_lap.ok()) << via_lap.status().ToString();
  EXPECT_TRUE(via_lap->profile.used_live_aggregate);
  ASSERT_EQ(via_lap->rows.size(), base->rows.size());
  for (size_t i = 0; i < base->rows.size(); ++i) {
    ASSERT_EQ(via_lap->rows[i].size(), base->rows[i].size());
    for (size_t c = 0; c < base->rows[i].size(); ++c) {
      const Value& got = via_lap->rows[i][c];
      const Value& want = base->rows[i][c];
      EXPECT_TRUE(got.type() == want.type() &&
                  got.is_null() == want.is_null() && got.Compare(want) == 0)
          << "row " << i << " col " << c << ": " << got.ToString() << " vs "
          << want.ToString();
    }
  }
}

TEST_F(LiveAggregateTest, ReadsFarFewerRows) {
  ASSERT_TRUE(MakeLap().ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", MakeBatch(0, 2000)).ok());

  EonSession session(cluster_.get());
  auto fast = session.Execute(RegionTotals());
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(fast->profile.used_live_aggregate);
  // 2000 base rows vs 3 groups worth of partials.
  EXPECT_LT(fast->profile.exec_rows_visited, 50u);
}

TEST_F(LiveAggregateTest, PredicateOnGroupColumnStillRewrites) {
  ASSERT_TRUE(MakeLap().ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", MakeBatch(0, 300)).ok());
  EonSession session(cluster_.get());
  QuerySpec q = RegionTotals();
  q.scan.predicate = Predicate::Cmp(0, CmpOp::kEq, Value::Str("east"));
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->profile.used_live_aggregate);
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][1].int_value(), 100);
}

TEST_F(LiveAggregateTest, NonGroupPredicateFallsBackToBase) {
  ASSERT_TRUE(MakeLap().ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", MakeBatch(0, 300)).ok());
  EonSession session(cluster_.get());
  QuerySpec q = RegionTotals();
  q.scan.predicate = Predicate::Cmp(1, CmpOp::kEq, Value::Int(2));  // kind.
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->profile.used_live_aggregate);
  // 60 kind==2 rows spread over 3 region groups.
  int64_t total = 0;
  for (const Row& r : result->rows) total += r[1].int_value();
  EXPECT_EQ(total, 60);
}

TEST_F(LiveAggregateTest, MalformedCopyIsRejectedWithLap) {
  ASSERT_TRUE(MakeLap().ok());
  // An Int where `amount` (the SUM/MAX source) is a double, a string
  // where the group column is one, and a row one column short.
  const std::vector<std::vector<Row>> bad = {
      {Row{Value::Str("east"), Value::Int(1), Value::Int(7)}},
      {Row{Value::Int(3), Value::Int(1), Value::Dbl(7)}},
      {Row{Value::Str("east"), Value::Int(1)}},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    std::vector<Row> batch = MakeBatch(0, 10);
    batch.insert(batch.end(), bad[i].begin(), bad[i].end());
    EXPECT_TRUE(CopyInto(cluster_.get(), "events", batch)
                    .status()
                    .IsInvalidArgument())
        << "batch " << i;
  }
  // Nothing of the refused batches reached the base or the LAP.
  EonSession session(cluster_.get());
  auto totals = session.Execute(RegionTotals());
  ASSERT_TRUE(totals.ok()) << totals.status().ToString();
  EXPECT_TRUE(totals->profile.used_live_aggregate);
  EXPECT_TRUE(totals->rows.empty());
}

TEST_F(LiveAggregateTest, RestrictsBaseUpdates) {
  ASSERT_TRUE(MakeLap().ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", MakeBatch(0, 100)).ok());
  auto deleted = DeleteWhere(cluster_.get(), "events",
                             Predicate::Cmp(1, CmpOp::kEq, Value::Int(0)));
  EXPECT_TRUE(deleted.status().IsNotSupported());
  // And the LAP itself cannot be loaded or deleted from directly.
  EXPECT_TRUE(CopyInto(cluster_.get(), "events_by_region", {})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(LiveAggregateTest, ValidatesDefinition) {
  EXPECT_TRUE(CreateLiveAggregateProjection(cluster_.get(), "missing", "x",
                                            {"region"}, {{AggFn::kCount, ""}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(CreateLiveAggregateProjection(cluster_.get(), "events", "x",
                                            {}, {{AggFn::kCount, ""}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CreateLiveAggregateProjection(
                  cluster_.get(), "events", "x", {"region"},
                  {{AggFn::kCountDistinct, "kind"}})
                  .status()
                  .IsNotSupported());
  ASSERT_TRUE(MakeLap().ok());
  // No LAP over a LAP.
  EXPECT_TRUE(CreateLiveAggregateProjection(cluster_.get(),
                                            "events_by_region", "y",
                                            {"region"}, {{AggFn::kCount, ""}})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(LiveAggregateTest, SurvivesNodeFailure) {
  ASSERT_TRUE(MakeLap().ok());
  ASSERT_TRUE(CopyInto(cluster_.get(), "events", MakeBatch(0, 300)).ok());
  ASSERT_TRUE(cluster_->KillNode(2).ok());
  EonSession session(cluster_.get());
  auto result = session.Execute(RegionTotals());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->profile.used_live_aggregate);
  EXPECT_EQ(result->rows.size(), 3u);
}

}  // namespace
}  // namespace eon
