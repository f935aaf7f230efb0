// Parallel-vs-serial differential testing: the same query on identically
// loaded clusters must produce BIT-IDENTICAL results at every exec pool
// width (1, 2, 4, 8), under every crunch mode — morsel decomposition and
// merge order are fixed, so thread count must never show through. Results
// are additionally checked against the naive reference executor. Runs
// under TSan via scripts/tsan.sh (`ctest -L race`).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "columnar/kernels.h"
#include "engine/session.h"
#include "storage/sim_object_store.h"
#include "tests/reference_executor.h"
#include "workload/tpch.h"

namespace eon {
namespace {

using testing_support::ReferenceExecute;
using testing_support::SameResults;
using testing_support::TpchReferenceDb;

constexpr int kWidths[] = {1, 2, 4, 8};

/// One fully loaded cluster per pool width, all built from the same
/// generated data. Width 1 is the serial baseline.
struct WidthedClusters {
  TpchOptions topts;
  TpchData data;
  testing_support::RefDatabase reference;

  struct Instance {
    SimClock clock;
    std::unique_ptr<SimObjectStore> store;
    std::unique_ptr<EonCluster> cluster;
  };
  std::map<int, std::unique_ptr<Instance>> by_width;

  static WidthedClusters* Get() {
    static WidthedClusters* instance = [] {
      auto* wc = new WidthedClusters();
      wc->topts.scale = 0.1;
      wc->data = GenerateTpch(wc->topts);
      wc->reference = TpchReferenceDb(wc->data);
      for (int width : kWidths) {
        auto inst = std::make_unique<Instance>();
        SimStoreOptions sopts;
        sopts.get_latency_micros = 0;
        sopts.put_latency_micros = 0;
        sopts.list_latency_micros = 0;
        inst->store = std::make_unique<SimObjectStore>(sopts, &inst->clock);
        ClusterOptions copts;
        copts.num_shards = 3;
        copts.k_safety = 2;
        copts.exec_threads = width;
        std::vector<NodeSpec> specs;
        for (int i = 1; i <= 5; ++i) {
          specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
        }
        auto cluster = EonCluster::Create(inst->store.get(), &inst->clock,
                                          copts, specs);
        EON_CHECK(cluster.ok());
        inst->cluster = std::move(cluster).value();
        EON_CHECK(inst->cluster->exec_pool()->width() == width);
        EON_CHECK(CreateTpchTables(inst->cluster.get()).ok());
        EON_CHECK(LoadTpch(inst->cluster.get(), wc->data, 256).ok());
        wc->by_width[width] = std::move(inst);
      }
      return wc;
    }();
    return instance;
  }
};

/// Exact (bit-for-bit) row equality: same type, same null flag, and the
/// exact stored value — doubles compare with ==, no tolerance. This is
/// stricter than SameResults on purpose: it is what "deterministic at any
/// thread count" promises.
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

/// Run `spec` on every width and require parallel results to be exactly
/// the serial ones (including row order); check serial vs the reference.
void ExpectWidthInvariant(const QuerySpec& spec, CrunchMode crunch,
                          uint64_t seed, const std::string& label) {
  WidthedClusters* wc = WidthedClusters::Get();
  std::vector<Row> serial_rows;
  for (int width : kWidths) {
    EonSession session(wc->by_width[width]->cluster.get(), "", seed);
    session.set_crunch_mode(crunch);
    auto result = session.Execute(spec);
    ASSERT_TRUE(result.ok())
        << label << " width " << width << ": " << result.status().ToString();
    if (width == 1) {
      serial_rows = result->rows;
      auto expected = ReferenceExecute(wc->reference, spec);
      ASSERT_TRUE(expected.ok()) << label;
      if (spec.limit < 0) {  // Ties at a LIMIT cutoff are unspecified.
        std::string diff;
        EXPECT_TRUE(
            SameResults(result->rows, *expected, /*ordered=*/false, &diff))
            << label << " vs reference: " << diff;
      }
      continue;
    }
    // The profile must reflect the requested width.
    EXPECT_EQ(result->profile.exec_threads, static_cast<uint64_t>(width))
        << label;
    std::string diff;
    EXPECT_TRUE(BitIdentical(result->rows, serial_rows, &diff))
        << label << ": width " << width << " diverged from serial: " << diff;
  }
}

/// Fixed query shapes covering the parallelized paths: plain scans,
/// predicate scans, local and broadcast and reshuffle joins, local and
/// merged group-bys, global aggregates, order/limit.
std::vector<std::pair<std::string, QuerySpec>> ParallelQuerySet() {
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
    q.scan.columns = {"l_orderkey"};
    q.group_by = {"l_orderkey"};  // Segmentation column: local group-by.
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_extendedprice", "s"}};
    out.emplace_back("local_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_shipmode"};
    q.group_by = {"l_shipmode"};  // Not the segmentation column: merged.
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"},
                    {AggFn::kMin, "l_extendedprice", "lo"},
                    {AggFn::kMax, "l_extendedprice", "hi"},
                    {AggFn::kAvg, "l_extendedprice", "m"}};
    out.emplace_back("merged_group_by", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kCountDistinct, "l_shipmode", "dist"}};
    out.emplace_back("global_aggregate", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_quantity"};
    q.join = JoinSpec{{"orders", {"o_orderkey", "o_orderpriority"}, nullptr},
                      "l_orderkey",
                      "o_orderkey"};
    q.group_by = {"o_orderpriority"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"}};
    out.emplace_back("colocated_join_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_extendedprice"};
    q.join = JoinSpec{{"part", {"p_partkey", "p_type"}, nullptr},
                      "l_orderkey",
                      "p_partkey"};
    q.group_by = {"p_type"};
    q.aggregates = {{AggFn::kSum, "l_extendedprice", "s"}};
    out.emplace_back("broadcast_join_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "orders";
    q.scan.columns = {"o_orderkey", "o_totalprice"};
    q.join = JoinSpec{{"customer", {"c_custkey", "c_nationkey"}, nullptr},
                      "o_custkey",
                      "c_custkey"};
    q.group_by = {"c_nationkey"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "o_totalprice", "s"}};
    out.emplace_back("reshuffle_join_agg", q);
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
  {
    // Low-cardinality int64 predicate + aggregate column: l_quantity's
    // chunks bit-pack, so this exercises the encoded screening path, the
    // SIMD compare on unpacked blocks, and the batch SUM/MIN/MAX fold.
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_quantity"};
    q.scan.predicate = Predicate::And(
        Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kGe, Value::Int(10)),
        Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLt, Value::Int(40)));
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"},
                    {AggFn::kMin, "l_quantity", "lo"},
                    {AggFn::kMax, "l_quantity", "hi"},
                    {AggFn::kAvg, "l_quantity", "m"}};
    out.emplace_back("bitpacked_predicate_agg", q);
  }
  return out;
}

TEST(ParallelDifferential, QuerySetIsWidthInvariant) {
  for (const auto& [name, spec] : ParallelQuerySet()) {
    ExpectWidthInvariant(spec, CrunchMode::kNone, /*seed=*/7, name);
  }
}

TEST(ParallelDifferential, TpchQuerySetIsWidthInvariant) {
  WidthedClusters* wc = WidthedClusters::Get();
  for (const auto& [name, spec] : TpchQuerySet(wc->topts)) {
    ExpectWidthInvariant(spec, CrunchMode::kNone, /*seed=*/11, name);
  }
}

TEST(ParallelDifferential, HashFilterCrunchIsWidthInvariant) {
  for (const auto& [name, spec] : ParallelQuerySet()) {
    ExpectWidthInvariant(spec, CrunchMode::kHashFilter, /*seed=*/13,
                         "hash_filter/" + name);
  }
}

TEST(ParallelDifferential, ContainerSplitCrunchIsWidthInvariant) {
  for (const auto& [name, spec] : ParallelQuerySet()) {
    ExpectWidthInvariant(spec, CrunchMode::kContainerSplit, /*seed=*/17,
                         "container_split/" + name);
  }
}

// SIMD-vs-scalar differential: pinning every kernel to the scalar
// reference (what -DEON_SIMD=off compiles in permanently) must not change
// a single output bit, for every query shape, at serial and parallel
// widths. ForceScalarForTest flips a global, so the scalar runs are
// grouped after the SIMD baseline of each (query, width) cell with no
// query in flight across the flip.
TEST(ParallelDifferential, ScalarKernelsAreBitIdenticalToSimd) {
  WidthedClusters* wc = WidthedClusters::Get();
  for (const auto& [name, spec] : ParallelQuerySet()) {
    for (int width : {1, 4}) {
      EonSession simd_session(wc->by_width[width]->cluster.get(), "",
                              /*seed=*/31);
      auto with_simd = simd_session.Execute(spec);
      ASSERT_TRUE(with_simd.ok()) << name << ": "
                                  << with_simd.status().ToString();

      simd::ForceScalarForTest(true);
      EonSession scalar_session(wc->by_width[width]->cluster.get(), "",
                                /*seed=*/31);
      auto with_scalar = scalar_session.Execute(spec);
      simd::ForceScalarForTest(false);
      ASSERT_TRUE(with_scalar.ok()) << name << ": "
                                    << with_scalar.status().ToString();
      EXPECT_EQ(with_scalar->profile.exec_kernel_isa, "scalar") << name;

      std::string diff;
      EXPECT_TRUE(BitIdentical(with_scalar->rows, with_simd->rows, &diff))
          << name << " width " << width
          << ": scalar diverged from SIMD: " << diff;
    }
  }
}

// The pool actually parallelizes: a multi-container scan at width 4 must
// report more than one task and a busiest-lane CPU below the total task
// CPU whenever more than one lane did work (checked loosely — on a
// single-core CI box scheduling may still serialize the lanes).
TEST(ParallelDifferential, ProfileReportsParallelExecution) {
  WidthedClusters* wc = WidthedClusters::Get();
  EonSession session(wc->by_width[4]->cluster.get(), "", 23);
  QuerySpec q;
  q.scan.table = "lineitem";
  q.scan.columns = {"l_orderkey", "l_quantity"};
  auto result = session.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->profile.exec_threads, 4u);
  EXPECT_GT(result->profile.exec_tasks, 1u);
  EXPECT_GE(result->profile.exec_task_cpu_micros,
            result->profile.exec_critical_cpu_micros);
  EXPECT_GE(result->profile.Parallelism(), 1.0);
}

}  // namespace
}  // namespace eon
