// Parallel-vs-serial differential testing: the same query on identically
// loaded clusters must produce BIT-IDENTICAL results at every exec pool
// width (1, 2, 4, 8), under every crunch mode — morsel decomposition and
// merge order are fixed, so thread count must never show through. Results
// are additionally checked against the naive reference executor. Runs
// under TSan via scripts/tsan.sh (`ctest -L race`). The chunk-operator
// edge cases (NULL, duplicate and signed-zero keys, zero-row morsels,
// WOS+ROS unions under every crunch mode) run at every width with SIMD
// on and off and must match the reference exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "columnar/kernels.h"
#include "engine/ddl.h"
#include "engine/dml.h"
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


// ------------------------------------------------ Chunk operator edges
//
// Small tables loaded through both COPY (ROS containers) and INSERT (WOS
// memtables), so every scan unions the two. `l` is segmented by an int64
// key (the vectorized hash-filter path), `r` by a string (the per-row
// path), `rr` is replicated (broadcast joins). Keys carry NULLs, equal
// doubles of both signs, and duplicates on the build side; the second
// COPY batch of `l` holds only v in {1.0, 3.0}, so `v = 2.0` keeps its
// containers (2.0 lies inside their min/max) and their morsels yield
// zero rows. Every v is a multiple of 0.25, so sums are exact in any
// order and results can match the reference bit for bit.

constexpr int64_t kChunkEdgeLeftRows = 130;
constexpr int64_t kChunkEdgeRightRows = 150;

Row ChunkEdgeLeftRow(int64_t i) {
  const bool second_batch = i >= 70 && i < 110;
  Row row;
  row.push_back(i % 17 == 16 ? Value::Null(DataType::kInt64) : Value::Int(i));
  row.push_back(i % 11 == 10 ? Value::Null(DataType::kString)
                             : Value::Str("s" + std::to_string(i % 7)));
  if (i % 13 == 12) {
    row.push_back(Value::Null(DataType::kDouble));
  } else {
    const double d = static_cast<double>(i % 5) * 0.5;
    row.push_back(Value::Dbl(i % 10 == 5 && d == 0.0 ? -0.0 : d));
  }
  const double v = second_batch ? (i % 2 == 0 ? 1.0 : 3.0)
                                : 1.0 + static_cast<double>(i % 9) * 0.25;
  row.push_back(Value::Dbl(v));
  return row;
}

/// `r` and `rr` share one row generator: keys repeat every 40 rows, so
/// each key has rows in both COPY batches and in the WOS, in tag order.
Row ChunkEdgeRightRow(int64_t i) {
  const int64_t k = i % 40;
  Row row;
  row.push_back(k == 39 ? Value::Null(DataType::kInt64) : Value::Int(k));
  row.push_back(k % 10 == 9 ? Value::Null(DataType::kString)
                            : Value::Str("s" + std::to_string(k % 7)));
  if (k % 6 == 5) {
    row.push_back(Value::Null(DataType::kDouble));
  } else {
    const double d = static_cast<double>(k % 5) * 0.5;
    row.push_back(Value::Dbl(k % 4 == 1 && d == 0.0 ? -0.0 : d));
  }
  row.push_back(Value::Int(i));  // tag: insertion order.
  return row;
}

struct ChunkEdgeClusters {
  testing_support::RefDatabase reference;
  struct Instance {
    SimClock clock;
    std::unique_ptr<SimObjectStore> store;
    std::unique_ptr<EonCluster> cluster;
  };
  std::map<int, std::unique_ptr<Instance>> by_width;

  static ChunkEdgeClusters* Get() {
    static ChunkEdgeClusters* instance = [] {
      auto* ec = new ChunkEdgeClusters();
      const Schema left_schema({{"k", DataType::kInt64},
                                {"ks", DataType::kString},
                                {"kd", DataType::kDouble},
                                {"v", DataType::kDouble}});
      const Schema right_schema({{"k", DataType::kInt64},
                                 {"ks", DataType::kString},
                                 {"kd", DataType::kDouble},
                                 {"tag", DataType::kInt64}});
      std::vector<Row> left, right;
      for (int64_t i = 0; i < kChunkEdgeLeftRows; ++i) {
        left.push_back(ChunkEdgeLeftRow(i));
      }
      for (int64_t i = 0; i < kChunkEdgeRightRows; ++i) {
        right.push_back(ChunkEdgeRightRow(i));
      }
      ec->reference = {{"l", {left_schema, left}},
                       {"r", {right_schema, right}},
                       {"rr", {right_schema, right}}};
      auto slice = [](const std::vector<Row>& rows, size_t from, size_t to) {
        return std::vector<Row>(rows.begin() + from, rows.begin() + to);
      };
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
        copts.wos = 1;
        copts.group_commit_micros = 0;
        copts.wos_flush_rows = int64_t{1} << 40;  // Rows stay in the WOS.
        std::vector<NodeSpec> specs;
        for (int i = 1; i <= 3; ++i) {
          specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
        }
        auto cluster = EonCluster::Create(inst->store.get(), &inst->clock,
                                          copts, specs);
        EON_CHECK(cluster.ok());
        inst->cluster = std::move(cluster).value();
        EonCluster* c = inst->cluster.get();
        EON_CHECK(CreateTable(c, "l", left_schema, std::nullopt,
                              {ProjectionSpec{"l_super", {}, {"k"}, {"k"}}})
                      .ok());
        EON_CHECK(CreateTable(c, "r", right_schema, std::nullopt,
                              {ProjectionSpec{"r_super", {}, {"k", "tag"},
                                              {"ks"}}})
                      .ok());
        EON_CHECK(CreateTable(c, "rr", right_schema, std::nullopt,
                              {ProjectionSpec{"rr_super", {}, {"k", "tag"},
                                              {}}})
                      .ok());
        CopyOptions small_blocks;
        small_blocks.rows_per_block = 16;
        EON_CHECK(CopyInto(c, "l", slice(left, 0, 70), small_blocks).ok());
        EON_CHECK(CopyInto(c, "l", slice(left, 70, 110), small_blocks).ok());
        EON_CHECK(InsertInto(c, "l", slice(left, 110, left.size())).ok());
        for (const char* t : {"r", "rr"}) {
          EON_CHECK(CopyInto(c, t, slice(right, 0, 60), small_blocks).ok());
          EON_CHECK(CopyInto(c, t, slice(right, 60, 120), small_blocks).ok());
          EON_CHECK(InsertInto(c, t, slice(right, 120, right.size())).ok());
        }
        ec->by_width[width] = std::move(inst);
      }
      return ec;
    }();
    return instance;
  }
};

/// One chunk-operator edge case. `ordered`: the engine's row order is
/// fully determined and must equal the reference's (under crunch modes
/// that keep each key's build rows on one node); otherwise both sides
/// are compared as sorted multisets, still value for value.
struct ChunkEdgeCase {
  std::string name;
  QuerySpec spec;
  bool ordered = false;
};

std::vector<ChunkEdgeCase> ChunkEdgeCases() {
  std::vector<ChunkEdgeCase> out;
  const PredicatePtr v_is_2 = Predicate::Cmp(3, CmpOp::kEq, Value::Dbl(2.0));
  {
    // Duplicate right keys match in build order: ORDER BY the unique
    // left key is stable, so each key's matches keep their tag order.
    QuerySpec q;
    q.scan.table = "l";
    q.scan.columns = {"k", "v"};
    q.join = JoinSpec{{"r", {"k", "tag"}, nullptr}, "k", "k"};
    q.order_by = "k";
    out.push_back({"duplicate_build_keys_in_build_order", q, true});
  }
  {
    QuerySpec q;  // NULL string keys never match; broadcast join.
    q.scan.table = "l";
    q.scan.columns = {"k", "ks"};
    q.join = JoinSpec{{"rr", {"ks", "tag"}, nullptr}, "ks", "ks"};
    out.push_back({"string_keys_with_nulls_broadcast_join", q, false});
  }
  {
    QuerySpec q;  // NULL double keys never match; -0.0 meets 0.0.
    q.scan.table = "l";
    q.scan.columns = {"k", "kd"};
    q.join = JoinSpec{{"r", {"kd", "tag"}, nullptr}, "kd", "kd"};
    out.push_back({"double_keys_with_nulls_reshuffle_join", q, false});
  }
  {
    QuerySpec q;  // NULL is one group; groups come out in key order.
    q.scan.table = "l";
    q.scan.columns = {"ks"};
    q.group_by = {"ks"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "v", "s"},
                    {AggFn::kMin, "v", "lo"},
                    {AggFn::kMax, "v", "hi"},
                    {AggFn::kAvg, "v", "m"}};
    out.push_back({"string_group_keys_with_nulls", q, true});
  }
  {
    QuerySpec q;
    q.scan.table = "l";
    q.scan.columns = {"kd"};
    q.group_by = {"kd"};
    q.aggregates = {{AggFn::kCount, "", "n"}, {AggFn::kSum, "v", "s"}};
    out.push_back({"double_group_keys_with_nulls", q, true});
  }
  {
    QuerySpec q;
    q.scan.table = "l";
    q.scan.columns = {"ks", "kd"};
    q.group_by = {"ks", "kd"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kCountDistinct, "k", "keys"}};
    out.push_back({"two_group_keys_with_nulls", q, true});
  }
  {
    QuerySpec q;  // Group and fold after the join.
    q.scan.table = "l";
    q.scan.columns = {"k", "v"};
    q.join = JoinSpec{{"r", {"k", "tag"}, nullptr}, "k", "k"};
    q.group_by = {"ks"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "v", "s"},
                    {AggFn::kSum, "tag", "tags"}};
    out.push_back({"join_then_group_by", q, true});
  }
  {
    QuerySpec q;  // Morsels of the second COPY batch yield zero rows.
    q.scan.table = "l";
    q.scan.columns = {"k", "ks", "v"};
    q.scan.predicate = v_is_2;
    out.push_back({"zero_row_morsels_scan", q, false});
  }
  {
    QuerySpec q;
    q.scan.table = "l";
    q.scan.columns = {"k"};
    q.scan.predicate = v_is_2;
    q.join = JoinSpec{{"r", {"k", "tag"}, nullptr}, "k", "k"};
    q.group_by = {"k"};
    q.aggregates = {{AggFn::kCount, "", "n"}, {AggFn::kMax, "tag", "last"}};
    out.push_back({"zero_row_morsels_join_group", q, true});
  }
  {
    QuerySpec q;  // No morsel yields a row: one global row, zero groups.
    q.scan.table = "l";
    q.scan.columns = {"k"};
    q.scan.predicate = Predicate::Cmp(3, CmpOp::kEq, Value::Dbl(2.125));
    q.aggregates = {{AggFn::kCount, "", "n"}};
    out.push_back({"zero_rows_global_count", q, true});
    q.group_by = {"k"};
    out.push_back({"zero_rows_group_by", q, true});
  }
  return out;
}

/// Rows sorted by Value::Compare, column by column: a canonical order for
/// results whose row order is unspecified.
std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

TEST(ChunkOperatorEdges, MatchReferenceAtEveryWidthCrunchAndIsa) {
  ChunkEdgeClusters* ec = ChunkEdgeClusters::Get();
  for (const ChunkEdgeCase& c : ChunkEdgeCases()) {
    auto expected = ReferenceExecute(ec->reference, c.spec);
    ASSERT_TRUE(expected.ok()) << c.name << ": "
                               << expected.status().ToString();
    for (CrunchMode crunch : {CrunchMode::kNone, CrunchMode::kHashFilter,
                              CrunchMode::kContainerSplit}) {
      // Container split divides a container's rows between nodes, so a
      // key's build rows can arrive in node order rather than tag order.
      const bool ordered =
          c.ordered && crunch != CrunchMode::kContainerSplit;
      for (int width : kWidths) {
        for (bool scalar : {false, true}) {
          const std::string label =
              c.name + " crunch " + std::to_string(static_cast<int>(crunch)) +
              " width " + std::to_string(width) +
              (scalar ? " scalar" : " simd");
          EonSession session(ec->by_width[width]->cluster.get(), "",
                             /*seed=*/41);
          session.set_crunch_mode(crunch);
          simd::ForceScalarForTest(scalar);
          auto result = session.Execute(c.spec);
          simd::ForceScalarForTest(false);
          ASSERT_TRUE(result.ok()) << label << ": "
                                   << result.status().ToString();
          std::string diff;
          const bool same =
              ordered ? BitIdentical(result->rows, *expected, &diff)
                      : BitIdentical(SortedRows(result->rows),
                                     SortedRows(*expected), &diff);
          EXPECT_TRUE(same) << label << " vs reference: " << diff;
        }
      }
    }
  }
}

// The cases above are not vacuous: the joins match rows, duplicate keys
// fan out, NULL keys are present on both sides, and the zero-row
// predicate keeps some containers without keeping any of their rows.
TEST(ChunkOperatorEdges, CasesExerciseTheirEdges) {
  ChunkEdgeClusters* ec = ChunkEdgeClusters::Get();
  const std::vector<ChunkEdgeCase> cases = ChunkEdgeCases();
  auto run = [&](const std::string& name) {
    auto it = std::find_if(
        cases.begin(), cases.end(),
        [&](const ChunkEdgeCase& c) { return c.name == name; });
    EON_CHECK(it != cases.end());
    EonSession session(ec->by_width[4]->cluster.get(), "", 41);
    auto result = session.Execute(it->spec);
    EON_CHECK(result.ok());
    return std::move(result).value();
  };
  // 37 left keys meet 3 or 4 build rows each.
  const QueryResult dup = run("duplicate_build_keys_in_build_order");
  EXPECT_GT(dup.rows.size(), 3u * 37u);
  const QueryResult strings = run("string_group_keys_with_nulls");
  ASSERT_FALSE(strings.rows.empty());
  EXPECT_TRUE(strings.rows[0][0].is_null());  // NULL sorts first.
  const QueryResult doubles = run("double_group_keys_with_nulls");
  ASSERT_FALSE(doubles.rows.empty());
  EXPECT_TRUE(doubles.rows[0][0].is_null());
  // Two COPY batches x two shards; none pruned, though the second
  // batch's containers hold no v = 2.0.
  const QueryResult zero = run("zero_row_morsels_scan");
  EXPECT_FALSE(zero.rows.empty());
  EXPECT_EQ(zero.profile.containers_total, 4u);
  EXPECT_EQ(zero.profile.containers_pruned, 0u);
  const QueryResult none = run("zero_rows_global_count");
  ASSERT_EQ(none.rows.size(), 1u);
  EXPECT_EQ(none.rows[0][0].int_value(), 0);
}

}  // namespace
}  // namespace eon
