// Micro-benchmark with acceptance gates: SIMD kernels vs the forced-scalar
// reference, in the same binary (simd::ForceScalarForTest), plus the two
// end-to-end guarantees the kernels ship under:
//
//   1. Kernel speedups on 1M int64 values, best of 7 runs, at 100% and 10%
//      selectivity: predicate compare >= 2.0x, SUM/COUNT/MIN/MAX fold
//      >= 1.5x. The scalar side is compiled with auto-vectorization
//      disabled (see src/columnar/CMakeLists.txt), so the ratio measures
//      the explicit kernels, not the compiler's mood.
//   2. Bit-packed encoding stores low-cardinality int64 chunks at >= 3x
//      fewer bytes than plain.
//   3. Whole-query bit-identity: scalar vs SIMD runs of a predicate +
//      aggregate query set return identical rows at pool widths 1 and 4.
//
// Emits BENCH_simd_kernels.json (+ metrics sidecars); exits 2 when a gate
// misses. On a host whose dispatcher resolves to the scalar ISA (or a
// -DEON_SIMD=off build) the speedup gates are skipped — there is nothing
// to compare — but bit-identity and compression still run.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "columnar/encoding.h"
#include "columnar/kernels.h"
#include "common/random.h"
#include "engine/session.h"

namespace eon {
namespace {

constexpr size_t kValues = 1 << 20;
constexpr int kRepeats = 7;
constexpr int64_t kDomain = 1000;

/// Best-of-kRepeats wall micros of fn().
template <typename Fn>
int64_t BestWall(Fn&& fn) {
  int64_t best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const int64_t t0 = bench::WallMicros();
    fn();
    const int64_t wall = bench::WallMicros() - t0;
    if (r == 0 || wall < best) best = wall;
  }
  return best;
}

struct KernelCell {
  const char* kernel;
  double selectivity;
  int64_t simd_micros = 0;
  int64_t scalar_micros = 0;
  double speedup() const {
    return simd_micros > 0 ? static_cast<double>(scalar_micros) /
                                 static_cast<double>(simd_micros)
                           : 0.0;
  }
};

/// Exact row equality, doubles with ==: the scalar/SIMD contract.
bool BitIdentical(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.type() != y.type() || x.is_null() != y.is_null()) return false;
      if (x.is_null()) continue;
      switch (x.type()) {
        case DataType::kInt64:
          if (x.int_value() != y.int_value()) return false;
          break;
        case DataType::kDouble:
          if (x.dbl_value() != y.dbl_value()) return false;
          break;
        case DataType::kString:
          if (x.str_value() != y.str_value()) return false;
          break;
      }
    }
  }
  return true;
}

std::vector<std::pair<std::string, QuerySpec>> IdentityQuerySet() {
  std::vector<std::pair<std::string, QuerySpec>> out;
  const Schema li = TpchLineitemSchema();
  {
    // Bit-packed predicate column folded into SUM/MIN/MAX/AVG partials.
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_quantity"};
    q.scan.predicate = Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLt,
                                      Value::Int(40));
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_quantity", "s"},
                    {AggFn::kMin, "l_quantity", "lo"},
                    {AggFn::kMax, "l_quantity", "hi"},
                    {AggFn::kAvg, "l_quantity", "m"}};
    out.emplace_back("bp_filter_agg", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_shipmode"};
    q.group_by = {"l_shipmode"};
    q.aggregates = {{AggFn::kCount, "", "n"},
                    {AggFn::kSum, "l_extendedprice", "s"}};
    out.emplace_back("group_by_sum", q);
  }
  {
    QuerySpec q;
    q.scan.table = "lineitem";
    q.scan.columns = {"l_orderkey", "l_quantity", "l_shipmode"};
    q.scan.predicate = Predicate::And(
        Predicate::Cmp(*li.IndexOf("l_shipdate"), CmpOp::kGe, Value::Int(9800)),
        Predicate::Cmp(*li.IndexOf("l_quantity"), CmpOp::kLe, Value::Int(25)));
    out.emplace_back("filter_scan", q);
  }
  return out;
}

}  // namespace
}  // namespace eon

int main() {
  using namespace eon;

  const simd::Isa isa = simd::ActiveIsa();
  const bool simd_available = isa != simd::Isa::kScalar;
  printf("# SIMD kernels vs scalar reference (dispatched ISA: %s)\n",
         simd::IsaName(isa));

  // ---------------------------------------------- kernel speedup cells
  Random rng(29);
  std::vector<int64_t> v(kValues);
  for (int64_t& x : v) x = static_cast<int64_t>(rng.Uniform(kDomain));
  std::vector<uint8_t> sel(kValues);

  std::vector<KernelCell> cells;
  for (double selectivity : {1.0, 0.1}) {
    const int64_t cut = static_cast<int64_t>(kDomain * selectivity);

    KernelCell cmp{"compare_int64", selectivity};
    for (bool scalar : {false, true}) {
      simd::ForceScalarForTest(scalar);
      const int64_t wall = BestWall([&] {
        simd::CompareInt64(v.data(), kValues, CmpOp::kLt, cut, nullptr,
                           sel.data());
      });
      (scalar ? cmp.scalar_micros : cmp.simd_micros) = wall;
    }
    simd::ForceScalarForTest(false);
    cells.push_back(cmp);

    // SUM/COUNT/MIN/MAX partials over the selection the compare produced:
    // at 100% the fold is unmasked, at 10% it folds through the byte mask
    // exactly as the executor's batch aggregation does.
    simd::CompareInt64(v.data(), kValues, CmpOp::kLt, cut, nullptr,
                       sel.data());
    const uint8_t* fold_sel = selectivity >= 1.0 ? nullptr : sel.data();
    KernelCell fold{"fold_int64_sum", selectivity};
    for (bool scalar : {false, true}) {
      simd::ForceScalarForTest(scalar);
      const int64_t wall = BestWall([&] {
        simd::Int64Fold f = simd::FoldInt64(v.data(), kValues, nullptr,
                                            fold_sel);
        asm volatile("" : : "r"(&f) : "memory");
      });
      (scalar ? fold.scalar_micros : fold.simd_micros) = wall;
    }
    simd::ForceScalarForTest(false);
    cells.push_back(fold);
  }

  printf("%16s %6s %12s %12s %8s\n", "kernel", "sel%", "simd_us",
         "scalar_us", "speedup");
  for (const KernelCell& c : cells) {
    printf("%16s %6.0f %12lld %12lld %7.2fx\n", c.kernel,
           c.selectivity * 100, static_cast<long long>(c.simd_micros),
           static_cast<long long>(c.scalar_micros), c.speedup());
  }

  // ------------------------------------------- bit-packed compression
  // 8 distinct values -> 3-bit packing; plain spends a null byte plus a
  // varint per row.
  std::vector<Value> lowcard;
  lowcard.reserve(kValues / 16);
  for (size_t i = 0; i < kValues / 16; ++i) {
    lowcard.push_back(Value::Int(static_cast<int64_t>(i * 2654435761ULL % 8)));
  }
  auto plain = EncodeChunk(lowcard, DataType::kInt64, Encoding::kPlain);
  auto packed = EncodeChunk(lowcard, DataType::kInt64, Encoding::kBitPacked);
  if (!plain.ok() || !packed.ok()) {
    fprintf(stderr, "encode failed\n");
    return 1;
  }
  const double compression = static_cast<double>(plain->size()) /
                             static_cast<double>(packed->size());
  printf("# bit-packed low-cardinality int64: plain %zu B, packed %zu B "
         "(%.1fx)\n",
         plain->size(), packed->size(), compression);

  // ------------------------------------- whole-query scalar/SIMD identity
  // Clusters at pool widths 1 and 4 over zero-latency simulated S3; every
  // (query, width) cell must be bit-identical scalar vs SIMD.
  bool identity_ok = true;
  uint64_t identity_cells = 0;
  {
    struct Fixture {
      SimClock clock;
      std::unique_ptr<SimObjectStore> store;
      std::unique_ptr<EonCluster> cluster;
    };
    TpchOptions topts;
    topts.scale = 0.05;
    const TpchData data = GenerateTpch(topts);
    std::vector<std::unique_ptr<Fixture>> fixtures;
    for (int width : {1, 4}) {
      auto f = std::make_unique<Fixture>();
      SimStoreOptions sopts;
      sopts.get_latency_micros = 0;
      sopts.put_latency_micros = 0;
      sopts.list_latency_micros = 0;
      f->store = std::make_unique<SimObjectStore>(sopts, &f->clock);
      ClusterOptions copts;
      copts.num_shards = 3;
      copts.k_safety = 2;
      copts.exec_threads = width;
      std::vector<NodeSpec> specs;
      for (int i = 1; i <= 3; ++i) {
        specs.push_back(NodeSpec{"n" + std::to_string(i), ""});
      }
      auto cluster =
          EonCluster::Create(f->store.get(), &f->clock, copts, specs);
      if (!cluster.ok() || !CreateTpchTables(cluster->get()).ok() ||
          !LoadTpch(cluster->get(), data, 256).ok()) {
        fprintf(stderr, "fixture build failed\n");
        return 1;
      }
      f->cluster = std::move(cluster).value();
      fixtures.push_back(std::move(f));
    }

    for (const auto& [name, spec] : IdentityQuerySet()) {
      for (const auto& f : fixtures) {
        EonSession simd_session(f->cluster.get(), "", /*seed=*/41);
        auto with_simd = simd_session.Execute(spec);

        simd::ForceScalarForTest(true);
        EonSession scalar_session(f->cluster.get(), "", /*seed=*/41);
        auto with_scalar = scalar_session.Execute(spec);
        simd::ForceScalarForTest(false);

        ++identity_cells;
        if (!with_simd.ok() || !with_scalar.ok() ||
            !BitIdentical(with_simd->rows, with_scalar->rows)) {
          identity_ok = false;
          fprintf(stderr, "IDENTITY MISMATCH: %s width %llu\n", name.c_str(),
                  static_cast<unsigned long long>(
                      f->cluster->exec_pool()->width()));
        }
      }
    }
  }
  printf("# scalar-vs-simd query identity: %llu cells, %s\n",
         static_cast<unsigned long long>(identity_cells),
         identity_ok ? "all bit-identical" : "MISMATCH");

  // ------------------------------------------------------------- output
  JsonValue kernels = JsonValue::Array();
  for (const KernelCell& c : cells) {
    JsonValue e = JsonValue::Object();
    e.Set("kernel", JsonValue::Str(c.kernel));
    e.Set("selectivity", JsonValue::Double(c.selectivity));
    e.Set("values", JsonValue::Int(static_cast<int64_t>(kValues)));
    e.Set("simd_micros", JsonValue::Int(c.simd_micros));
    e.Set("scalar_micros", JsonValue::Int(c.scalar_micros));
    e.Set("speedup", JsonValue::Double(c.speedup()));
    kernels.Append(std::move(e));
  }
  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::Str("simd_kernels"));
  out.Set("isa", JsonValue::Str(simd::IsaName(isa)));
  out.Set("simd_available", JsonValue::Bool(simd_available));
  out.Set("kernels", std::move(kernels));
  out.Set("bitpacked_compression_vs_plain", JsonValue::Double(compression));
  out.Set("identity_cells", JsonValue::Int(static_cast<int64_t>(identity_cells)));
  out.Set("identity_ok", JsonValue::Bool(identity_ok));

  FILE* fp = fopen("BENCH_simd_kernels.json", "w");
  if (fp != nullptr) {
    const std::string text = out.Dump();
    fwrite(text.data(), 1, text.size(), fp);
    fclose(fp);
    fprintf(stderr, "wrote BENCH_simd_kernels.json\n");
  }
  bench::DumpBenchSidecars("BENCH_simd_kernels", nullptr);

  // ---------------------------------------------------------------- gates
  bool gates_ok = identity_ok && compression >= 3.0;
  if (simd_available) {
    for (const KernelCell& c : cells) {
      const double need =
          std::string(c.kernel) == "compare_int64" ? 2.0 : 1.5;
      if (c.speedup() < need) {
        fprintf(stderr, "GATE MISS: %s sel=%g speedup %.2fx < %.1fx\n",
                c.kernel, c.selectivity, c.speedup(), need);
        gates_ok = false;
      }
    }
  } else {
    printf("# scalar-only host/build: speedup gates skipped\n");
  }
  if (compression < 3.0) {
    fprintf(stderr, "GATE MISS: compression %.2fx < 3.0x\n", compression);
  }
  return gates_ok ? 0 : 2;
}
