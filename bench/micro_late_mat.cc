// Micro-benchmark: late materialization in the ROS scan pipeline.
//
// Sweeps predicate selectivity (100%, 10%, 1%, 0.01%) over one predicate
// column per encoding, with a high-cardinality string payload column as
// the output. Each cell runs ScanRosContainer (encoded predicate eval +
// selective decode) over a MemObjectStore through a DirectFetcher, so the
// measurement isolates decode CPU: no cache, no simulated store latency.
// It reports wall time and values_decoded against the full-decode count,
// rows × output columns — what decoding every output value would cost.
//
// Expected shape: on RLE and dictionary columns the predicate is decided
// once per run / once per dictionary entry, and the payload column only
// materializes survivors, so values_decoded collapses at low selectivity.
// Plain falls back to a decoded predicate column (selective decode still
// skips payload materialization); delta is sorted, so block min/max
// pruning removes most blocks at low selectivity. The gate is the decode
// ratio at 1% on RLE and dict (>= 5x), which is the same on every run;
// wall times are reported, not gated. Emits BENCH_late_mat.json plus a
// metrics-snapshot sidecar.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "columnar/ros.h"
#include "storage/object_store.h"

namespace eon {
namespace {

constexpr size_t kRows = 1 << 18;  // 64 blocks of 4096.
constexpr uint64_t kRowsPerBlock = 4096;
constexpr int kRepeats = 7;
constexpr double kSelectivities[] = {1.0, 0.1, 0.01, 0.0001};

std::string PayloadFor(size_t i) {
  return "payload-" + std::to_string(i * 2654435761ULL % 1000000007ULL);
}

struct Dataset {
  std::string name;       // Target encoding of the predicate column.
  Schema schema;
  std::vector<Row> rows;
  // Predicate col0 < CutValue(sel) selects ~sel of the rows.
  int64_t domain = 0;     // Int datasets: col0 values lie in [0, domain).
  bool string_key = false;
};

// Zero-padded so lexicographic order equals numeric order.
std::string DictKey(int64_t id) {
  char buf[24];
  snprintf(buf, sizeof(buf), "k%06lld", static_cast<long long>(id));
  return buf;
}

Dataset MakeDataset(const std::string& name) {
  Dataset d;
  d.name = name;
  d.schema = Schema({{"key", name == "dict" ? DataType::kString
                                            : DataType::kInt64},
                     {"payload", DataType::kString}});
  d.rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    Value key;
    if (name == "rle") {
      // Runs of 64; run values permuted over [0, 10000) so block min/max
      // never isolates the selected range (no pruning shortcut).
      d.domain = 10000;
      key = Value::Int(static_cast<int64_t>(i / 64 * 7919 % 10000));
    } else if (name == "dict") {
      // 256 distinct strings in scattered order — low-cardinality enough
      // for the per-block heuristic (distinct <= sampled/4) to pick dict.
      d.domain = 256;
      d.string_key = true;
      key = Value::Str(DictKey(static_cast<int64_t>(i * 2654435761ULL % 256)));
    } else if (name == "delta") {
      // Sorted: picks delta-varint; tight block ranges mean min/max
      // pruning does most of the work at low selectivity.
      d.domain = static_cast<int64_t>(kRows);
      key = Value::Int(static_cast<int64_t>(i));
    } else if (name == "bp") {
      // Small-domain unsorted ints, no runs: bit-packs at width 10. The
      // encoded path screens 128-value blocks and SIMD-compares the rest.
      d.domain = 1000;
      key = Value::Int(static_cast<int64_t>(i * 2654435761ULL % 1000));
    } else {  // plain: high-cardinality, unsorted, runless.
      d.domain = 1000000;
      key = Value::Int(static_cast<int64_t>(i * 2654435761ULL % 1000000));
    }
    d.rows.push_back(Row{std::move(key), Value::Str(PayloadFor(i))});
  }
  return d;
}

PredicatePtr CutPredicate(const Dataset& d, double sel) {
  // col0 < cut. For tiny selectivities keep at least one match-capable
  // cut value; actual selected-row counts are reported in the output.
  const int64_t cut = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(d.domain) * sel));
  if (d.string_key) {
    return Predicate::Cmp(0, CmpOp::kLt, Value::Str(DictKey(cut)));
  }
  return Predicate::Cmp(0, CmpOp::kLt, Value::Int(cut));
}

struct ScanRun {
  int64_t wall_micros = 0;
  uint64_t rows_output = 0;
  uint64_t values_decoded = 0;
  uint64_t blocks_pruned = 0;
};

bool RunScan(const Dataset& d, FileFetcher* fetcher, const PredicatePtr& pred,
             ScanRun* out) {
  RosScanOptions scan;
  scan.output_columns = {1};  // Payload only: predicate column is phase-1.
  scan.predicate = pred;

  // Best of kRepeats by wall time (single-run stats are deterministic).
  for (int r = 0; r < kRepeats; ++r) {
    RosScanStats st;
    const int64_t wall0 = bench::WallMicros();
    auto rows = ScanRosContainer(d.schema, "bench/" + d.name, fetcher, scan,
                                 &st);
    const int64_t wall = bench::WallMicros() - wall0;
    if (!rows.ok()) {
      fprintf(stderr, "scan failed (%s): %s\n", d.name.c_str(),
              rows.status().ToString().c_str());
      return false;
    }
    if (r == 0 || wall < out->wall_micros) out->wall_micros = wall;
    out->rows_output = st.rows_output;
    out->values_decoded = st.values_decoded;
    out->blocks_pruned = st.blocks_pruned;
  }
  return true;
}

}  // namespace
}  // namespace eon

int main() {
  using namespace eon;

  // Rows x the one output column (payload).
  const uint64_t full_decode = kRows;
  printf("# Late materialization: encoded-eval + selective decode\n");
  printf("# %zu rows/container, %llu rows/block, payload = high-card string, "
         "full decode = %llu values\n",
         kRows, static_cast<unsigned long long>(kRowsPerBlock),
         static_cast<unsigned long long>(full_decode));
  printf("%7s %6s %9s %8s %10s %13s %8s\n", "enc", "sel%", "rows_out",
         "pruned", "wall_us", "values_dec", "dec_x");

  JsonValue cases = JsonValue::Array();
  double rle_dec_ratio_1pct = 0;
  double dict_dec_ratio_1pct = 0;

  for (const std::string& name : {std::string("rle"), std::string("dict"),
                                  std::string("bp"), std::string("plain"),
                                  std::string("delta")}) {
    const Dataset d = MakeDataset(name);
    RosWriteOptions wopts;
    wopts.rows_per_block = kRowsPerBlock;
    auto built =
        RosContainerWriter::Build(d.schema, d.rows, wopts);
    if (!built.ok()) {
      fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    MemObjectStore store;
    if (!store.Put("bench/" + name, built->data).ok()) return 1;
    DirectFetcher fetcher(&store);

    for (double sel : kSelectivities) {
      const PredicatePtr pred = CutPredicate(d, sel);
      ScanRun run;
      if (!RunScan(d, &fetcher, pred, &run)) return 1;
      const uint64_t expected = static_cast<uint64_t>(
          std::count_if(d.rows.begin(), d.rows.end(),
                        [&](const Row& row) { return pred->Eval(row); }));
      if (run.rows_output != expected) {
        fprintf(stderr, "ROW COUNT MISMATCH: %s sel=%g scan=%llu eval=%llu\n",
                name.c_str(), sel,
                static_cast<unsigned long long>(run.rows_output),
                static_cast<unsigned long long>(expected));
        return 1;
      }

      const double dec_ratio =
          run.values_decoded > 0
              ? static_cast<double>(full_decode) /
                    static_cast<double>(run.values_decoded)
              : 0.0;
      if (name == "rle" && sel == 0.01) rle_dec_ratio_1pct = dec_ratio;
      if (name == "dict" && sel == 0.01) dict_dec_ratio_1pct = dec_ratio;

      printf("%7s %6.2f %9llu %8llu %10lld %13llu %7.1fx\n", name.c_str(),
             sel * 100, static_cast<unsigned long long>(run.rows_output),
             static_cast<unsigned long long>(run.blocks_pruned),
             static_cast<long long>(run.wall_micros),
             static_cast<unsigned long long>(run.values_decoded), dec_ratio);

      JsonValue e = JsonValue::Object();
      e.Set("encoding", JsonValue::Str(name));
      e.Set("selectivity_target", JsonValue::Double(sel));
      e.Set("rows_output",
            JsonValue::Int(static_cast<int64_t>(run.rows_output)));
      e.Set("blocks_pruned",
            JsonValue::Int(static_cast<int64_t>(run.blocks_pruned)));
      e.Set("wall_micros", JsonValue::Int(run.wall_micros));
      e.Set("values_decoded",
            JsonValue::Int(static_cast<int64_t>(run.values_decoded)));
      e.Set("full_decode_values",
            JsonValue::Int(static_cast<int64_t>(full_decode)));
      e.Set("values_decoded_ratio", JsonValue::Double(dec_ratio));
      cases.Append(std::move(e));
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("bench", JsonValue::Str("late_mat"));
  out.Set("rows_per_container", JsonValue::Int(static_cast<int64_t>(kRows)));
  out.Set("rows_per_block", JsonValue::Int(static_cast<int64_t>(kRowsPerBlock)));
  out.Set("cases", std::move(cases));

  FILE* fp = fopen("BENCH_late_mat.json", "w");
  if (fp != nullptr) {
    const std::string text = out.Dump();
    fwrite(text.data(), 1, text.size(), fp);
    fclose(fp);
    fprintf(stderr, "wrote BENCH_late_mat.json\n");
  }
  bench::DumpBenchSidecars("BENCH_late_mat", nullptr);

  printf("# shape check at 1%% selectivity: rle %.1fx fewer values decoded "
         "than a full decode, dict %.1fx (gate >= 5x)\n",
         rle_dec_ratio_1pct, dict_dec_ratio_1pct);
  const bool ok = rle_dec_ratio_1pct >= 5.0 && dict_dec_ratio_1pct >= 5.0;
  return ok ? 0 : 2;
}
