// Micro-benchmarks (google-benchmark): column encodings, hashing,
// checksums, ROS scan with and without pruning, max flow, LRU cache ops,
// and the vectorized scan kernels (SIMD vs forced-scalar). Each kernel
// benchmark publishes its measured throughput (values/s) as a gauge in the
// default metrics registry, dumped to BENCH_micro_components.metrics.json
// at exit.

#include <benchmark/benchmark.h>

#include <chrono>

#include "cache/file_cache.h"
#include "columnar/encoding.h"
#include "columnar/kernels.h"
#include "columnar/ros.h"
#include "common/hash.h"
#include "common/random.h"
#include "obs/export.h"
#include "shard/maxflow.h"
#include "storage/object_store.h"

namespace eon {
namespace {

std::vector<Value> MakeInts(size_t n, bool sorted) {
  Random rng(7);
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Value::Int(sorted ? static_cast<int64_t>(i * 3)
                                    : static_cast<int64_t>(rng.Next() >> 16)));
  }
  return out;
}

void BM_EncodeChunk(benchmark::State& state) {
  const Encoding enc = static_cast<Encoding>(state.range(0));
  const bool sorted = enc == Encoding::kDeltaVarint || enc == Encoding::kRle;
  std::vector<Value> values = MakeInts(4096, sorted);
  if (enc == Encoding::kRle) {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = Value::Int(static_cast<int64_t>(i / 64));
    }
  }
  if (enc == Encoding::kDict) {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = Value::Int(static_cast<int64_t>(i % 16));
    }
  }
  for (auto _ : state) {
    auto encoded = EncodeChunk(values, DataType::kInt64, enc);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EncodeChunk)
    ->Arg(static_cast<int>(Encoding::kPlain))
    ->Arg(static_cast<int>(Encoding::kRle))
    ->Arg(static_cast<int>(Encoding::kDict))
    ->Arg(static_cast<int>(Encoding::kDeltaVarint));

void BM_DecodeChunk(benchmark::State& state) {
  std::vector<Value> values = MakeInts(4096, true);
  auto encoded = EncodeChunk(values, DataType::kInt64,
                             Encoding::kDeltaVarint);
  for (auto _ : state) {
    std::vector<Value> out;
    Status s = DecodeChunk(*encoded, DataType::kInt64, &out);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DecodeChunk);

void BM_Hash64(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

void BM_RosScan(benchmark::State& state) {
  const bool selective = state.range(0) != 0;
  Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.push_back(Row{Value::Int(i), Value::Dbl(i * 0.5)});
  }
  auto built = RosContainerWriter::Build(schema, rows);
  MemObjectStore store;
  EON_CHECK(store.Put("data/bm", built->data).ok());
  DirectFetcher fetcher(&store);
  RosScanOptions scan;
  scan.output_columns = {0, 1};
  if (selective) {
    scan.predicate = Predicate::Cmp(0, CmpOp::kGe, Value::Int(19500));
  }
  for (auto _ : state) {
    auto out = ScanRosContainer(schema, "data/bm", &fetcher, scan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
  state.SetLabel(selective ? "selective(pruned)" : "full");
}
BENCHMARK(BM_RosScan)->Arg(0)->Arg(1);

void BM_MaxFlowParticipationGraph(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int nodes = shards / 2;
  for (auto _ : state) {
    MaxFlowGraph g(2 + shards + nodes);
    const int sink = 1 + shards + nodes;
    for (int s = 0; s < shards; ++s) {
      g.AddEdge(0, 1 + s, 1);
      g.AddEdge(1 + s, 1 + shards + (s % nodes), 1);
      g.AddEdge(1 + s, 1 + shards + ((s + 1) % nodes), 1);
    }
    for (int n = 0; n < nodes; ++n) {
      g.AddEdge(1 + shards + n, sink, std::max(1, shards / nodes));
    }
    benchmark::DoNotOptimize(g.Solve(0, sink));
  }
}
BENCHMARK(BM_MaxFlowParticipationGraph)->Arg(8)->Arg(64)->Arg(256);

void BM_CacheHit(benchmark::State& state) {
  MemObjectStore store;
  EON_CHECK(store.Put("k", std::string(64 * 1024, 'x')).ok());
  CacheOptions opts;
  opts.capacity_bytes = 1 << 20;
  FileCache cache(opts, &store);
  EON_CHECK(cache.Fetch("k").ok());
  for (auto _ : state) {
    auto data = cache.Fetch("k");
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_CacheHit);

void BM_SegmentationHash(benchmark::State& state) {
  Random rng(3);
  int64_t v = static_cast<int64_t>(rng.Next());
  for (auto _ : state) {
    v = static_cast<int64_t>(SegmentationHashInt(v)) + 1;
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SegmentationHash);

// ------------------------------------------------ vectorized scan kernels

constexpr size_t kKernelN = 1 << 16;

/// Publish a kernel benchmark's throughput into the default registry so
/// the metrics sidecar carries per-kernel values/s next to the
/// google-benchmark numbers.
void ReportKernelThroughput(benchmark::State& state, const char* kernel,
                            bool scalar, int64_t values_per_sec) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kKernelN));
  state.SetLabel(scalar ? "scalar" : simd::IsaName(simd::ActiveIsa()));
  obs::MetricsRegistry::Default()
      ->GetGauge("eon_bench_kernel_values_per_sec",
                 obs::LabelSet{{"kernel", kernel},
                               {"isa", scalar
                                           ? "scalar"
                                           : simd::IsaName(simd::ActiveIsa())}})
      ->Set(values_per_sec);
}

/// Times `fn` (which processes kKernelN values) around the benchmark loop
/// and returns values/s.
template <typename Fn>
int64_t TimeKernelLoop(benchmark::State& state, bool scalar, Fn&& fn) {
  simd::ForceScalarForTest(scalar);
  const auto t0 = std::chrono::steady_clock::now();
  int64_t iters = 0;
  for (auto _ : state) {
    fn();
    ++iters;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  simd::ForceScalarForTest(false);
  return secs > 0 ? static_cast<int64_t>(
                        static_cast<double>(iters) * kKernelN / secs)
                  : 0;
}

void BM_KernelCompareInt64(benchmark::State& state) {
  const bool scalar = state.range(0) != 0;
  Random rng(11);
  std::vector<int64_t> v(kKernelN);
  for (int64_t& x : v) x = static_cast<int64_t>(rng.Uniform(1000));
  std::vector<uint8_t> sel(kKernelN);
  const int64_t vps = TimeKernelLoop(state, scalar, [&] {
    simd::CompareInt64(v.data(), kKernelN, CmpOp::kLt, 500, nullptr,
                       sel.data());
    benchmark::DoNotOptimize(sel.data());
  });
  ReportKernelThroughput(state, "compare_int64", scalar, vps);
}
BENCHMARK(BM_KernelCompareInt64)->Arg(0)->Arg(1);

void BM_KernelFoldInt64(benchmark::State& state) {
  const bool scalar = state.range(0) != 0;
  Random rng(13);
  std::vector<int64_t> v(kKernelN);
  for (int64_t& x : v) x = static_cast<int64_t>(rng.Uniform(1000));
  const int64_t vps = TimeKernelLoop(state, scalar, [&] {
    simd::Int64Fold f = simd::FoldInt64(v.data(), kKernelN, nullptr, nullptr);
    benchmark::DoNotOptimize(f);
  });
  ReportKernelThroughput(state, "fold_int64", scalar, vps);
}
BENCHMARK(BM_KernelFoldInt64)->Arg(0)->Arg(1);

void BM_KernelSegHashInt64(benchmark::State& state) {
  const bool scalar = state.range(0) != 0;
  Random rng(17);
  std::vector<int64_t> v(kKernelN);
  for (int64_t& x : v) x = static_cast<int64_t>(rng.Next());
  std::vector<uint32_t> out(kKernelN);
  const int64_t vps = TimeKernelLoop(state, scalar, [&] {
    simd::SegHashInt64(v.data(), kKernelN, nullptr, out.data());
    benchmark::DoNotOptimize(out.data());
  });
  ReportKernelThroughput(state, "seg_hash_int64", scalar, vps);
}
BENCHMARK(BM_KernelSegHashInt64)->Arg(0)->Arg(1);

void BM_KernelSelCompact(benchmark::State& state) {
  const bool scalar = state.range(0) != 0;
  Random rng(19);
  std::vector<uint8_t> sel(kKernelN);
  for (uint8_t& b : sel) b = rng.Bernoulli(0.1) ? 1 : 0;
  std::vector<uint32_t> idx(kKernelN);
  const int64_t vps = TimeKernelLoop(state, scalar, [&] {
    size_t n = simd::SelCompact(sel.data(), kKernelN, idx.data());
    benchmark::DoNotOptimize(n);
  });
  ReportKernelThroughput(state, "sel_compact", scalar, vps);
}
BENCHMARK(BM_KernelSelCompact)->Arg(0)->Arg(1);

}  // namespace
}  // namespace eon

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Per-kernel values/s gauges land in the metrics sidecar.
  eon::Status s =
      eon::obs::WriteSnapshotJsonFile("BENCH_micro_components.metrics.json");
  if (s.ok()) {
    fprintf(stderr, "metrics snapshot: BENCH_micro_components.metrics.json\n");
  }
  return 0;
}
