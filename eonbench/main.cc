// The end-to-end Eon benchmark. One run = one workload:
//
//   eonbench --workload <tpch_warm|tpch_cold|serve_mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--calibrate]
//
// It builds the workload's fixture kSetupRepeats times (setup_s is the
// median), checks its oracles against a deliberately corrupted result,
// runs the workload for --seconds, checks every output, and prints each
// metric as "metric <name> <value> <unit>" followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the recorded spans to .bench_out/. Exit status is 0 only when every
// output was correct.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "harness.h"

namespace eonbench {
namespace {

constexpr int kSetupRepeats = 7;

bool ParseArgs(int argc, char** argv, RunOptions* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--calibrate") {
      o->calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--workload") {
      o->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atoi(value);
    } else if (arg == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return have_workload && o->seconds > 0;
}

Result<std::unique_ptr<Workload>> Setup(const RunOptions& o, const Pins& pins) {
  if (o.workload == "tpch_warm") return SetupTpch(false, o.seed, pins);
  if (o.workload == "tpch_cold") return SetupTpch(true, o.seed, pins);
  if (o.workload == "serve_mixed") return SetupServe(o.seed, pins);
  return Status::InvalidArgument("unknown workload: " + o.workload);
}

std::string Json(const Report& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Report::Metric& m = r.metrics[i];
    char value[64];
    snprintf(value, sizeof(value), "%.17g",
             std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    fprintf(stderr,
            "usage: eonbench --workload <tpch_warm|tpch_cold|serve_mixed> "
            "--seed <n> --seconds <s> --trace <0|1> [--calibrate]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  fprintf(stderr, "eonbench: refusing to report numbers from a "
                  "non-optimized build\n");
  return 2;
#endif
  const Pins pins;
  printf("# config %s\n", ConfigJson(pins).c_str());
  printf("# workload %s seed %llu seconds %d trace %d\n",
         options.workload.c_str(),
         static_cast<unsigned long long>(options.seed), options.seconds,
         options.trace ? 1 : 0);

  // Set-up runs kSetupRepeats times; the last fixture is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    const int64_t t0 = NowMicros();
    Result<std::unique_ptr<Workload>> w = Setup(options, pins);
    if (!w.ok()) {
      fprintf(stderr, "setup failed: %s\n", w.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    workload = std::move(w).value();
  }

  Report report;
  Status s = workload->Prepare(&report);
  if (!s.ok()) {
    fprintf(stderr, "oracle preparation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // rss_mb is the peak during the run, not the set-ups' peak.
  if (!ResetPeakRss()) {
    report.notes.push_back("rss_mb: peak since process start (clear_refs "
                           "refused)");
  }
  // Measure from a fresh thread, like a server connection thread: the
  // main thread's allocator arena holds every fixture built above, and
  // statements issued from it ran up to 0.5 ms slower.
  std::thread([&] { s = workload->Run(options, &report); }).join();
  if (!s.ok()) {
    fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double rss_mb = PeakRssMb();
  workload.reset();

  if (!options.trace) {
    report.Add("rss_mb", rss_mb, "MB");
    report.Add("setup_s", Median(setup_s), "s");
  } else {
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/spans-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    s = SpanLog::Get().Write(path);
    report.notes.push_back("spans: " + path + " (" + s.ToString() + ")");
  }
  for (const std::string& note : report.notes) printf("# %s\n", note.c_str());
  printf("# fail_ratio %.6f (%llu of %llu statements)\n",
         report.attempted == 0
             ? 0.0
             : static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted),
         static_cast<unsigned long long>(report.failed),
         static_cast<unsigned long long>(report.attempted));
  for (const Report::Metric& m : report.metrics) {
    printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printf("%s\n", Json(report).c_str());
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace eonbench

int main(int argc, char** argv) { return eonbench::Main(argc, argv); }
