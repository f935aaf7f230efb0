// Unit tests for the common runtime: Status/Result, hashing, codec, SIDs,
// JSON, RNG, clocks, thread pool, the I/O pool's ParallelFor fan-out
// (race-labeled: concurrent callers share one pool under TSan), and the
// serial background worker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/hash.h"
#include "common/io_pool.h"
#include "common/json.h"
#include "common/random.h"
#include "common/serial_worker.h"
#include "common/result.h"
#include "common/sid.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/dc.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eon {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsIOError());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
  EXPECT_EQ(s.message(), "missing thing");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> in) {
  EON_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::IOError("disk")).status().IsIOError());
}

TEST(HashTest, Deterministic) {
  const char* data = "hello eon mode";
  EXPECT_EQ(Hash64(data, 14), Hash64(data, 14));
  EXPECT_NE(Hash64(data, 14), Hash64(data, 13));
  EXPECT_NE(Hash64(data, 14, 1), Hash64(data, 14, 2));
}

TEST(HashTest, CoversLongInputs) {
  std::string big(1000, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i);
  uint64_t h1 = Hash64(big.data(), big.size());
  big[500] ^= 1;
  EXPECT_NE(h1, Hash64(big.data(), big.size()));
}

TEST(HashTest, SegmentationHashSpreads) {
  // Sequential keys should land in all regions of a 4-way split.
  std::set<uint32_t> shards;
  for (int64_t k = 0; k < 1000; ++k) {
    shards.insert(SegmentationHashInt(k) >> 30);  // Top 2 bits = 4 regions.
  }
  EXPECT_EQ(shards.size(), 4u);
}

TEST(HashTest, Crc32cKnownVector) {
  // CRC-32C of "123456789" is 0xE3069283 (Castagnoli reference value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

/// The bytewise table-driven CRC32C, kept as the oracle for the
/// slicing-by-8 implementation.
uint32_t Crc32cBytewise(const void* data, size_t len, uint32_t init = 0) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : c >> 1;
    table[i] = c;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = init ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(HashTest, Crc32cRfc3720Vectors) {
  // RFC 3720 (iSCSI) appendix B.4 test vectors.
  const std::string zeros(32, '\x00');
  const std::string ones(32, '\xFF');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(HashTest, Crc32cMatchesBytewiseOracleAtEveryLengthAndAlignment) {
  std::string buf(1024 + 8, '\0');
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& ch : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ch = static_cast<char>(x);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const char* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, len), Crc32cBytewise(p, len))
          << "len " << len << " align " << align;
    }
  }
  // Chaining through `init` equals one pass over the concatenation, at
  // every split point (splits cross the 8-byte steps at every phase).
  const size_t total = 100;
  const uint32_t whole = Crc32c(buf.data(), total);
  for (size_t split = 0; split <= total; ++split) {
    const uint32_t head = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, total - split, head), whole)
        << "split " << split;
    EXPECT_EQ(Crc32cBytewise(buf.data() + split, total - split, head), whole);
  }
}

TEST(HashTest, Crc32cDetectsBitFlip) {
  std::string data = "the quick brown fox";
  uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 0x40;
  EXPECT_NE(crc, Crc32c(data.data(), data.size()));
}

TEST(CodecTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32).ok());
  ASSERT_TRUE(GetFixed64(&in, &v64).ok());
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(in.empty());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  std::string buf;
  PutVarint64(&buf, GetParam());
  Slice in(buf);
  uint64_t v;
  ASSERT_TRUE(GetVarint64(&in, &v).ok());
  EXPECT_EQ(v, GetParam());
}

TEST_P(VarintRoundTrip, SignedBothSigns) {
  for (int64_t sign : {1, -1}) {
    int64_t value = sign * static_cast<int64_t>(GetParam() >> 1);
    std::string buf;
    PutVarint64Signed(&buf, value);
    Slice in(buf);
    int64_t v;
    ASSERT_TRUE(GetVarint64Signed(&in, &v).ok());
    EXPECT_EQ(v, value);
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           16383ULL, 16384ULL, 1ULL << 31,
                                           (1ULL << 32) - 1, 1ULL << 32,
                                           UINT64_MAX));

TEST(CodecTest, VarintUnderflowIsCorruption) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  buf.resize(buf.size() - 1);  // Chop the terminator byte.
  Slice in(buf);
  uint64_t v;
  EXPECT_TRUE(GetVarint64(&in, &v).IsCorruption());
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'z'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a).ok());
  ASSERT_TRUE(GetLengthPrefixed(&in, &b).ok());
  ASSERT_TRUE(GetLengthPrefixed(&in, &c).ok());
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 300u);
}

TEST(CodecTest, DoubleRoundTrip) {
  for (double d : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    std::string buf;
    PutDouble(&buf, d);
    Slice in(buf);
    double v;
    ASSERT_TRUE(GetDouble(&in, &v).ok());
    EXPECT_EQ(v, d);
  }
}

TEST(SidTest, StorageIdRoundTrip) {
  StorageId sid;
  sid.version = 1;
  sid.instance = NodeInstanceId::Generate(123, 456);
  sid.local_id = 0xCAFEBABE;
  const std::string text = sid.ToString();
  EXPECT_EQ(text.size(), 48u);
  auto parsed = StorageId::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, sid);
}

TEST(SidTest, DistinctInstancesMintDistinctIds) {
  // Two cloned clusters (same local id counters) still produce unique SIDs
  // because their node instance ids differ (paper Section 5.1).
  StorageId a, b;
  a.instance = NodeInstanceId::Generate(1, 1);
  b.instance = NodeInstanceId::Generate(2, 1);
  a.local_id = b.local_id = 42;
  EXPECT_NE(a.ToString(), b.ToString());
}

TEST(SidTest, ParseRejectsBadInput) {
  EXPECT_FALSE(StorageId::Parse("tooshort").ok());
  EXPECT_FALSE(StorageId::Parse(std::string(48, 'g')).ok());  // Not hex.
}

TEST(SidTest, IncarnationRoundTrip) {
  IncarnationId inc = IncarnationId::Generate(7, 8);
  EXPECT_FALSE(inc.IsZero());
  auto parsed = IncarnationId::FromHex(inc.ToHex());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, inc);
}

TEST(JsonTest, RoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::Str("eon"));
  obj.Set("version", JsonValue::Int(9));
  obj.Set("ratio", JsonValue::Double(0.5));
  obj.Set("beta", JsonValue::Bool(true));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Str("n1"));
  arr.Append(JsonValue::Str("n2"));
  obj.Set("nodes", std::move(arr));

  auto parsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("name").string_value(), "eon");
  EXPECT_EQ(parsed->Get("version").int_value(), 9);
  EXPECT_DOUBLE_EQ(parsed->Get("ratio").double_value(), 0.5);
  EXPECT_TRUE(parsed->Get("beta").bool_value());
  EXPECT_EQ(parsed->Get("nodes").size(), 2u);
}

TEST(JsonTest, EscapesSpecials) {
  JsonValue v = JsonValue::Str("line1\nline2\t\"quoted\"\\");
  auto parsed = JsonValue::Parse(v.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "line1\nline2\t\"quoted\"\\");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,2,").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, ZipfBoundedAndSkewed) {
  Random rng(2);
  uint64_t low = 0, total = 2000;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t v = rng.Zipf(1000, 0.8);
    EXPECT_LT(v, 1000u);
    if (v < 100) low++;
  }
  // Strong skew: far more than 10% of draws land in the lowest 10%.
  EXPECT_GT(low, total / 3);
}

TEST(ClockTest, SimClockJumps) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0);
  clock.AdvanceMicros(1500);
  EXPECT_EQ(clock.NowMicros(), 1500);
  clock.SetMicros(10000);
  EXPECT_EQ(clock.NowMicros(), 10000);
}

TEST(ClockTest, WallClockMonotone) {
  WallClock clock;
  int64_t a = clock.NowMicros();
  clock.AdvanceMicros(1000);
  EXPECT_GE(clock.NowMicros(), a + 1000);
}

TEST(SliceTest, CompareAndPrefix) {
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
  Slice s("hello");
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(ThreadPoolTest, WidthMatchesOptions) {
  ThreadPool::Options opts;
  opts.num_threads = 4;
  ThreadPool pool(opts);
  EXPECT_EQ(pool.width(), 4);
}

TEST(ThreadPoolTest, Width1RunsInline) {
  ThreadPool::Options opts;
  opts.num_threads = 1;
  ThreadPool pool(opts);
  EXPECT_EQ(pool.width(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Submit([&] { seen = std::this_thread::get_id(); }).get();
  EXPECT_EQ(seen, caller);
  seen = std::thread::id();
  pool.ParallelFor(3, [&](size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool::Options opts;
  opts.num_threads = 4;
  ThreadPool pool(opts);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool::Options opts;
  opts.num_threads = 2;
  ThreadPool pool(opts);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool::Options opts;
  opts.num_threads = 4;
  ThreadPool pool(opts);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, CurrentSlotStaysInRange) {
  ThreadPool::Options opts;
  opts.num_threads = 4;
  ThreadPool pool(opts);
  std::atomic<bool> bad{false};
  pool.ParallelFor(64, [&](size_t) {
    const int slot = pool.CurrentSlot();
    if (slot < 0 || slot >= pool.width()) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
  // Off-pool threads (e.g. the ParallelFor caller) map to the last lane.
  EXPECT_EQ(pool.CurrentSlot(), pool.width() - 1);
}

TEST(ThreadPoolTest, ExportsPoolMetrics) {
  obs::MetricsRegistry registry;
  ThreadPool::Options opts;
  opts.num_threads = 3;
  opts.metrics_name = "test-pool";
  opts.registry = &registry;
  ThreadPool pool(opts);
  const obs::LabelSet labels({{"pool", "test-pool"}});
  EXPECT_EQ(registry.GetGauge("eon_pool_threads", labels)->Value(), 3);
  std::atomic<int> ran{0};
  pool.ParallelFor(10, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
  EXPECT_GT(registry.GetCounter("eon_pool_tasks_total", labels)->Value(), 0u);
  EXPECT_GT(registry.GetHistogram("eon_pool_task_micros", labels)->Count(),
            0u);
}

// --- IoPool ParallelFor: the blocking fan-out for object-store round trips

std::unique_ptr<IoPool> MakeIoPool(int threads) {
  IoPool::Options opts;
  opts.num_threads = threads;
  return std::make_unique<IoPool>(opts);
}

TEST(IoParallelForTest, NullPoolRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool off_caller = false;
  Status s = ParallelFor(nullptr, 5, [&](size_t i) {
    if (std::this_thread::get_id() != caller) off_caller = true;
    order.push_back(i);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ParallelForLanes(nullptr, 5), 1u);
  EXPECT_EQ(ParallelForLanes(nullptr, 0), 0u);
  // n <= 1 stays on the caller even with a pool.
  auto pool = MakeIoPool(4);
  EXPECT_TRUE(ParallelFor(pool.get(), 1, [&](size_t) {
                return std::this_thread::get_id() == caller
                           ? Status::OK()
                           : Status::Internal("ran off the caller");
              }).ok());
  EXPECT_TRUE(ParallelFor(pool.get(), 0, [](size_t) {
                return Status::Internal("no index to run");
              }).ok());
}

TEST(IoParallelForTest, FirstErrorReturnedWhileEveryIndexRuns) {
  auto pool = MakeIoPool(4);
  for (IoPool* p : {static_cast<IoPool*>(nullptr), pool.get()}) {
    constexpr size_t kN = 64;
    std::vector<std::atomic<int>> ran(kN);
    Status s = ParallelFor(p, kN, [&](size_t i) {
      ran[i].fetch_add(1);
      if (i == 17) return Status::IOError("seventeen");
      if (i == 40) return Status::NotFound("forty");
      return Status::OK();
    });
    // The lowest failing index wins, whatever order the lanes finished.
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(IoParallelForTest, ManyMoreIndicesThanThreadsUseFewLanes) {
  obs::MetricsRegistry registry;
  IoPool::Options opts;
  opts.num_threads = 4;
  opts.metrics_name = "fanout";
  opts.registry = &registry;
  IoPool pool(opts);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ASSERT_TRUE(ParallelFor(&pool, kN, [&](size_t i) {
                hits[i].fetch_add(1);
                return Status::OK();
              }).ok());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(ParallelForLanes(&pool, kN), 4u);
  // One pool task per lane, not one per index. The counter ticks after
  // the task body returns, so poll briefly for the last lane.
  obs::Counter* tasks =
      registry.GetCounter("eon_io_pool_tasks_total", {{"pool", "fanout"}});
  for (int spin = 0; spin < 1000 && tasks->Value() < 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(tasks->Value(), 4u);
}

TEST(IoParallelForTest, ConcurrentCallersShareOnePool) {
  auto pool = MakeIoPool(4);
  constexpr int kCallers = 8;
  constexpr size_t kN = 200;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  std::vector<Status> results(kCallers, Status::OK());
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      results[c] = ParallelFor(pool.get(), kN, [&, c](size_t i) {
        hits[c][i]++;  // Each index is owned by exactly one lane.
        std::this_thread::yield();
        return Status::OK();
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(results[c].ok());
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[c][i], 1) << c << "/" << i;
  }
}

TEST(IoParallelForTest, LambdasBorrowTheCallersStack) {
  auto pool = MakeIoPool(3);
  for (int round = 0; round < 50; ++round) {
    // Stack-local inputs and outputs, written without synchronization:
    // the call must not return while any lane can still touch them.
    std::vector<std::string> keys;
    for (int i = 0; i < 16; ++i) keys.push_back("k" + std::to_string(i));
    std::vector<std::string> out(keys.size());
    ASSERT_TRUE(ParallelFor(pool.get(), keys.size(), [&](size_t i) {
                  out[i] = keys[i] + "!";
                  return Status::OK();
                }).ok());
    for (size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(out[i], keys[i] + "!");
  }
}

TEST(IoParallelForTest, LanesCarryTraceAndNodeScope) {
  auto pool = MakeIoPool(4);
  SimClock clock;
  obs::TraceContext context;
  context.tracer = std::make_shared<obs::Tracer>(&clock);
  context.trace_id = 77;
  obs::TraceScope trace_scope(context);
  const std::string node = "node7";
  obs::DcNodeScope node_scope(node);
  std::atomic<int> mismatches{0};
  ASSERT_TRUE(ParallelFor(pool.get(), 32, [&](size_t) {
                const obs::TraceContext* t = obs::TraceScope::Current();
                if (t == nullptr || t->trace_id != 77 ||
                    obs::DcNodeScope::Current() != "node7") {
                  mismatches.fetch_add(1);
                }
                return Status::OK();
              }).ok());
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(IoParallelForTest, RefusesToRunOnAnIoWorker) {
  auto pool = MakeIoPool(2);
  std::promise<Status> nested;
  pool->Submit([&] {
    nested.set_value(
        ParallelFor(pool.get(), 4, [](size_t) { return Status::OK(); }));
  });
  Status s = nested.get_future().get();
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
}

// --- SerialWorker ------------------------------------------------------

TEST(SerialWorkerTest, QueuedKeyJoinsAndStartedJobDoesNot) {
  SerialWorker worker;
  std::promise<void> started, release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> runs_a{0}, runs_b{0};
  // Job "a" blocks the thread once started, so the next "a" posts queue.
  auto first = worker.Post("a", [&] {
    runs_a++;
    started.set_value();
    gate.wait();
    return Status::OK();
  });
  started.get_future().wait();
  auto second = worker.Post("a", [&] {
    runs_a++;
    return Status::IOError("second");
  });
  auto joined = worker.Post("a", [&] {
    runs_a += 100;  // Never runs: joins the queued job.
    return Status::OK();
  });
  auto other = worker.Post("b", [&] {
    runs_b++;
    return Status::OK();
  });
  release.set_value();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().IsIOError());
  EXPECT_TRUE(joined.get().IsIOError());  // The job it joined.
  EXPECT_TRUE(other.get().ok());
  worker.Drain();
  EXPECT_EQ(runs_a.load(), 2);
  EXPECT_EQ(runs_b.load(), 1);
}

TEST(SerialWorkerTest, StopDropsQueuedJobsAndFinishesTheRunningOne) {
  auto worker = std::make_unique<SerialWorker>();
  std::promise<void> started, release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> ran_queued{false};
  auto running = worker->Post("a", [&] {
    started.set_value();
    gate.wait();
    return Status::OK();
  });
  auto queued = worker->Post("b", [&] {
    ran_queued = true;
    return Status::OK();
  });
  started.get_future().wait();
  std::thread stopper([&] { worker->Stop(); });
  queued.wait();  // Dropped by Stop while "a" still runs.
  release.set_value();
  stopper.join();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().IsAborted());
  EXPECT_FALSE(ran_queued.load());
  EXPECT_TRUE(worker->Post("c", [] { return Status::OK(); }).get().IsAborted());
  worker->Drain();  // Returns at once: nothing queued or running.
  worker.reset();   // Stop again from the destructor is a no-op.
}

}  // namespace
}  // namespace eon
