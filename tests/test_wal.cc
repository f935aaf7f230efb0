// WAL unit tests: CRC framing, torn-tail recovery (truncation at every
// byte boundary of the last record), group commit under concurrent
// writers, segment rotation, truncation/checkpointing (inline and fanned
// out on an I/O pool: one LIST per truncation, DELETEs in flight at once),
// LSN resume.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/io_pool.h"
#include "storage/sim_object_store.h"
#include "wal/wal.h"

namespace eon {
namespace {

WalRecord Rec(WalRecord::Kind kind, std::string payload) {
  WalRecord r;
  r.kind = kind;
  r.payload = std::move(payload);
  return r;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    sopts.get_latency_micros = 0;
    sopts.put_latency_micros = 0;
    sopts.list_latency_micros = 0;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
  }

  std::unique_ptr<WalWriter> MakeWriter(const WalOptions& options) {
    return std::make_unique<WalWriter>(
        store_.get(), "wal/n1/", &clock_, options,
        [this](const WalRecord& rec) { applied_.push_back(rec.lsn); });
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::vector<uint64_t> applied_;
};

TEST_F(WalTest, EncodeDecodeRoundtrip) {
  std::string buf;
  WalRecord a = Rec(WalRecord::Kind::kInsert, "alpha");
  a.lsn = 1;
  WalRecord b = Rec(WalRecord::Kind::kTombstone, "");
  b.lsn = 2;
  WalRecord c = Rec(WalRecord::Kind::kFlush, std::string(300, 'x'));
  c.lsn = 300;  // Multi-byte varint.
  EncodeWalRecord(a, &buf);
  EncodeWalRecord(b, &buf);
  EncodeWalRecord(c, &buf);

  std::vector<WalRecord> out;
  EXPECT_EQ(DecodeWalRecords(Slice(buf), &out), buf.size());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, WalRecord::Kind::kInsert);
  EXPECT_EQ(out[0].lsn, 1u);
  EXPECT_EQ(out[0].payload, "alpha");
  EXPECT_EQ(out[1].kind, WalRecord::Kind::kTombstone);
  EXPECT_EQ(out[1].payload, "");
  EXPECT_EQ(out[2].lsn, 300u);
  EXPECT_EQ(out[2].payload, std::string(300, 'x'));
}

TEST_F(WalTest, TornTailAtEveryByteBoundary) {
  // Two intact records followed by a third; any truncation inside the
  // third record's frame must yield exactly the first two, cleanly.
  std::string intact;
  for (uint64_t i = 1; i <= 2; ++i) {
    WalRecord r = Rec(WalRecord::Kind::kInsert, "payload" + std::to_string(i));
    r.lsn = i;
    EncodeWalRecord(r, &intact);
  }
  std::string full = intact;
  WalRecord last = Rec(WalRecord::Kind::kInsert, "the-last-record");
  last.lsn = 3;
  EncodeWalRecord(last, &full);

  for (size_t cut = intact.size(); cut < full.size(); ++cut) {
    std::vector<WalRecord> out;
    const size_t consumed = DecodeWalRecords(Slice(full.data(), cut), &out);
    EXPECT_EQ(consumed, intact.size()) << "cut at byte " << cut;
    ASSERT_EQ(out.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(out[1].lsn, 2u);
  }
  // The untruncated stream yields all three.
  std::vector<WalRecord> out;
  EXPECT_EQ(DecodeWalRecords(Slice(full), &out), full.size());
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(WalTest, ZeroFilledTornTailIsDropped) {
  // Crc32c of an empty body is 0, so an 8-byte zero-filled tail passes
  // the CRC check as a "valid" zero-length frame. It must be treated as
  // a tear — decoding it used to read body[0] out of bounds.
  const std::string zeros(8, '\0');
  std::vector<WalRecord> out;
  EXPECT_EQ(DecodeWalRecords(Slice(zeros), &out), 0u);
  EXPECT_TRUE(out.empty());

  // A good record followed by a zero-padded tail yields only the record.
  std::string buf;
  WalRecord r = Rec(WalRecord::Kind::kInsert, "survivor");
  r.lsn = 1;
  EncodeWalRecord(r, &buf);
  const size_t intact = buf.size();
  buf.append(std::string(16, '\0'));
  out.clear();
  EXPECT_EQ(DecodeWalRecords(Slice(buf), &out), intact);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, "survivor");
}

TEST_F(WalTest, CorruptionStopsReplayCleanly) {
  std::string intact;
  for (uint64_t i = 1; i <= 2; ++i) {
    WalRecord r = Rec(WalRecord::Kind::kInsert, "data" + std::to_string(i));
    r.lsn = i;
    EncodeWalRecord(r, &intact);
  }
  std::string full = intact;
  WalRecord last = Rec(WalRecord::Kind::kInsert, "victim");
  last.lsn = 3;
  EncodeWalRecord(last, &full);

  // Any single corrupted byte in the last frame fails its CRC (or the
  // length check); replay returns the intact prefix, never garbage.
  for (size_t at = intact.size(); at < full.size(); ++at) {
    std::string corrupt = full;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x5a);
    std::vector<WalRecord> out;
    DecodeWalRecords(Slice(corrupt), &out);
    ASSERT_LE(out.size(), 2u) << "flip at byte " << at;
    for (const WalRecord& r : out) {
      EXPECT_LE(r.lsn, 2u);
      EXPECT_NE(r.payload, "victim");
    }
  }
}

TEST_F(WalTest, CommitAppliesInLsnOrderBeforeReturn) {
  WalOptions options;
  options.group_commit_micros = 0;
  auto wal = MakeWriter(options);
  uint64_t last = 0;
  for (int i = 0; i < 5; ++i) {
    last = wal->Append(Rec(WalRecord::Kind::kInsert, "r" + std::to_string(i)));
  }
  auto info = wal->Commit(last);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->led_group);
  EXPECT_EQ(info->group_size, 5u);
  EXPECT_EQ(wal->synced_lsn(), last);
  ASSERT_EQ(applied_.size(), 5u);
  for (size_t i = 0; i < applied_.size(); ++i) {
    EXPECT_EQ(applied_[i], i + 1);  // Strict LSN order.
  }
}

TEST_F(WalTest, GroupCommitBatchesConcurrentWriters) {
  WalOptions options;
  options.group_commit_micros = 2000;  // Wide window to invite batching.
  auto wal = MakeWriter(options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::atomic<uint64_t> leaders{0};
  std::atomic<uint64_t> group_records{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t lsn = wal->Append(
            Rec(WalRecord::Kind::kInsert,
                "t" + std::to_string(t) + "i" + std::to_string(i)));
        auto info = wal->Commit(lsn);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        if (info->led_group) {
          leaders++;
          group_records += info->group_size;
        }
        EXPECT_GE(wal->synced_lsn(), lsn);
      }
    });
  }
  for (auto& th : writers) th.join();

  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.records_appended, uint64_t{kThreads * kPerThread});
  EXPECT_EQ(wal->synced_lsn(), uint64_t{kThreads * kPerThread});
  // Leaders' groups cover every record exactly once, and batching means
  // strictly fewer uploads than records.
  EXPECT_EQ(leaders.load(), stats.groups_flushed);
  EXPECT_EQ(group_records.load(), stats.records_appended);
  EXPECT_LT(stats.groups_flushed, stats.records_appended);
  EXPECT_GT(stats.max_group_size, 1u);

  // Every record survived, in LSN order, apply ran exactly once each.
  ASSERT_EQ(applied_.size(), size_t{kThreads * kPerThread});
  for (size_t i = 0; i < applied_.size(); ++i) EXPECT_EQ(applied_[i], i + 1);
  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), size_t{kThreads * kPerThread});
}

TEST_F(WalTest, SegmentRotationKeepsAllRecords) {
  WalOptions options;
  options.group_commit_micros = 0;
  options.segment_bytes = 64;  // Force frequent rotation.
  auto wal = MakeWriter(options);
  for (int i = 0; i < 20; ++i) {
    const uint64_t lsn =
        wal->Append(Rec(WalRecord::Kind::kInsert, std::string(40, 'a' + i % 26)));
    ASSERT_TRUE(wal->Commit(lsn).ok());
  }
  EXPECT_GT(wal->stats().segments_created, 0u);

  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 20u);
  for (size_t i = 0; i < replay->records.size(); ++i) {
    EXPECT_EQ(replay->records[i].lsn, i + 1);
  }
  EXPECT_EQ(replay->max_lsn, 20u);
}

/// Truncation runs inline (no pool) or fanned out on a 4-thread I/O pool;
/// both must leave the same log behind.
class WalTruncateTest : public WalTest,
                        public ::testing::WithParamInterface<int> {
 protected:
  WalOptions Options() {
    if (GetParam() > 0) {
      IoPool::Options popts;
      popts.num_threads = GetParam();
      pool_ = std::make_unique<IoPool>(popts);
    }
    WalOptions options;
    options.group_commit_micros = 0;
    options.io_pool = pool_.get();
    return options;
  }

  std::unique_ptr<IoPool> pool_;
};

TEST_P(WalTruncateTest, TruncateDropsPartsAndCheckpoints) {
  WalOptions options = Options();
  auto wal = MakeWriter(options);
  for (int i = 0; i < 10; ++i) {
    const uint64_t lsn =
        wal->Append(Rec(WalRecord::Kind::kInsert, "r" + std::to_string(i)));
    ASSERT_TRUE(wal->Commit(lsn).ok());  // One part per record.
  }
  ASSERT_TRUE(wal->Truncate(6).ok());
  EXPECT_EQ(wal->stats().parts_deleted, 6u);

  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->checkpoint_lsn, 6u);
  ASSERT_EQ(replay->records.size(), 4u);
  EXPECT_EQ(replay->records.front().lsn, 7u);
  EXPECT_EQ(replay->records.back().lsn, 10u);

  // A straddling part (records 11..12 in ONE object) survives a later
  // truncation at 11, but the checkpoint filters record 11 on replay.
  wal->Append(Rec(WalRecord::Kind::kInsert, "r11"));
  const uint64_t l12 = wal->Append(Rec(WalRecord::Kind::kInsert, "r12"));
  ASSERT_TRUE(wal->Commit(l12).ok());
  ASSERT_TRUE(wal->Truncate(11).ok());
  replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records.front().lsn, 12u);
}

TEST_P(WalTruncateTest, TruncatePrunesStaleCheckpointMarkers) {
  WalOptions options = Options();
  auto wal = MakeWriter(options);
  for (int i = 0; i < 6; ++i) {
    const uint64_t lsn =
        wal->Append(Rec(WalRecord::Kind::kInsert, "r" + std::to_string(i)));
    ASSERT_TRUE(wal->Commit(lsn).ok());
  }
  ASSERT_TRUE(wal->Truncate(2).ok());
  ASSERT_TRUE(wal->Truncate(4).ok());
  ASSERT_TRUE(wal->Truncate(6).ok());

  // Only the newest marker survives; older ones are redundant (replay
  // takes the max) and must not accumulate one object per truncation.
  auto ckpts = store_->List("wal/n1/ckpt/");
  ASSERT_TRUE(ckpts.ok());
  EXPECT_EQ(ckpts->size(), 1u);
  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->checkpoint_lsn, 6u);
  EXPECT_TRUE(replay->records.empty());
}

INSTANTIATE_TEST_SUITE_P(IoThreads, WalTruncateTest, ::testing::Values(0, 4));

/// Test-local store decorator: counts LISTs and holds every DELETE for a
/// few milliseconds of real time, recording how many were in flight
/// at once.
class SleepyDeleteStore : public ObjectStore {
 public:
  Status Put(const std::string& key, const std::string& data) override {
    return base_.Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    return base_.Get(key);
  }
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t len) override {
    return base_.ReadRange(key, offset, len);
  }
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override {
    lists_.fetch_add(1);
    return base_.List(prefix);
  }
  Status Delete(const std::string& key) override {
    const int now = in_flight_.fetch_add(1) + 1;
    int peak = peak_in_flight_.load();
    while (now > peak && !peak_in_flight_.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    in_flight_.fetch_sub(1);
    return base_.Delete(key);
  }
  ObjectStoreMetrics metrics() const override { return base_.metrics(); }

  int lists() const { return lists_.load(); }
  int peak_in_flight() const { return peak_in_flight_.load(); }

 private:
  MemObjectStore base_;
  std::atomic<int> lists_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_in_flight_{0};
};

TEST(WalTruncateFanOut, OneListPerTruncateAndDeletesOverlap) {
  SleepyDeleteStore store;
  SimClock clock;
  IoPool::Options popts;
  popts.num_threads = 4;
  IoPool pool(popts);
  WalOptions options;
  options.group_commit_micros = 0;
  options.io_pool = &pool;
  WalWriter wal(&store, "wal/n1/", &clock, options, nullptr);
  for (int i = 0; i < 24; ++i) {
    const uint64_t lsn =
        wal.Append(Rec(WalRecord::Kind::kInsert, "r" + std::to_string(i)));
    ASSERT_TRUE(wal.Commit(lsn).ok());  // One part per record.
  }
  ASSERT_TRUE(wal.Truncate(8).ok());
  EXPECT_EQ(store.lists(), 1);
  ASSERT_TRUE(wal.Truncate(20).ok());  // Also prunes the marker at 8.
  EXPECT_EQ(store.lists(), 2);
  EXPECT_EQ(wal.stats().parts_deleted, 20u);
  EXPECT_GE(store.peak_in_flight(), 2);

  auto ckpts = store.List("wal/n1/ckpt/");
  ASSERT_TRUE(ckpts.ok());
  EXPECT_EQ(ckpts->size(), 1u);
  auto replay = ReadWal(&store, "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->checkpoint_lsn, 20u);
  ASSERT_EQ(replay->records.size(), 4u);
  EXPECT_EQ(replay->records.front().lsn, 21u);
}

TEST_F(WalTest, CloseDropsPendingAndReopenRecovers) {
  WalOptions options;
  options.group_commit_micros = 0;
  auto wal = MakeWriter(options);
  const uint64_t committed =
      wal->Append(Rec(WalRecord::Kind::kInsert, "durable"));
  ASSERT_TRUE(wal->Commit(committed).ok());

  // Buffered but uncommitted at close: dropped like a pre-commit crash.
  const uint64_t buffered = wal->Append(Rec(WalRecord::Kind::kInsert, "lost"));
  wal->Close();
  EXPECT_FALSE(wal->is_open());
  EXPECT_FALSE(wal->Commit(buffered).ok());
  // Appends against a closed writer burn an LSN but never commit.
  const uint64_t rejected = wal->Append(Rec(WalRecord::Kind::kInsert, "no"));
  EXPECT_FALSE(wal->Commit(rejected).ok());

  // Reopen (node restart): the log still holds only the committed record,
  // and new appends flow again.
  wal->Reopen();
  EXPECT_TRUE(wal->is_open());
  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "durable");
  wal->SetNextLsn(replay->max_lsn + 1);
  const uint64_t fresh = wal->Append(Rec(WalRecord::Kind::kInsert, "again"));
  ASSERT_TRUE(wal->Commit(fresh).ok());
  replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.back().payload, "again");
}

// A record dropped by Close (appended while closed, or still buffered at
// the close) must fail its Commit after a Reopen instead of spinning: the
// restart path takes the writer's mutex next (SetNextLsn), so an inserter
// racing a node restart used to livelock it.
TEST_F(WalTest, CommitAfterReopenOfDroppedRecordFails) {
  WalOptions options;
  options.group_commit_micros = 0;
  auto wal = MakeWriter(options);
  const uint64_t buffered = wal->Append(Rec(WalRecord::Kind::kInsert, "a"));
  wal->Close();
  const uint64_t burned = wal->Append(Rec(WalRecord::Kind::kInsert, "b"));
  wal->Reopen();
  EXPECT_TRUE(wal->Commit(buffered).status().IsUnavailable());
  EXPECT_TRUE(wal->Commit(burned).status().IsUnavailable());
  EXPECT_TRUE(applied_.empty());

  // The reopened writer still commits new records.
  const uint64_t fresh = wal->Append(Rec(WalRecord::Kind::kInsert, "c"));
  ASSERT_TRUE(wal->Commit(fresh).ok());
  EXPECT_EQ(applied_, std::vector<uint64_t>{fresh});
}

TEST_F(WalTest, RestartResumesLsnPastCheckpointAfterFullTruncation) {
  WalOptions options;
  options.group_commit_micros = 0;
  uint64_t checkpoint = 0;
  {
    auto wal = MakeWriter(options);
    uint64_t lsn = 0;
    for (int i = 0; i < 4; ++i) {
      lsn = wal->Append(Rec(WalRecord::Kind::kInsert, "r" + std::to_string(i)));
    }
    ASSERT_TRUE(wal->Commit(lsn).ok());
    checkpoint = wal->synced_lsn();
    ASSERT_TRUE(wal->Truncate(checkpoint).ok());  // Whole log truncated.
  }
  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->max_lsn, 0u);  // No parts survived...
  EXPECT_EQ(replay->checkpoint_lsn, checkpoint);  // ...only the marker.

  // Recovery must resume past the checkpoint, not just max_lsn: LSNs at
  // or below it are filtered by every future replay, so reusing them
  // silently discards committed records on the next restart.
  auto wal = MakeWriter(options);
  wal->SetNextLsn(std::max(replay->max_lsn, replay->checkpoint_lsn) + 1);
  const uint64_t lsn = wal->Append(Rec(WalRecord::Kind::kInsert, "after"));
  EXPECT_EQ(lsn, checkpoint + 1);
  ASSERT_TRUE(wal->Commit(lsn).ok());
  replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].payload, "after");
}

TEST_F(WalTest, RestartResumesLsnPastReplay) {
  WalOptions options;
  options.group_commit_micros = 0;
  {
    auto wal = MakeWriter(options);
    const uint64_t lsn = wal->Append(Rec(WalRecord::Kind::kInsert, "before"));
    ASSERT_TRUE(wal->Commit(lsn).ok());
    const uint64_t lsn2 = wal->Append(Rec(WalRecord::Kind::kInsert, "crash"));
    ASSERT_TRUE(wal->Commit(lsn2).ok());
  }
  auto replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->max_lsn, 2u);

  // A restarted writer resumes above the replayed maximum, so new part
  // keys never collide with survivors and LSNs stay unique.
  auto wal = MakeWriter(options);
  wal->SetNextLsn(replay->max_lsn + 1);
  const uint64_t lsn = wal->Append(Rec(WalRecord::Kind::kInsert, "after"));
  EXPECT_EQ(lsn, 3u);
  ASSERT_TRUE(wal->Commit(lsn).ok());
  replay = ReadWal(store_.get(), "wal/n1/");
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records.back().payload, "after");
}

}  // namespace
}  // namespace eon
