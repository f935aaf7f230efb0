// Serving-layer tests: the AdmissionController's S-of-N·E slot ledger
// (conservation under concurrent submit/cancel, strict priority order,
// bounded timeouts, refuse-don't-queue shedding), the SessionManager /
// EonServer wire protocol, and the differential guarantee that admission
// control never changes query results — only when they run. Part of the
// race-labeled suite scripts/tsan.sh runs under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "engine/session.h"
#include "engine/sql.h"
#include "engine/system_tables.h"
#include "obs/dc.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sim/traffic_driver.h"
#include "storage/sim_object_store.h"
#include "workload/tpch.h"

namespace eon {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spin until `cond` holds (bounded); returns whether it did.
template <typename F>
bool WaitFor(F cond, int64_t timeout_micros = 5LL * 1000 * 1000) {
  const int64_t deadline = NowMicros() + timeout_micros;
  while (!cond()) {
    if (NowMicros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- AdmissionController: the slot ledger alone ---------------------------

TEST(AdmissionControllerTest, FastPathGrantsAndReleases) {
  AdmissionOptions options;
  options.num_nodes = 2;
  options.slots_per_node = 2;
  AdmissionController admission(options);
  EXPECT_EQ(admission.total_slots(), 4);

  AdmissionRequest request;
  request.node_slots = {1, 2, 1};  // Two slots on node 1, one on node 2.
  auto grant = admission.Admit(request);
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  EXPECT_EQ(grant->slots(), 3);
  EXPECT_EQ(grant->queued_micros(), 0);
  EXPECT_EQ(grant->pool(), "general");
  EXPECT_EQ(admission.GetStats().slots_in_use, 3);

  grant->Release();
  EXPECT_FALSE(grant->active());
  auto stats = admission.GetStats();
  EXPECT_EQ(stats.slots_in_use, 0);
  EXPECT_EQ(stats.peak_slots_in_use, 3);
  ASSERT_EQ(stats.pools.size(), 1u);
  EXPECT_EQ(stats.pools[0].admitted, 1u);
}

TEST(AdmissionControllerTest, InfeasibleRequestsFailFast) {
  AdmissionOptions options;
  options.num_nodes = 2;
  options.slots_per_node = 2;
  ResourcePoolConfig capped;
  capped.name = "capped";
  capped.max_slots = 1;
  capped.memory_budget_bytes = 100;
  options.pools = {ResourcePoolConfig{}, capped};
  AdmissionController admission(options);

  AdmissionRequest request;
  request.node_slots = {1, 1, 1};  // Three slots on one node; E = 2.
  EXPECT_TRUE(admission.Admit(request).status().IsInvalidArgument());

  request.node_slots = {1, 1, 2, 2, 1};  // Five total; N*E = 4.
  EXPECT_TRUE(admission.Admit(request).status().IsInvalidArgument());

  request.node_slots = {};  // No slots at all.
  EXPECT_TRUE(admission.Admit(request).status().IsInvalidArgument());

  request.node_slots = {1};
  request.pool = "nope";
  EXPECT_TRUE(admission.Admit(request).status().IsInvalidArgument());

  request.pool = "capped";  // Pool slot cap below the request.
  request.node_slots = {1, 2};
  EXPECT_TRUE(admission.Admit(request).status().IsInvalidArgument());

  request.node_slots = {1};  // Memory above the pool budget.
  request.memory_bytes = 101;
  EXPECT_TRUE(admission.Admit(request).status().IsInvalidArgument());

  EXPECT_TRUE(admission.HasPool(""));
  EXPECT_TRUE(admission.HasPool("capped"));
  EXPECT_FALSE(admission.HasPool("nope"));
}

TEST(AdmissionControllerTest, QueueTimeoutReturnsTimedOutNotHang) {
  AdmissionOptions options;
  options.num_nodes = 1;
  options.slots_per_node = 1;
  AdmissionController admission(options);

  AdmissionRequest request;
  request.node_slots = {7};
  auto held = admission.Admit(request);
  ASSERT_TRUE(held.ok());

  request.timeout_micros = 50 * 1000;
  const int64_t before = NowMicros();
  auto waited = admission.Admit(request);
  const int64_t elapsed = NowMicros() - before;
  EXPECT_TRUE(waited.status().IsTimedOut()) << waited.status().ToString();
  EXPECT_GE(elapsed, 50 * 1000);
  EXPECT_LT(elapsed, 5 * 1000 * 1000);  // Returned, not hung.

  auto stats = admission.GetStats();
  EXPECT_EQ(stats.pools[0].timed_out, 1u);
  EXPECT_EQ(stats.queue_depth, 0);  // The timed-out waiter left the queue.
}

TEST(AdmissionControllerTest, ShedsPastHighWaterMarkImmediately) {
  AdmissionOptions options;
  options.num_nodes = 1;
  options.slots_per_node = 1;
  ResourcePoolConfig pool;
  pool.max_queue_depth = 1;
  options.pools = {pool};
  AdmissionController admission(options);

  AdmissionRequest request;
  request.node_slots = {7};
  auto held = admission.Admit(request);
  ASSERT_TRUE(held.ok());

  // One waiter fills the queue to its high-water mark.
  CancelToken token;
  std::thread waiter([&] {
    auto r = admission.Admit(request, &token);
    EXPECT_TRUE(r.status().IsAborted()) << r.status().ToString();
  });
  ASSERT_TRUE(WaitFor([&] { return admission.GetStats().queue_depth == 1; }));

  // The next arrival is refused NOW — no queueing, no timeout wait.
  const int64_t before = NowMicros();
  auto shed = admission.Admit(request);
  EXPECT_TRUE(shed.status().IsOverloaded()) << shed.status().ToString();
  EXPECT_LT(NowMicros() - before, 1000 * 1000);

  admission.Cancel(&token);
  waiter.join();
  auto stats = admission.GetStats();
  EXPECT_EQ(stats.pools[0].shed, 1u);
  EXPECT_EQ(stats.pools[0].cancelled, 1u);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(AdmissionControllerTest, PriorityOverridesArrivalOrder) {
  AdmissionOptions options;
  options.num_nodes = 1;
  options.slots_per_node = 1;
  ResourcePoolConfig lo;
  lo.name = "lo";
  lo.priority = 0;
  ResourcePoolConfig hi;
  hi.name = "hi";
  hi.priority = 5;
  options.pools = {lo, hi};
  AdmissionController admission(options);

  AdmissionRequest request;
  request.node_slots = {7};
  request.pool = "lo";
  request.timeout_micros = 10LL * 1000 * 1000;
  auto held = admission.Admit(request);
  ASSERT_TRUE(held.ok());

  std::atomic<bool> lo_admitted{false};
  std::atomic<bool> hi_admitted{false};
  std::atomic<bool> hi_release{false};

  // Low priority queues FIRST, high priority second.
  std::thread lo_waiter([&] {
    auto r = admission.Admit(request);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    lo_admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return admission.GetStats().queue_depth == 1; }));
  std::thread hi_waiter([&] {
    AdmissionRequest hi_request = request;
    hi_request.pool = "hi";
    auto r = admission.Admit(hi_request);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    hi_admitted.store(true);
    WaitFor([&] { return hi_release.load(); });
  });
  ASSERT_TRUE(WaitFor([&] { return admission.GetStats().queue_depth == 2; }));

  held->Release();
  ASSERT_TRUE(WaitFor([&] { return hi_admitted.load(); }));
  // The older low-priority waiter is still queued behind it.
  EXPECT_FALSE(lo_admitted.load());
  EXPECT_EQ(admission.GetStats().queue_depth, 1);

  hi_release.store(true);
  hi_waiter.join();  // Dropping hi's grant frees the slot for lo.
  lo_waiter.join();
  EXPECT_TRUE(lo_admitted.load());
}

TEST(AdmissionControllerTest, FifoWithinPriorityAndNoHeadOfLineBlocking) {
  AdmissionOptions options;
  options.num_nodes = 2;
  options.slots_per_node = 1;
  AdmissionController admission(options);

  AdmissionRequest node1;
  node1.node_slots = {1};
  node1.timeout_micros = 10LL * 1000 * 1000;
  AdmissionRequest both = node1;
  both.node_slots = {1, 2};

  auto held = admission.Admit(node1);
  ASSERT_TRUE(held.ok());

  // Waiter A needs both nodes (blocked on node 1); waiter B, behind it,
  // needs only node 2 — which is free. B must not starve behind A.
  std::atomic<bool> a_admitted{false};
  std::atomic<bool> b_admitted{false};
  std::thread a([&] {
    auto r = admission.Admit(both);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    a_admitted.store(true);
  });
  ASSERT_TRUE(WaitFor([&] { return admission.GetStats().queue_depth == 1; }));
  std::thread b([&] {
    AdmissionRequest node2 = node1;
    node2.node_slots = {2};
    auto r = admission.Admit(node2);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    b_admitted.store(true);
    // B releases immediately (grant destructor).
  });

  ASSERT_TRUE(WaitFor([&] { return b_admitted.load(); }));
  EXPECT_FALSE(a_admitted.load());  // A still needs node 1.
  b.join();
  held->Release();
  a.join();
  EXPECT_TRUE(a_admitted.load());
}

TEST(AdmissionControllerTest, PreCancelledTokenAbortsImmediately) {
  AdmissionOptions options;
  options.num_nodes = 1;
  AdmissionController admission(options);
  CancelToken token;
  admission.Cancel(&token);
  AdmissionRequest request;
  request.node_slots = {7};
  auto r = admission.Admit(request, &token);
  EXPECT_TRUE(r.status().IsAborted());
  EXPECT_EQ(admission.GetStats().pools[0].cancelled, 1u);
}

// The central invariant test, run under TSan via the race label: many
// threads submit, hold, release and cancel concurrently; the ledger never
// exceeds N*E (EON_CHECKed inside AllocateLocked on every grant), nothing
// leaks, and every single Admit call is accounted exactly once.
TEST(AdmissionControllerTest, LedgerConservationUnderConcurrentSubmitCancel) {
  constexpr int kThreads = 8;
  constexpr int kIters = 40;

  AdmissionOptions options;
  options.num_nodes = 4;
  options.slots_per_node = 2;
  ResourcePoolConfig pool;
  pool.queue_timeout_micros = 100 * 1000;
  pool.max_queue_depth = 6;
  options.pools = {pool};
  AdmissionController admission(options);

  // All tokens outlive the run so the canceller can fire at any moment.
  std::vector<std::vector<CancelToken>> tokens(kThreads);
  for (auto& row : tokens) row = std::vector<CancelToken>(kIters);

  std::atomic<uint64_t> submits{0};
  std::atomic<bool> stop_canceller{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        AdmissionRequest request;
        // 1..3 slots spread over nodes picked per (t, i).
        const int slots = 1 + (t + i) % 3;
        for (int s = 0; s < slots; ++s) {
          request.node_slots.push_back(1 + (t + i + s) % 4);
        }
        submits.fetch_add(1);
        auto grant = admission.Admit(request, &tokens[t][i]);
        if (grant.ok()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }  // Grant destructor releases.
      }
    });
  }
  std::thread canceller([&] {
    uint64_t n = 0;
    while (!stop_canceller.load()) {
      admission.Cancel(&tokens[n % kThreads][(n / kThreads) % kIters]);
      n += 7;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (std::thread& t : threads) t.join();
  stop_canceller.store(true);
  canceller.join();

  auto stats = admission.GetStats();
  EXPECT_EQ(stats.slots_in_use, 0);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_LE(stats.peak_slots_in_use, stats.total_slots);
  EXPECT_GT(stats.peak_slots_in_use, 0);
  // Exactly one outcome per Admit call.
  const auto& p = stats.pools[0];
  EXPECT_EQ(p.admitted + p.shed + p.timed_out + p.cancelled, submits.load());
  EXPECT_GT(p.admitted, 0u);
}

// --- Wire framing / transports --------------------------------------------

TEST(WireTest, FramesRoundTripOverChannelPair) {
  auto [a, b] = CreateChannelPair();
  ASSERT_TRUE(WriteFrame(a.get(), "hello").ok());
  ASSERT_TRUE(WriteFrame(a.get(), "").ok());  // Empty frame is legal.
  auto first = ReadFrame(b.get());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "hello");
  auto second = ReadFrame(b.get());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "");

  // Close between frames reads as a CLEAN close...
  a->Close();
  EXPECT_TRUE(ReadFrame(b.get()).status().IsNotFound());
}

TEST(WireTest, EofMidFrameIsAnError) {
  auto [a, b] = CreateChannelPair();
  const uint8_t partial[] = {200, 0, 0, 0, 'x'};  // Claims 200 bytes.
  ASSERT_TRUE(a->Write(partial, sizeof(partial)).ok());
  a->Close();
  EXPECT_TRUE(ReadFrame(b.get()).status().IsIOError());
}

TEST(WireTest, OversizedFrameLengthRejected) {
  auto [a, b] = CreateChannelPair();
  const uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(a->Write(huge, sizeof(huge)).ok());
  EXPECT_TRUE(ReadFrame(b.get()).status().IsCorruption());
}

TEST(WireTest, StatusCodesSurviveTheWire) {
  const Status statuses[] = {
      Status::Overloaded("x"), Status::TimedOut("x"), Status::Aborted("x"),
      Status::NotFound("x"),   Status::InvalidArgument("x")};
  for (const Status& s : statuses) {
    Status back = WireStatusFromCode(WireStatusCode(s), s.message());
    EXPECT_EQ(back.code(), s.code()) << s.ToString();
    EXPECT_EQ(back.message(), s.message());
  }
  EXPECT_TRUE(WireStatusFromCode("Bogus", "m").IsInternal());
}

// --- The served cluster ---------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimStoreOptions sopts;
    store_ = std::make_unique<SimObjectStore>(sopts, &clock_);
    ClusterOptions copts;
    copts.num_shards = 3;
    copts.k_safety = 2;
    copts.node.cache.capacity_bytes = 64ULL << 20;
    auto cluster = EonCluster::Create(
        store_.get(), &clock_, copts,
        {NodeSpec{"node1", ""}, NodeSpec{"node2", ""}, NodeSpec{"node3", ""}});
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    TpchOptions topts;
    topts.scale = 0.05;
    ASSERT_TRUE(CreateTpchTables(cluster_.get()).ok());
    ASSERT_TRUE(LoadTpch(cluster_.get(), GenerateTpch(topts), 256).ok());
  }

  Result<QueryResult> RunDirect(const std::string& sql) {
    EON_ASSIGN_OR_RETURN(
        QuerySpec spec,
        ParseSelect(*cluster_->AnyUpNode()->catalog()->snapshot(), sql));
    EonSession session(cluster_.get());
    return session.Execute(spec);
  }

  SimClock clock_;
  std::unique_ptr<SimObjectStore> store_;
  std::unique_ptr<EonCluster> cluster_;
};

void ExpectSameRows(const WireQueryResult& wire, const QueryResult& direct) {
  ASSERT_EQ(wire.schema.num_columns(), direct.schema.num_columns());
  for (size_t c = 0; c < wire.schema.num_columns(); ++c) {
    EXPECT_EQ(wire.schema.column(c).name, direct.schema.column(c).name);
    EXPECT_EQ(wire.schema.column(c).type, direct.schema.column(c).type);
  }
  ASSERT_EQ(wire.rows.size(), direct.rows.size());
  for (size_t r = 0; r < wire.rows.size(); ++r) {
    ASSERT_EQ(wire.rows[r].size(), direct.rows[r].size());
    for (size_t c = 0; c < wire.rows[r].size(); ++c) {
      EXPECT_EQ(wire.rows[r][c], direct.rows[r][c])
          << "row " << r << " col " << c;
    }
  }
}

// The wire `stats` object is a view of the query's profile: for a user
// query and a system-table query alike, all four fields equal what a
// direct run reports. The direct session uses the seed the manager gives
// its first session (id 1), so both pick the same participation.
TEST_F(ServerTest, WireStatsMatchTheQueryProfile) {
  EonServer server(cluster_.get());
  EonClient client(server.ConnectInProcess());
  ASSERT_TRUE(client.Hello().ok());
  EonSession seeded(cluster_.get(), "", 1 * 7919);
  // part is replicated, so the join broadcasts it: rows move.
  const std::string user_sql =
      "SELECT l_partkey, COUNT(*) AS n FROM lineitem JOIN part ON "
      "l_partkey = p_partkey GROUP BY l_partkey ORDER BY l_partkey LIMIT 10";
  const std::string system_sql = "SELECT name, state FROM system_subscriptions";
  for (const std::string& sql : {user_sql, system_sql}) {
    SCOPED_TRACE(sql);
    auto wire = client.Query(sql);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    auto spec = ParseSelect(*cluster_->AnyUpNode()->catalog()->snapshot(), sql);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto direct = seeded.Execute(*spec);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectSameRows(*wire, *direct);
    const obs::QueryProfile& p = direct->profile;
    EXPECT_EQ(wire->participating_nodes, p.participating_nodes);
    EXPECT_EQ(wire->rows_scanned, p.rows_scanned_total);
    EXPECT_EQ(wire->rows_shuffled, p.rows_shuffled);
    EXPECT_EQ(wire->network_bytes, p.network_bytes);
    EXPECT_EQ(wire->participating_nodes, 3u);
    EXPECT_GT(wire->rows_scanned, 0u);
    if (sql == user_sql) {
      EXPECT_GT(wire->rows_shuffled, 0u);
      EXPECT_GT(wire->network_bytes, 0u);
    } else {
      EXPECT_EQ(wire->rows_shuffled, 0u);
      EXPECT_EQ(wire->network_bytes, 0u);
    }
  }
}

TEST_F(ServerTest, WireProtocolEndToEnd) {
  EonServer server(cluster_.get());
  EonClient client(server.ConnectInProcess());
  auto session = client.Hello();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_GT(*session, 0u);
  EXPECT_EQ(client.server_num_nodes(), 3);
  EXPECT_GT(client.server_slots_per_node(), 0);

  const std::string sql =
      "SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem "
      "GROUP BY l_orderkey ORDER BY l_orderkey LIMIT 20";
  auto wire = client.Query(sql);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto direct = RunDirect(sql);
  ASSERT_TRUE(direct.ok());
  ExpectSameRows(*wire, *direct);
  EXPECT_EQ(wire->participating_nodes, direct->profile.participating_nodes);
  EXPECT_EQ(wire->pool, "general");

  // Prepared statements: parse once, execute many, identical rows.
  ASSERT_TRUE(client.Prepare("q1", sql).ok());
  for (int i = 0; i < 3; ++i) {
    auto again = client.ExecutePrepared("q1");
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectSameRows(*again, *direct);
  }
  EXPECT_TRUE(client.ClosePrepared("q1").ok());
  EXPECT_TRUE(client.ExecutePrepared("q1").status().IsNotFound());

  // Session options change execution, never results.
  ASSERT_TRUE(client.Set("crunch", "hash_filter").ok());
  auto crunched = client.Query(sql);
  ASSERT_TRUE(crunched.ok());
  ExpectSameRows(*crunched, *direct);
  EXPECT_TRUE(client.Set("crunch", "sideways").IsInvalidArgument());
  EXPECT_TRUE(client.Set("no_such_option", "x").IsInvalidArgument());
  EXPECT_TRUE(client.Set("pool", "nope").IsNotFound());

  auto profile = client.ProfileText();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_NE(profile->find("query profile"), std::string::npos);
  EXPECT_NE(profile->find("admission: pool general"), std::string::npos);

  // Errors cross the wire without killing the session.
  EXPECT_FALSE(client.Query("SELECT nope FROM lineitem").ok());
  auto still_alive = client.Query("SELECT COUNT(*) AS n FROM customer");
  EXPECT_TRUE(still_alive.ok());

  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(ServerTest, ResultsBitIdenticalWithAdmissionOnAndOff) {
  EonServer::Options off;
  off.admission = false;
  EonServer with_admission(cluster_.get());
  EonServer without_admission(cluster_.get(), off);

  // Doubles exercise the %.17g round-trip; AVG produces non-trivial ones.
  // The direct session uses the same seed the managers give their first
  // session (id 1), so all three runs pick the same participation — float
  // summation order depends on which node aggregates which shard.
  const std::string sql =
      "SELECT l_partkey, SUM(l_extendedprice) AS s, AVG(l_discount) AS a "
      "FROM lineitem GROUP BY l_partkey ORDER BY l_partkey LIMIT 50";
  auto spec =
      ParseSelect(*cluster_->AnyUpNode()->catalog()->snapshot(), sql);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EonSession seeded(cluster_.get(), "", 1 * 7919);
  auto direct = seeded.Execute(*spec);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  for (EonServer* server : {&with_admission, &without_admission}) {
    EonClient client(server->ConnectInProcess());
    ASSERT_TRUE(client.Hello().ok());
    auto wire = client.Query(sql);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ExpectSameRows(*wire, *direct);
    EXPECT_TRUE(client.Bye().ok());
  }
}

TEST_F(ServerTest, SystemTablesExposeServingState) {
  EonServer::Options options;
  ResourcePoolConfig general;
  ResourcePoolConfig reporting;
  reporting.name = "reporting";
  reporting.priority = 2;
  reporting.max_slots = 3;
  options.admission_options.pools = {general, reporting};
  options.admission_options.slots_per_node = 4;
  EonServer server(cluster_.get(), options);

  EonClient client(server.ConnectInProcess());
  ASSERT_TRUE(client.Hello("", "reporting").ok());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) AS n FROM orders").ok());

  // The pool table, through SQL over the wire, from the same server.
  auto pools = client.Query(
      "SELECT pool, priority, slot_budget, admitted FROM "
      "system_resource_pools ORDER BY pool");
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  ASSERT_EQ(pools->rows.size(), 2u);
  EXPECT_EQ(pools->rows[0][0].str_value(), "general");
  EXPECT_EQ(pools->rows[0][2].int_value(), 12);  // Uncapped -> N*E.
  EXPECT_EQ(pools->rows[1][0].str_value(), "reporting");
  EXPECT_EQ(pools->rows[1][1].int_value(), 2);
  EXPECT_EQ(pools->rows[1][2].int_value(), 3);
  EXPECT_GE(pools->rows[1][3].int_value(), 1);  // Our queries admitted.

  // The session table sees this very session mid-query.
  auto sessions = client.Query(
      "SELECT pool, state, queries FROM system_sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  ASSERT_EQ(sessions->rows.size(), 1u);
  EXPECT_EQ(sessions->rows[0][0].str_value(), "reporting");
  EXPECT_EQ(sessions->rows[0][1].str_value(), "active");
  EXPECT_GE(sessions->rows[0][2].int_value(), 2);

  // Queue wait is recorded per query in the Data Collector.
  auto dc = client.Query(
      "SELECT pool, COUNT(*) AS n FROM dc_query_executions "
      "WHERE pool = 'reporting' GROUP BY pool");
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  ASSERT_EQ(dc->rows.size(), 1u);
  EXPECT_GE(dc->rows[0][1].int_value(), 1);
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(ServerTest, OverloadAndTimeoutSurfaceAsTypedErrors) {
  EonServer::Options options;
  ResourcePoolConfig pool;
  pool.max_queue_depth = 0;  // Never queue: immediate shed when slots busy.
  ResourcePoolConfig patient;
  patient.name = "patient";
  patient.queue_timeout_micros = 30 * 1000;
  options.admission_options.pools = {pool, patient};
  options.admission_options.slots_per_node = 4;
  EonServer server(cluster_.get(), options);

  // Occupy the whole ledger from the side (3 nodes x 4 slots).
  AdmissionRequest hog;
  for (const auto& node : cluster_->nodes()) {
    for (int s = 0; s < 4; ++s) hog.node_slots.push_back(node->oid());
  }
  auto held = server.admission()->Admit(hog);
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  EonClient client(server.ConnectInProcess());
  ASSERT_TRUE(client.Hello().ok());
  // Default pool: queue depth 0 -> kOverloaded, immediately, typed.
  auto shed = client.Query("SELECT COUNT(*) AS n FROM customer");
  EXPECT_TRUE(shed.status().IsOverloaded()) << shed.status().ToString();
  // Patient pool: queues, then times out -> kTimedOut, never a hang.
  ASSERT_TRUE(client.Set("pool", "patient").ok());
  auto timed_out = client.Query("SELECT COUNT(*) AS n FROM customer");
  EXPECT_TRUE(timed_out.status().IsTimedOut())
      << timed_out.status().ToString();

  held->Release();
  auto ok_now = client.Query("SELECT COUNT(*) AS n FROM customer");
  EXPECT_TRUE(ok_now.ok()) << ok_now.status().ToString();
  EXPECT_TRUE(client.Bye().ok());
}

TEST_F(ServerTest, LoopbackSocketSpeaksTheSameProtocol) {
  if (!LoopbackAvailable()) GTEST_SKIP() << "no loopback sockets here";
  EonServer server(cluster_.get());
  auto port = server.ListenLoopback(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  EXPECT_GT(*port, 0);

  auto transport = ConnectLoopback(*port);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  EonClient client(std::move(transport).value());
  ASSERT_TRUE(client.Hello("node2").ok());
  const std::string sql = "SELECT COUNT(*) AS n FROM customer";
  auto wire = client.Query(sql);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto direct = RunDirect(sql);
  ASSERT_TRUE(direct.ok());
  ExpectSameRows(*wire, *direct);
  EXPECT_TRUE(client.Bye().ok());
}

// Regression: a failed context build (cluster shutdown, no up nodes) must
// not advance the session's variation-seed cursor.
TEST_F(ServerTest, SessionSequenceOnlyAdvancesOnSuccess) {
  EonSession session(cluster_.get());
  EXPECT_EQ(session.sequence(), 0u);
  auto spec = ParseSelect(*cluster_->AnyUpNode()->catalog()->snapshot(),
                          "SELECT COUNT(*) AS n FROM customer");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(session.Execute(*spec).ok());
  EXPECT_EQ(session.sequence(), 1u);

  for (const auto& node : cluster_->nodes()) {
    ASSERT_TRUE(cluster_->KillNode(node->oid()).ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(session.Execute(*spec).ok());
  }
  EXPECT_EQ(session.sequence(), 1u);  // Unchanged by the failures.
}

// Many concurrent wire clients, one server, identical rows everywhere —
// the SessionManager/AdmissionController interplay under TSan.
TEST_F(ServerTest, ConcurrentClientsGetIdenticalRows) {
  EonServer::Options options;
  options.admission_options.slots_per_node = 2;
  EonServer server(cluster_.get(), options);

  const std::string sql =
      "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q "
      "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  auto direct = RunDirect(sql);
  ASSERT_TRUE(direct.ok());

  constexpr int kClients = 6;
  constexpr int kQueries = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      EonClient client(server.ConnectInProcess());
      ASSERT_TRUE(client.Hello().ok());
      ASSERT_TRUE(client.Prepare("q", sql).ok());
      for (int i = 0; i < kQueries; ++i) {
        auto wire = client.ExecutePrepared("q");
        ASSERT_TRUE(wire.ok()) << wire.status().ToString();
        ExpectSameRows(*wire, *direct);
      }
      EXPECT_TRUE(client.Bye().ok());
    });
  }
  for (std::thread& t : threads) t.join();

  auto stats = server.admission()->GetStats();
  EXPECT_EQ(stats.slots_in_use, 0);
  EXPECT_LE(stats.peak_slots_in_use, stats.total_slots);
  EXPECT_GE(stats.pools[0].admitted,
            static_cast<uint64_t>(kClients) * kQueries);
}

TEST_F(ServerTest, TrafficDriverAccountsForEveryQuery) {
  EonServer server(cluster_.get());

  TrafficOptions closed;
  closed.server = &server;
  closed.sql = "SELECT COUNT(*) AS n FROM customer";
  closed.clients = 4;
  closed.duration_micros = 200 * 1000;
  auto result = RunTraffic(closed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->completed, 0u);
  EXPECT_EQ(result->errors, 0u);
  EXPECT_EQ(result->submitted, result->completed + result->overloaded +
                                   result->timed_out + result->errors);

  TrafficOptions open = closed;
  open.offered_qps = 100;
  auto open_result = RunTraffic(open);
  ASSERT_TRUE(open_result.ok()) << open_result.status().ToString();
  EXPECT_GT(open_result->completed, 0u);
  EXPECT_EQ(open_result->submitted,
            open_result->completed + open_result->overloaded +
                open_result->timed_out + open_result->errors);

  // Shutdown with clients gone: the ledger must be clean.
  auto stats = server.admission()->GetStats();
  EXPECT_EQ(stats.slots_in_use, 0);
  EXPECT_EQ(stats.queue_depth, 0);
}

}  // namespace
}  // namespace eon
