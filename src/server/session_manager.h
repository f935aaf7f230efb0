#ifndef EON_SERVER_SESSION_MANAGER_H_
#define EON_SERVER_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/session.h"
#include "engine/sql.h"
#include "obs/profile.h"
#include "server/admission.h"

namespace eon {

/// Thread-safe frontend over many EonSessions: connect/disconnect,
/// per-session state (crunch, connected node, resource pool),
/// prepared statements (parse once, execute many), and query execution
/// through the admission controller. One statement runs at a time per
/// session (a session is a single client conversation); distinct sessions
/// execute concurrently.
class SessionManager {
 public:
  /// `admission` may be null: execution then bypasses slot reservation
  /// entirely (admission off — the A/B baseline, identical results).
  SessionManager(EonCluster* cluster, AdmissionController* admission,
                 std::string default_pool);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Open a session, optionally pinned to a connected node (subcluster
  /// affinity, Section 4.3) and a resource pool. Returns the session id.
  Result<uint64_t> Connect(const std::string& node = "",
                           const std::string& pool = "");
  Status Disconnect(uint64_t session_id);

  Result<QueryResult> Execute(uint64_t session_id, const QuerySpec& spec);
  /// Parse against the current catalog, then Execute. INSERT statements
  /// route through the WAL/WOS ingest fast path (InsertInto) on the
  /// session's connected node; everything else parses as a SELECT.
  Result<QueryResult> ExecuteSql(uint64_t session_id, const std::string& sql);

  /// Run a parsed INSERT through the ingest fast path. The result carries
  /// one row (`rows_inserted`) and the profile's wal block.
  Result<QueryResult> ExecuteInsert(uint64_t session_id,
                                    const InsertSpec& insert);

  /// Prepared statements: parse once under `name`, execute many times.
  /// Re-preparing an existing name replaces it.
  Status Prepare(uint64_t session_id, const std::string& name,
                 const std::string& sql);
  Result<QueryResult> ExecutePrepared(uint64_t session_id,
                                      const std::string& name);
  Status ClosePrepared(uint64_t session_id, const std::string& name);

  /// Session options: "crunch" (none | hash_filter | container_split),
  /// "pool" (a configured resource pool), "trace" (on | off — force span
  /// retention for this session's queries regardless of sampling).
  Status SetOption(uint64_t session_id, const std::string& key,
                   const std::string& value);

  /// Whether the session has forced tracing (`SET trace on`). False for
  /// unknown sessions.
  bool TraceForced(uint64_t session_id) const;

  /// Full profile of the session's last successful query.
  Result<std::string> LastProfileText(uint64_t session_id);

  /// Cancel the session's queued admission wait, if any; its Execute
  /// resolves with kAborted. No-op when the session is not waiting.
  Status CancelSession(uint64_t session_id);

  /// Live sessions in system_sessions schema order.
  std::vector<Row> SessionRows() const;
  size_t session_count() const;

 private:
  struct SessionState {
    explicit SessionState(EonCluster* cluster, std::string node,
                          uint64_t seed)
        : session(cluster, std::move(node), seed) {}
    /// Serializes statements on this session.
    std::mutex exec_mu;
    EonSession session;
    std::map<std::string, QuerySpec> prepared;
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> prepared_count{0};
    /// "idle" / "queued" / "active"; index into kStateNames.
    std::atomic<int> state{0};
    std::optional<obs::QueryProfile> last_profile;
    /// Guarded by the MANAGER mutex (CancelSession races Execute).
    CancelToken* waiting = nullptr;
    /// Monitoring-visible session options. Written under BOTH the manager
    /// mutex and exec_mu (SetOption), so SessionRows (manager mutex) and
    /// Execute (exec_mu) each read them race-free.
    std::string pool;
    CrunchMode crunch = CrunchMode::kNone;
    /// Force trace retention for this session's queries.
    bool trace = false;
  };

  std::shared_ptr<SessionState> Find(uint64_t session_id) const;
  void SetWaiting(SessionState* state, CancelToken* token);

  EonCluster* cluster_;
  AdmissionController* admission_;
  const std::string default_pool_;

  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<SessionState>> sessions_;
  uint64_t next_id_ = 1;
};

}  // namespace eon

#endif  // EON_SERVER_SESSION_MANAGER_H_
