#include "server/session_manager.h"

#include <utility>

#include "cluster/cluster.h"
#include "columnar/ros.h"
#include "engine/dml.h"
#include "engine/trace.h"
#include "obs/trace.h"

namespace eon {

namespace {

const char* const kStateNames[] = {"idle", "queued", "active"};
constexpr int kIdle = 0;
constexpr int kQueued = 1;
constexpr int kActive = 2;

const char* CrunchModeName(CrunchMode mode) {
  switch (mode) {
    case CrunchMode::kNone: return "none";
    case CrunchMode::kHashFilter: return "hash_filter";
    case CrunchMode::kContainerSplit: return "container_split";
  }
  return "?";
}

}  // namespace

SessionManager::SessionManager(EonCluster* cluster,
                               AdmissionController* admission,
                               std::string default_pool)
    : cluster_(cluster),
      admission_(admission),
      default_pool_(std::move(default_pool)) {}

SessionManager::~SessionManager() = default;

Result<uint64_t> SessionManager::Connect(const std::string& node,
                                         const std::string& pool) {
  if (!node.empty() && cluster_->node_by_name(node) == nullptr) {
    return Status::NotFound("no such node: " + node);
  }
  std::string effective_pool = pool.empty() ? default_pool_ : pool;
  if (admission_ != nullptr && !admission_->HasPool(effective_pool)) {
    return Status::NotFound("no such resource pool: " + effective_pool);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  // Distinct per-session seeds so concurrent sessions spread their
  // participation over different equivalent assignments (Section 4.1).
  auto state = std::make_shared<SessionState>(cluster_, node, id * 7919);
  state->pool = std::move(effective_pool);
  sessions_.emplace(id, std::move(state));
  return id;
}

Status SessionManager::Disconnect(uint64_t session_id) {
  std::shared_ptr<SessionState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("no such session: " +
                              std::to_string(session_id));
    }
    state = it->second;
    sessions_.erase(it);
    // A statement still queued for admission resolves with kAborted.
    if (state->waiting != nullptr && admission_ != nullptr) {
      admission_->Cancel(state->waiting);
    }
  }
  return Status::OK();
}

std::shared_ptr<SessionManager::SessionState> SessionManager::Find(
    uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

void SessionManager::SetWaiting(SessionState* state, CancelToken* token) {
  std::lock_guard<std::mutex> lock(mu_);
  state->waiting = token;
}

Result<QueryResult> SessionManager::Execute(uint64_t session_id,
                                            const QuerySpec& spec) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  std::lock_guard<std::mutex> exec_lock(state->exec_mu);

  // Trace mint at the session boundary, unless an outer layer (the wire
  // server) already installed one on this thread. The root "session" span
  // covers admission queueing, execution, and everything downstream.
  QueryTraceGuard trace_guard;
  std::optional<obs::TraceScope> trace_scope;
  if (obs::TraceScope::Current() == nullptr) {
    trace_guard = QueryTraceGuard(cluster_, "session", state->trace);
    if (trace_guard.active()) trace_scope.emplace(trace_guard.context());
  }

  EON_ASSIGN_OR_RETURN(ExecContext context, state->session.PrepareContext());

  SlotGrant grant;
  if (admission_ != nullptr) {
    // The paper's slot model: one slot per (shard → node) assignment, so
    // a node serving two of the query's shards holds two of its E slots;
    // crunch fan-out additionally occupies the sharing nodes.
    AdmissionRequest request;
    request.pool = state->pool;
    for (const auto& [shard, node] : context.participation.shard_to_node) {
      (void)shard;
      request.node_slots.push_back(node);
    }
    for (const auto& [shard, nodes] : context.crunch_nodes) {
      (void)shard;
      for (size_t i = 1; i < nodes.size(); ++i) {
        request.node_slots.push_back(nodes[i]);
      }
    }

    CancelToken token;
    SetWaiting(state.get(), &token);
    state->state.store(kQueued, std::memory_order_relaxed);
    obs::Span admit_span = obs::StartTraceSpan("admission_wait");
    Result<SlotGrant> admitted = admission_->Admit(request, &token);
    SetWaiting(state.get(), nullptr);
    if (!admitted.ok()) {
      state->state.store(kIdle, std::memory_order_relaxed);
      return admitted.status();
    }
    grant = std::move(admitted).value();
    if (admit_span.valid()) {
      admit_span.SetAttribute("pool", grant.pool());
      admit_span.SetAttribute(
          "queued_micros", static_cast<int64_t>(grant.queued_micros()));
      admit_span.SetAttribute(
          "slots", static_cast<int64_t>(request.node_slots.size()));
    }
    admit_span.End();
    context.queued_micros = grant.queued_micros();
    context.resource_pool = grant.pool();
  }

  state->state.store(kActive, std::memory_order_relaxed);
  Result<QueryResult> result = state->session.ExecuteWithContext(spec, context);
  state->state.store(kIdle, std::memory_order_relaxed);
  if (result.ok()) {
    state->queries.fetch_add(1, std::memory_order_relaxed);
    state->last_profile = result->profile;
  }
  trace_scope.reset();
  if (trace_guard.active() && result.ok()) {
    trace_guard.Finish(result->profile);
  }
  return result;
}

Result<QueryResult> SessionManager::ExecuteSql(uint64_t session_id,
                                               const std::string& sql) {
  Node* coord = cluster_->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  if (IsInsertStatement(sql)) {
    EON_ASSIGN_OR_RETURN(InsertSpec insert,
                         ParseInsert(*coord->catalog()->snapshot(), sql));
    return ExecuteInsert(session_id, insert);
  }
  EON_ASSIGN_OR_RETURN(QuerySpec spec,
                       ParseSelect(*coord->catalog()->snapshot(), sql));
  return Execute(session_id, spec);
}

Result<QueryResult> SessionManager::ExecuteInsert(uint64_t session_id,
                                                  const InsertSpec& insert) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  std::lock_guard<std::mutex> exec_lock(state->exec_mu);

  // Same trace-mint rule as Execute: the root span covers the WAL append
  // and the group-commit wait. A moveout the insert triggers runs on the
  // Tuple Mover thread under its own trace.
  QueryTraceGuard trace_guard;
  std::optional<obs::TraceScope> trace_scope;
  if (obs::TraceScope::Current() == nullptr) {
    trace_guard = QueryTraceGuard(cluster_, "session", state->trace);
    if (trace_guard.active()) trace_scope.emplace(trace_guard.context());
  }

  // Inserts bypass slot admission: the slot model reserves scan capacity
  // per (shard -> node) assignment, and the fast path's cost is one log
  // append on the connected node, not a distributed scan.
  state->state.store(kActive, std::memory_order_relaxed);
  QueryResult result;
  if (const obs::TraceContext* trace = obs::TraceScope::Current()) {
    result.profile.trace_id = trace->trace_id;
  }
  InsertOptions options;
  options.connected_node = state->session.connected_node();
  Result<uint64_t> inserted =
      InsertInto(cluster_, insert.table, insert.rows, options, &result.profile);
  state->state.store(kIdle, std::memory_order_relaxed);
  if (!inserted.ok()) return inserted.status();

  result.schema = Schema({{"rows_inserted", DataType::kInt64}});
  result.rows.push_back(Row{Value::Int(static_cast<int64_t>(*inserted))});
  state->queries.fetch_add(1, std::memory_order_relaxed);
  state->last_profile = result.profile;
  trace_scope.reset();
  if (trace_guard.active()) {
    trace_guard.Finish(result.profile);
  }
  return result;
}

Status SessionManager::Prepare(uint64_t session_id, const std::string& name,
                               const std::string& sql) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  if (name.empty()) {
    return Status::InvalidArgument("prepared statement needs a name");
  }
  Node* coord = cluster_->AnyUpNode();
  if (coord == nullptr) return Status::Unavailable("no up nodes");
  EON_ASSIGN_OR_RETURN(QuerySpec spec,
                       ParseSelect(*coord->catalog()->snapshot(), sql));
  std::lock_guard<std::mutex> exec_lock(state->exec_mu);
  state->prepared[name] = std::move(spec);
  state->prepared_count.store(state->prepared.size(),
                              std::memory_order_relaxed);
  return Status::OK();
}

Result<QueryResult> SessionManager::ExecutePrepared(uint64_t session_id,
                                                    const std::string& name) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  QuerySpec spec;
  {
    std::lock_guard<std::mutex> exec_lock(state->exec_mu);
    auto it = state->prepared.find(name);
    if (it == state->prepared.end()) {
      return Status::NotFound("no prepared statement: " + name);
    }
    spec = it->second;
  }
  return Execute(session_id, spec);
}

Status SessionManager::ClosePrepared(uint64_t session_id,
                                     const std::string& name) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  std::lock_guard<std::mutex> exec_lock(state->exec_mu);
  if (state->prepared.erase(name) == 0) {
    return Status::NotFound("no prepared statement: " + name);
  }
  state->prepared_count.store(state->prepared.size(),
                              std::memory_order_relaxed);
  return Status::OK();
}

Status SessionManager::SetOption(uint64_t session_id, const std::string& key,
                                 const std::string& value) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  std::lock_guard<std::mutex> exec_lock(state->exec_mu);
  if (key == "crunch") {
    CrunchMode mode;
    if (value == "none") {
      mode = CrunchMode::kNone;
    } else if (value == "hash_filter") {
      mode = CrunchMode::kHashFilter;
    } else if (value == "container_split") {
      mode = CrunchMode::kContainerSplit;
    } else {
      return Status::InvalidArgument("unknown crunch mode: " + value);
    }
    state->session.set_crunch_mode(mode);
    std::lock_guard<std::mutex> lock(mu_);
    state->crunch = mode;
    return Status::OK();
  }
  if (key == "pool") {
    if (admission_ != nullptr && !admission_->HasPool(value)) {
      return Status::NotFound("no such resource pool: " + value);
    }
    std::lock_guard<std::mutex> lock(mu_);
    state->pool = value;
    return Status::OK();
  }
  if (key == "trace") {
    bool on;
    if (value == "on") {
      on = true;
    } else if (value == "off") {
      on = false;
    } else {
      return Status::InvalidArgument("trace expects on|off, got: " + value);
    }
    std::lock_guard<std::mutex> lock(mu_);
    state->trace = on;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown session option: " + key);
}

bool SessionManager::TraceForced(uint64_t session_id) const {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return state->trace;
}

Result<std::string> SessionManager::LastProfileText(uint64_t session_id) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  std::lock_guard<std::mutex> exec_lock(state->exec_mu);
  if (!state->last_profile.has_value()) {
    return Status::NotFound("no query executed yet");
  }
  return state->last_profile->ToText();
}

Status SessionManager::CancelSession(uint64_t session_id) {
  std::shared_ptr<SessionState> state = Find(session_id);
  if (state == nullptr) {
    return Status::NotFound("no such session: " + std::to_string(session_id));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (state->waiting != nullptr && admission_ != nullptr) {
    admission_->Cancel(state->waiting);
  }
  return Status::OK();
}

std::vector<Row> SessionManager::SessionRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> rows;
  for (const auto& [id, state] : sessions_) {
    // connected_node is immutable after Connect; everything else read
    // here is either atomic or written under the manager mutex.
    rows.push_back(Row{
        Value::Int(static_cast<int64_t>(id)),
        Value::Str(state->session.connected_node()),
        Value::Str(state->pool),
        Value::Str(CrunchModeName(state->crunch)),
        Value::Str(kStateNames[state->state.load(std::memory_order_relaxed)]),
        Value::Int(static_cast<int64_t>(
            state->queries.load(std::memory_order_relaxed))),
        Value::Int(static_cast<int64_t>(
            state->prepared_count.load(std::memory_order_relaxed)))});
  }
  return rows;
}

size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace eon
