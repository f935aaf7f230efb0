#include "server/server.h"

#include <optional>
#include <utility>

#include "cluster/cluster.h"
#include "engine/trace.h"
#include "obs/trace.h"

namespace eon {

namespace {

JsonValue ErrorResponse(const Status& status) {
  JsonValue r = JsonValue::Object();
  r.Set("ok", JsonValue::Bool(false));
  r.Set("code", JsonValue::Str(WireStatusCode(status)));
  r.Set("error", JsonValue::Str(status.message()));
  return r;
}

JsonValue OkResponse() {
  JsonValue r = JsonValue::Object();
  r.Set("ok", JsonValue::Bool(true));
  return r;
}

JsonValue EncodeValue(const Value& v) {
  if (v.is_null()) return JsonValue::Null();
  switch (v.type()) {
    case DataType::kInt64: return JsonValue::Int(v.int_value());
    case DataType::kDouble: return JsonValue::Double(v.dbl_value());
    case DataType::kString: return JsonValue::Str(v.str_value());
  }
  return JsonValue::Null();
}

/// A query result as a wire document. Doubles serialize with %.17g, so
/// values round-trip exactly and clients can compare rows bit-for-bit.
JsonValue EncodeResult(const QueryResult& result, int64_t queued_micros,
                       const std::string& pool) {
  JsonValue r = OkResponse();
  JsonValue columns = JsonValue::Array();
  for (const ColumnDef& col : result.schema.columns()) {
    JsonValue c = JsonValue::Object();
    c.Set("name", JsonValue::Str(col.name));
    c.Set("type", JsonValue::Str(DataTypeName(col.type)));
    columns.Append(std::move(c));
  }
  r.Set("columns", std::move(columns));
  JsonValue rows = JsonValue::Array();
  for (const Row& row : result.rows) {
    JsonValue out = JsonValue::Array();
    for (const Value& v : row) out.Append(EncodeValue(v));
    rows.Append(std::move(out));
  }
  r.Set("rows", std::move(rows));
  const obs::QueryProfile& p = result.profile;
  JsonValue stats = JsonValue::Object();
  stats.Set("participating_nodes",
            JsonValue::Int(static_cast<int64_t>(p.participating_nodes)));
  stats.Set("rows_scanned",
            JsonValue::Int(static_cast<int64_t>(p.rows_scanned_total)));
  stats.Set("rows_shuffled",
            JsonValue::Int(static_cast<int64_t>(p.rows_shuffled)));
  stats.Set("network_bytes",
            JsonValue::Int(static_cast<int64_t>(p.network_bytes)));
  r.Set("stats", std::move(stats));
  r.Set("queued_micros", JsonValue::Int(queued_micros));
  r.Set("pool", JsonValue::Str(pool));
  return r;
}

}  // namespace

EonServer::EonServer(EonCluster* cluster, Options options)
    : cluster_(cluster) {
  if (options.admission) {
    AdmissionOptions admission_options = options.admission_options;
    if (admission_options.num_nodes <= 0) {
      admission_options.num_nodes =
          static_cast<int>(cluster->nodes().size());
    }
    admission_ = std::make_unique<AdmissionController>(admission_options);
  }
  sessions_ = std::make_unique<SessionManager>(
      cluster_, admission_.get(),
      admission_ != nullptr ? admission_->default_pool() : "general");
  RegisterServingIntrospection(this);
}

EonServer::~EonServer() {
  UnregisterServingIntrospection(this);
  Shutdown();
}

std::unique_ptr<WireTransport> EonServer::ConnectInProcess() {
  auto [client_end, server_end] = CreateChannelPair();
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    // The client end sees immediate EOF — a refused connection.
    server_end->Close();
    return std::move(client_end);
  }
  std::shared_ptr<WireTransport> shared = std::move(server_end);
  conns_.push_back(shared);
  threads_.emplace_back(&EonServer::Serve, this, shared);
  return std::move(client_end);
}

Result<int> EonServer::ListenLoopback(int port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("server shut down");
  if (listen_fd_ >= 0) return Status::AlreadyExists("already listening");
  EON_ASSIGN_OR_RETURN(int bound,
                       wire::ListenLoopbackSocket(port, &listen_fd_));
  loopback_port_ = bound;
  // The thread owns its copy of the fd: Shutdown resets listen_fd_ under
  // mu_, which the loop must not read unlocked.
  accept_thread_ = std::thread(&EonServer::AcceptLoop, this, listen_fd_);
  return bound;
}

void EonServer::AcceptLoop(int listen_fd) {
  while (true) {
    Result<std::unique_ptr<WireTransport>> accepted =
        wire::AcceptLoopback(listen_fd);
    if (!accepted.ok()) return;  // Listener closed (shutdown).
    std::shared_ptr<WireTransport> shared = std::move(accepted).value();
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      shared->Close();
      return;
    }
    conns_.push_back(shared);
    threads_.emplace_back(&EonServer::Serve, this, shared);
  }
}

void EonServer::Shutdown() {
  std::vector<std::shared_ptr<WireTransport>> conns;
  int listen_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    listen_fd = listen_fd_;
    listen_fd_ = -1;
    conns = conns_;
  }
  if (listen_fd >= 0) wire::CloseListenSocket(listen_fd);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Closing each transport unblocks its service thread's ReadFrame.
  for (const auto& conn : conns) conn->Close();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads = std::move(threads_);
    conns_.clear();
  }
  for (std::thread& t : threads) t.join();
}

void EonServer::Serve(std::shared_ptr<WireTransport> transport) {
  uint64_t session_id = 0;
  while (true) {
    Result<std::string> frame = ReadFrame(transport.get());
    if (!frame.ok()) break;  // Peer closed (or died mid-frame).
    JsonValue response;
    bool bye = false;
    Result<JsonValue> request = JsonValue::Parse(frame.value());
    if (!request.ok()) {
      response = ErrorResponse(
          Status::InvalidArgument("bad request: " +
                                  request.status().message()));
    } else {
      response = Dispatch(request.value(), &session_id, &bye);
    }
    if (!WriteFrame(transport.get(), response.Dump()).ok()) break;
    if (bye) break;
  }
  if (session_id != 0) sessions_->Disconnect(session_id);
  transport->Close();
}

JsonValue EonServer::Dispatch(const JsonValue& request, uint64_t* session_id,
                              bool* bye) {
  const std::string& op = request.Get("op").string_value();

  if (op == "hello") {
    if (*session_id != 0) {
      return ErrorResponse(Status::AlreadyExists("session already open"));
    }
    Result<uint64_t> id =
        sessions_->Connect(request.Get("node").string_value(),
                           request.Get("pool").string_value());
    if (!id.ok()) return ErrorResponse(id.status());
    *session_id = id.value();
    JsonValue r = OkResponse();
    r.Set("session", JsonValue::Int(static_cast<int64_t>(*session_id)));
    r.Set("num_nodes",
          JsonValue::Int(static_cast<int64_t>(cluster_->nodes().size())));
    r.Set("slots_per_node",
          JsonValue::Int(admission_ != nullptr ? admission_->slots_per_node()
                                               : 0));
    return r;
  }
  if (op == "bye") {
    *bye = true;
    if (*session_id != 0) {
      sessions_->Disconnect(*session_id);
      *session_id = 0;
    }
    return OkResponse();
  }
  if (*session_id == 0) {
    return ErrorResponse(
        Status::InvalidArgument("no session: say hello first"));
  }

  // Statement ops mint the query's trace at the wire boundary: the root
  // "session" span then covers admission queueing, execution, AND result
  // serialization. Inner layers (SessionManager, ExecuteQuery) see the
  // installed scope and skip minting their own.
  const auto traced = [&](auto&& exec) -> JsonValue {
    QueryTraceGuard trace_guard(cluster_, "session",
                                sessions_->TraceForced(*session_id));
    std::optional<obs::TraceScope> trace_scope;
    if (trace_guard.active()) trace_scope.emplace(trace_guard.context());
    Result<QueryResult> result = exec();
    if (!result.ok()) return ErrorResponse(result.status());
    JsonValue r;
    {
      obs::Span serialize_span = obs::StartTraceSpan("serialize");
      serialize_span.SetAttribute(
          "rows", static_cast<int64_t>(result->rows.size()));
      r = EncodeResult(result.value(), result->profile.queued_micros,
                       result->profile.resource_pool);
    }
    trace_scope.reset();
    if (trace_guard.active()) trace_guard.Finish(result->profile);
    // 0 = untraced; nonzero joins dc_query_executions / dc_trace_spans.
    r.Set("trace_id",
          JsonValue::Int(static_cast<int64_t>(result->profile.trace_id)));
    return r;
  };

  if (op == "query") {
    return traced([&] {
      return sessions_->ExecuteSql(*session_id,
                                   request.Get("sql").string_value());
    });
  }
  if (op == "prepare") {
    Status status = sessions_->Prepare(*session_id,
                                       request.Get("name").string_value(),
                                       request.Get("sql").string_value());
    return status.ok() ? OkResponse() : ErrorResponse(status);
  }
  if (op == "execute") {
    return traced([&] {
      return sessions_->ExecutePrepared(*session_id,
                                        request.Get("name").string_value());
    });
  }
  if (op == "trace") {
    const uint64_t trace_id =
        static_cast<uint64_t>(request.Get("trace_id").int_value());
    Result<JsonValue> json = ExportTraceJson(cluster_, trace_id);
    if (!json.ok()) return ErrorResponse(json.status());
    JsonValue r = OkResponse();
    r.Set("trace", std::move(json).value());
    return r;
  }
  if (op == "close_prepared") {
    Status status = sessions_->ClosePrepared(
        *session_id, request.Get("name").string_value());
    return status.ok() ? OkResponse() : ErrorResponse(status);
  }
  if (op == "set") {
    Status status = sessions_->SetOption(*session_id,
                                         request.Get("key").string_value(),
                                         request.Get("value").string_value());
    return status.ok() ? OkResponse() : ErrorResponse(status);
  }
  if (op == "profile") {
    Result<std::string> text = sessions_->LastProfileText(*session_id);
    if (!text.ok()) return ErrorResponse(text.status());
    JsonValue r = OkResponse();
    r.Set("text", JsonValue::Str(std::move(text).value()));
    return r;
  }
  return ErrorResponse(Status::InvalidArgument("unknown op: " + op));
}

std::vector<Row> EonServer::ResourcePoolRows() {
  std::vector<Row> rows;
  if (admission_ == nullptr) return rows;
  const AdmissionController::Stats stats = admission_->GetStats();
  for (const AdmissionController::PoolStats& pool : stats.pools) {
    // Effective slot budget: a pool without its own cap is bounded by the
    // cluster-wide N*E ledger.
    const int64_t budget =
        pool.max_slots >= 0 ? pool.max_slots : stats.total_slots;
    Row row;
    row.push_back(Value::Str(pool.name));
    row.push_back(Value::Int(pool.priority));
    row.push_back(Value::Int(budget));
    row.push_back(Value::Int(pool.slots_in_use));
    row.push_back(Value::Int(static_cast<int64_t>(pool.memory_budget_bytes)));
    row.push_back(Value::Int(static_cast<int64_t>(pool.memory_in_use_bytes)));
    row.push_back(Value::Int(pool.queue_depth));
    row.push_back(Value::Int(pool.max_queue_depth));
    row.push_back(Value::Int(pool.queue_timeout_micros));
    row.push_back(Value::Int(static_cast<int64_t>(pool.admitted)));
    row.push_back(Value::Int(static_cast<int64_t>(pool.shed)));
    row.push_back(Value::Int(static_cast<int64_t>(pool.timed_out)));
    row.push_back(Value::Int(static_cast<int64_t>(pool.cancelled)));
    row.push_back(Value::Int(pool.queued_micros_total));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> EonServer::SessionRows() { return sessions_->SessionRows(); }

}  // namespace eon
