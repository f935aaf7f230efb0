#ifndef EON_SERVER_CLIENT_H_
#define EON_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/schema.h"
#include "common/json.h"
#include "server/wire.h"

namespace eon {

/// A query result decoded from the wire. Doubles round-trip exactly
/// (%.17g), so `rows` compares bit-for-bit against an in-process
/// QueryResult — the differential tests rely on this.
struct WireQueryResult {
  Schema schema;
  std::vector<Row> rows;
  uint64_t participating_nodes = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_shuffled = 0;
  uint64_t network_bytes = 0;
  /// Admission wait reported by the server (0 with admission off).
  int64_t queued_micros = 0;
  std::string pool;
  /// Trace id of the query's span tree (0 = untraced). Nonzero ids join
  /// dc_trace_spans / dc_query_executions and feed Trace().
  uint64_t trace_id = 0;
};

/// Client half of the serving protocol: one connection, one session.
/// Synchronous request/response; NOT thread-safe (a client is one
/// conversation — use one EonClient per driver thread).
class EonClient {
 public:
  explicit EonClient(std::unique_ptr<WireTransport> transport)
      : transport_(std::move(transport)) {}
  /// Closes the connection; sends no farewell (use Bye for an orderly
  /// goodbye — the server cleans up either way).
  ~EonClient();

  EonClient(const EonClient&) = delete;
  EonClient& operator=(const EonClient&) = delete;

  /// Open the session, optionally pinned to a connected node and pool.
  /// Returns the server-assigned session id.
  Result<uint64_t> Hello(const std::string& node = "",
                         const std::string& pool = "");

  Result<WireQueryResult> Query(const std::string& sql);

  Status Prepare(const std::string& name, const std::string& sql);
  Result<WireQueryResult> ExecutePrepared(const std::string& name);
  Status ClosePrepared(const std::string& name);

  /// "crunch" / "pool" / "trace"; see SessionManager::SetOption.
  Status Set(const std::string& key, const std::string& value);

  /// Full profile text of the session's last successful query.
  Result<std::string> ProfileText();

  /// Retained span tree of a traced query as Chrome trace-event JSON
  /// (with the "attribution" rollup). NotFound when the trace was not
  /// retained or has aged out of the DC rings.
  Result<JsonValue> Trace(uint64_t trace_id);

  /// Orderly goodbye; the server closes its end after acknowledging.
  Status Bye();

  uint64_t session_id() const { return session_id_; }
  /// Server facts learned from the hello response.
  int server_num_nodes() const { return server_num_nodes_; }
  int server_slots_per_node() const { return server_slots_per_node_; }

 private:
  /// Send one request, await one response. A response with ok=false
  /// decodes back into the server's typed Status (kOverloaded survives
  /// the wire).
  Result<JsonValue> RoundTrip(const JsonValue& request);
  Result<WireQueryResult> RunResultOp(const JsonValue& request);

  std::unique_ptr<WireTransport> transport_;
  uint64_t session_id_ = 0;
  int server_num_nodes_ = 0;
  int server_slots_per_node_ = 0;
};

}  // namespace eon

#endif  // EON_SERVER_CLIENT_H_
