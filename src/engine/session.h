#ifndef EON_ENGINE_SESSION_H_
#define EON_ENGINE_SESSION_H_

#include <string>

#include "engine/executor.h"

namespace eon {

/// A client session: binds a cluster and (optionally) a connected node.
/// Each query selects a fresh covering set of participating subscriptions
/// (with a varying seed so repeated queries spread over equivalent
/// assignments, Section 4.1); a session connected to a subcluster node
/// keeps its workload inside that subcluster (Section 4.3).
class EonSession {
 public:
  explicit EonSession(EonCluster* cluster, std::string connected_node = "",
                      uint64_t seed = 0)
      : cluster_(cluster),
        connected_node_(std::move(connected_node)),
        seed_(seed) {}

  /// Build the execution context for the session's next query: fresh
  /// participation selection with the next variation seed. The seed
  /// advances only when context construction succeeds — a transient
  /// failure (no up nodes, shutdown) must not skip an assignment and skew
  /// participation spreading for the queries that follow.
  Result<ExecContext> PrepareContext() {
    EON_ASSIGN_OR_RETURN(
        ExecContext context,
        BuildExecContext(cluster_, connected_node_, seed_ + sequence_,
                         crunch_));
    ++sequence_;
    return context;
  }

  /// Execute under a context obtained from PrepareContext(). Split from
  /// Execute so a serving layer can reserve execution slots for the
  /// context's participating nodes before running (admission control).
  Result<QueryResult> ExecuteWithContext(const QuerySpec& spec,
                                         const ExecContext& context) {
    return ExecuteQuery(cluster_, spec, context);
  }

  /// Execute a query; participation is re-selected per call.
  Result<QueryResult> Execute(const QuerySpec& spec) {
    EON_ASSIGN_OR_RETURN(ExecContext context, PrepareContext());
    return ExecuteWithContext(spec, context);
  }

  /// Crunch scaling for subsequent queries (Section 4.4); effective when
  /// more nodes than shards are available.
  void set_crunch_mode(CrunchMode mode) { crunch_ = mode; }

  EonCluster* cluster() { return cluster_; }
  const std::string& connected_node() const { return connected_node_; }
  CrunchMode crunch_mode() const { return crunch_; }
  /// Queries whose context was successfully built so far (the variation-
  /// seed cursor). Failed PrepareContext calls do not advance it.
  uint64_t sequence() const { return sequence_; }

 private:
  EonCluster* cluster_;
  std::string connected_node_;
  uint64_t seed_;
  uint64_t sequence_ = 0;
  CrunchMode crunch_ = CrunchMode::kNone;
};

}  // namespace eon

#endif  // EON_ENGINE_SESSION_H_
