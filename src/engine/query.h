#ifndef EON_ENGINE_QUERY_H_
#define EON_ENGINE_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "columnar/agg.h"
#include "columnar/expression.h"
#include "columnar/schema.h"
#include "obs/profile.h"

namespace eon {

/// One aggregate expression: fn(column) AS name. kCount ignores `column`.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string column;
  std::string as;
};

/// Scan of one table: which columns to read and an optional predicate
/// (column names refer to the table schema; the engine maps them onto the
/// chosen projection).
struct ScanSpec {
  std::string table;
  std::vector<std::string> columns;
  /// Predicate over the named columns below; built with Predicate::Cmp
  /// using *table column positions* — the engine rebinds it to projection
  /// positions.
  PredicatePtr predicate;
};

/// Inner equi-join against a second table.
struct JoinSpec {
  ScanSpec right;
  std::string left_key;   ///< Column name on the left (driving) table.
  std::string right_key;  ///< Column name on the right table.
};

/// A declarative query: scan [join] [group-by/aggregate] [order] [limit].
/// This is the shape of the paper's workloads (dashboard joins +
/// aggregations, TPC-H style scans); plans are built directly — the
/// paper's contribution sits below the SQL optimizer, which it reuses.
struct QuerySpec {
  ScanSpec scan;
  std::optional<JoinSpec> join;
  std::vector<std::string> group_by;  ///< Output column names to group on.
  std::vector<AggSpec> aggregates;
  std::optional<std::string> order_by;
  bool order_desc = false;
  int64_t limit = -1;  ///< -1 = unlimited.
};

/// Query output: schema + rows + profile + the catalog version it read.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  /// The query's one stats record: per-phase timing, per-node scan rows,
  /// locality choices, cache/store deltas attributed to this query.
  obs::QueryProfile profile;
  uint64_t catalog_version = 0;
};

}  // namespace eon

#endif  // EON_ENGINE_QUERY_H_
