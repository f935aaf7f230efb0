#ifndef EON_COLUMNAR_NDP_H_
#define EON_COLUMNAR_NDP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "columnar/agg.h"
#include "columnar/delete_vector.h"
#include "columnar/expression.h"
#include "columnar/ros.h"
#include "columnar/schema.h"
#include "common/result.h"

namespace eon {

/// True when `fn` over `input_type` may be folded store-side and merged
/// with local partials without changing any result bit. Only
/// order-independent, exactly-mergeable aggregates are pushable: COUNT,
/// MIN/MAX over any type, and SUM/AVG over int64 (whose partials stay
/// exact under the repo's |sum| < 2^53 assumption). Double SUM/AVG and
/// COUNT DISTINCT must stay on the local path — the former because
/// floating-point addition order would break bit-identity, the latter
/// because its state transfer is unbounded.
bool IsPushableAggregate(AggFn fn, DataType input_type);

/// A near-data scan request against one ROS container living under
/// `base_key` in an object store (the ObjectStore::ScanObject payload —
/// the S3-Select-shaped half of the UDFS API).
struct ScanObjectRequest {
  std::string base_key;
  /// Projection schema the container was written with.
  Schema schema;
  /// Projection column positions to return, in output order.
  std::vector<size_t> output_columns;
  /// Optional predicate over projection positions; evaluated store-side.
  PredicatePtr predicate;
  /// Optional precomputed predicate column set (projection positions).
  std::vector<size_t> predicate_columns;
  /// Container-relative row range [row_begin, row_end): container-split
  /// crunch pushes its split boundaries through unchanged.
  uint64_t row_begin = 0;
  uint64_t row_end = UINT64_MAX;
  /// Optional tombstones; the caller owns the vector for the call's
  /// duration (requests never outlive their ScanObject invocation).
  const DeleteVector* deletes = nullptr;
  /// When non-empty, surviving rows are folded into per-group partial
  /// aggregates store-side and the response carries those instead of
  /// rows. Each `column` is a position within the pushed output row
  /// (SIZE_MAX for COUNT(*)), and each aggregate must be pushable.
  std::vector<AggColumn> aggregates;
  /// Positions of the grouping columns within the output row, in group
  /// order (empty = one global group).
  std::vector<size_t> group_columns;
};

/// What a near-data scan returns: the surviving rows as one chunk (row
/// pushdown) or their partial-aggregate groups (aggregate pushdown), plus
/// the accounting the cost models and profile need.
struct ScanObjectResponse {
  ColumnChunk chunk;
  GroupStates groups;
  /// Rows the store-side scan visited (post block pruning / row range).
  uint64_t rows_visited = 0;
  /// Rows surviving the predicate + deletes (== chunk.num_rows() in row
  /// mode).
  uint64_t rows_output = 0;
  /// Bytes of container objects the store read locally to answer the scan.
  uint64_t bytes_scanned = 0;
  /// Estimated wire size of the response payload: the chunk's or the
  /// group keys' WireBytes, plus the states' StateBytes.
  uint64_t response_bytes = 0;
  /// Store-side scan work (decode counters, pruning, kernel calls).
  RosScanStats scan;
};

/// How a store implementation reads one whole object by key. Reads made
/// through this function are local to the store (near-data), so callers
/// pass an UNMETERED reader — the metered response is what crosses the
/// network.
using RawObjectReader =
    std::function<Result<std::string>(const std::string& key)>;

/// The shared near-data scan engine: every ObjectStore backend implements
/// ScanObject by delegating here with its own raw reader. Reuses the
/// regular ROS scan pipeline (encoded predicate eval + selective decode),
/// so pushed results are bit-identical to a local scan of the same
/// container, then optionally folds exact partial aggregates with the
/// engine's own group fold (FoldChunksIntoGroups).
Status ExecuteObjectScan(const RawObjectReader& reader,
                         const ScanObjectRequest& request,
                         ScanObjectResponse* response);

}  // namespace eon

#endif  // EON_COLUMNAR_NDP_H_
