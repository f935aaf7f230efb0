#ifndef EON_COLUMNAR_AGG_H_
#define EON_COLUMNAR_AGG_H_

#include <cstdint>
#include <set>
#include <vector>

#include "columnar/batch.h"
#include "columnar/types.h"

namespace eon {

/// Aggregate functions. Shared between the execution engine's aggregate
/// expressions and the catalog's live-aggregate projection definitions.
enum class AggFn : uint8_t {
  kCount = 0,
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kAvg = 4,
  kCountDistinct = 5,
};

const char* AggFnName(AggFn fn);

/// Aggregation state for one group. Partials fold over ColumnBatches via
/// the SIMD kernels (int64 SUM/MIN/MAX/COUNT); doubles, strings, and
/// COUNT DISTINCT take the per-value path, in ascending row order so the
/// result is independent of morsel width. SUM keeps both an exact int64
/// (mod 2^64) accumulator and a double accumulator, matching the scalar
/// engine's historical semantics.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t sum_int = 0;
  Value min, max;
  std::set<Value> distinct;

  /// Per-value accumulation (the scalar reference; also the fallback for
  /// non-int64 batch folds).
  void Accumulate(AggFn fn, const Value& v);

  /// Folds the batch rows named by idx[0..nidx) (ascending); idx == nullptr
  /// means rows [0, nidx). int64 SUM/MIN/MAX/COUNT route through the
  /// simd::FoldInt64* kernels (kernel_calls, when non-null, is incremented
  /// per kernel invocation); everything else falls back to Accumulate.
  void Fold(AggFn fn, const ColumnBatch& batch, const uint32_t* idx,
            size_t nidx, uint64_t* kernel_calls = nullptr);

  /// COUNT(*) without an input column: every row counts, nulls included.
  void FoldCountOnly(size_t n) { count += static_cast<int64_t>(n); }

  void Merge(const AggState& o);
  Value Finalize(AggFn fn, DataType input_type) const;

  /// Approximate transfer size when shipped as a partial aggregate.
  uint64_t TransferBytes() const;
};

/// One aggregate of a group fold: `fn` over input column `column`.
/// SIZE_MAX means COUNT(*), which has no input column and counts every
/// row.
struct AggColumn {
  AggFn fn = AggFn::kCount;
  size_t column = SIZE_MAX;
};

/// Partial aggregates: `num_groups` groups in first-appearance order,
/// their key values as the rows of `keys` (one batch per grouping column)
/// and their states, aggregate a of group g at states[g * num_aggs + a].
struct GroupStates {
  size_t num_groups = 0;
  ColumnChunk keys;
  std::vector<AggState> states;

  /// Sum of the states' TransferBytes (the keys not included).
  uint64_t StateBytes() const;
};

/// The one group fold. Folds the rows of `chunks` (same columns; read in
/// order as one input) into per-group states: rows are grouped through a
/// KeyTable over the `group_pos` columns, then every group folds its rows
/// in ascending order with AggState::Fold, so int64 SUM/AVG/MIN/MAX run
/// the vectorized kernels and order-sensitive accumulators (doubles) see
/// rows in input order. No `group_pos` means one global group. A group's
/// key is copied once, from its first row. Zero input rows give zero
/// groups. `kernel_calls`, when non-null, counts kernel invocations.
void FoldChunksIntoGroups(const std::vector<ColumnChunk>& chunks,
                          const std::vector<size_t>& group_pos,
                          const std::vector<AggColumn>& aggs,
                          GroupStates* out, uint64_t* kernel_calls);

/// Merges `parts` (each with `num_aggs` states per group, keys typed
/// alike) in order through one KeyTable over their keys: a group's first
/// partial moves in, later ones merge into it, and groups keep
/// first-appearance order. One part is returned as is.
GroupStates MergeGroupStates(std::vector<GroupStates> parts, size_t num_aggs);

/// One row per group, sorted by key in Value::Compare order (NULL first):
/// the key values, then aggregate a finalized as aggs[a].fn over input
/// type input_types[a].
std::vector<Row> FinalizeSortedGroups(const GroupStates& groups,
                                      const std::vector<AggColumn>& aggs,
                                      const std::vector<DataType>& input_types);

}  // namespace eon

#endif  // EON_COLUMNAR_AGG_H_
