#ifndef EON_COLUMNAR_EXPRESSION_H_
#define EON_COLUMNAR_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/types.h"

namespace eon {

/// Comparison operators for simple column-vs-constant predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// Closed min/max range of a column within some storage unit (block or
/// container). Vertica tracks these per storage and uses expression
/// analysis to skip storage a predicate can never match (paper Section 2.1).
struct ValueRange {
  bool valid = false;  ///< False when stats are unavailable → cannot prune.
  bool has_null = false;
  Value min;
  Value max;
};

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// Selection vector over one decoded block: one byte per row, nonzero =
/// the row survives the predicate. Bytes (not std::vector<bool>) so
/// AND/OR combine as simple loops the compiler can vectorize.
using SelectionVector = std::vector<uint8_t>;

/// `v <op> literal` with SQL null semantics: NULL on either side never
/// matches. The single comparison definition shared by the row path and
/// the encoded (per-run / per-dictionary-entry) path.
bool CmpMatches(const Value& v, CmpOp op, const Value& literal);

/// Per-block column access for encoded predicate evaluation (late
/// materialization). Implemented by the scan layer over one block of a ROS
/// container (and, without an encoded path, by EvalBlockBatch over decoded
/// batches): a comparison leaf is evaluated directly on the encoded
/// representation when the encoding supports it (RLE: once per run; dict:
/// once per dictionary entry), otherwise the implementation decodes the
/// column (lazily, cached per block) and the leaf runs value-wise.
class EncodedBlockSource {
 public:
  virtual ~EncodedBlockSource() = default;

  /// Try to fill `sel` (sized to the block's row count by the caller) with
  /// the verdicts of `column[col] <op> literal` evaluated on the encoded
  /// block. Returns false when the column's encoding has no encoded-eval
  /// path (plain/delta) — the caller then falls back to DecodedColumn().
  virtual bool TryEvalCmpEncoded(size_t col, CmpOp op, const Value& literal,
                                 uint8_t* sel) = 0;

  /// Decoded values of `col` for the current block, in columnar batch
  /// layout; nullptr when the column is unavailable (treated like NULLs:
  /// fails every comparison).
  virtual const ColumnBatch* DecodedColumn(size_t col) = 0;
};

/// Boolean predicate tree over a projection's rows: comparisons against
/// constants composed with AND/OR. Supports row evaluation and min/max
/// range analysis ("could this predicate ever be true given these column
/// ranges?") used for file and block pruning.
class Predicate {
 public:
  enum class Kind { kTrue, kCmp, kAnd, kOr, kNot };

  /// Always-true predicate (scan everything).
  static PredicatePtr True();
  /// column[col_index] <op> literal.
  static PredicatePtr Cmp(size_t col_index, CmpOp op, Value literal);
  static PredicatePtr And(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Or(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Not(PredicatePtr a);

  Kind kind() const { return kind_; }
  size_t col_index() const { return col_; }
  CmpOp op() const { return op_; }
  const Value& literal() const { return literal_; }
  const PredicatePtr& left() const { return left_; }
  const PredicatePtr& right() const { return right_; }

  /// Evaluate on a full row (indexed by projection column position).
  /// NULL comparisons evaluate false (SQL semantics, no three-valued logic).
  /// The reference semantics the block evaluators below must reproduce.
  bool Eval(const Row& row) const;

  /// Encoding-aware block evaluation: fill `sel` (resized to `row_count`)
  /// so that sel[i] != 0 iff Eval over row i would return true. Each
  /// comparison leaf first asks `src` to evaluate directly on the column's
  /// encoded representation (one verdict per RLE run fanned across the
  /// run, one per dictionary entry translated through the code stream);
  /// only columns whose encoding lacks that path are decoded, and int64
  /// leaves over decoded columns run the vectorized compare kernel.
  /// AND/OR/NOT combine whole-block selection vectors bytewise.
  /// `kernel_calls` (optional) counts SIMD kernel invocations in
  /// decode-fallback leaves.
  void EvalBlockEncoded(EncodedBlockSource* src, size_t row_count,
                        SelectionVector* sel,
                        uint64_t* kernel_calls = nullptr) const;

  /// EvalBlockEncoded over already-decoded columnar batches. `columns` is
  /// indexed by projection column position; a nullptr or missing entry
  /// means the column was not materialized, which — like a NULL value —
  /// fails every comparison.
  void EvalBlockBatch(const std::vector<const ColumnBatch*>& columns,
                      size_t row_count, SelectionVector* sel,
                      uint64_t* kernel_calls = nullptr) const;

  /// Conservative test: false only if no row within `ranges` can satisfy
  /// the predicate. `ranges` is indexed by projection column position;
  /// invalid ranges never prune.
  bool CouldMatch(const std::vector<ValueRange>& ranges) const;

  /// Column positions referenced by this predicate.
  void CollectColumns(std::set<size_t>* cols) const;

  /// Selectivity guess for planning (crunch-scaling mode choice).
  double EstimatedSelectivity() const;

  std::string ToString() const;

 private:
  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  size_t col_ = 0;
  CmpOp op_ = CmpOp::kEq;
  Value literal_;
  PredicatePtr left_;
  PredicatePtr right_;
};

}  // namespace eon

#endif  // EON_COLUMNAR_EXPRESSION_H_
