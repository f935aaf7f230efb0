#ifndef EON_COLUMNAR_BATCH_H_
#define EON_COLUMNAR_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "columnar/types.h"

namespace eon {

/// A decoded column block in columnar layout: one contiguous primitive
/// array (by type) plus a validity bitmap. This is the common currency of
/// the scan pipeline — chunk decoders fill it, predicate kernels compare
/// against it, and aggregation partials fold over it — so each kernel is
/// written once against dense arrays instead of per-`Value` loops.
///
/// Null rows keep a zero/empty placeholder in the typed array so positions
/// stay aligned with row indices; kernels mask them via the validity bitmap.
/// The bitmap is allocated lazily: a batch with no nulls carries no bitmap
/// at all (`validity_words()` returns nullptr = all rows valid).
class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(DataType type) : type_(type) {}

  static ColumnBatch FromValues(DataType type, const std::vector<Value>& values);

  void Reset(DataType type);
  /// Room for n rows; grows geometrically, so per-block calls stay
  /// amortized O(1) per row.
  void Reserve(size_t n);
  void AppendValue(const Value& v);
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  /// Appends rows [begin, begin + n) of `src` (same type), nulls kept.
  void AppendRange(const ColumnBatch& src, size_t begin, size_t n);
  /// Appends rows idx[0..n) of `src` (same type), in idx order.
  void AppendGather(const ColumnBatch& src, const uint32_t* idx, size_t n);

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return !valid_.empty(); }
  bool IsNull(size_t i) const {
    return !valid_.empty() && ((valid_[i >> 6] >> (i & 63)) & 1) == 0;
  }
  /// Materializes row i back into a Value (boundary to row-wise code).
  Value GetValue(size_t i) const;
  /// Sum over rows of the row's wire size as RowBytes counts it (a tag
  /// byte, plus 8 per fixed-width value or length + 4 per string).
  uint64_t WireBytes() const;

  const int64_t* ints() const { return ints_.data(); }
  const double* dbls() const { return dbls_.data(); }
  const std::string* strs() const { return strs_.data(); }
  /// Validity bitmap, LSB-first within 64-bit words (bit i of word i/64 set
  /// = row i non-null). nullptr when every row is valid.
  const uint64_t* validity_words() const {
    return valid_.empty() ? nullptr : valid_.data();
  }

 private:
  void MaterializeValidity();
  /// Shared tail of AppendRange/AppendGather: `at(k)` is the source row
  /// of the k-th appended row.
  template <typename At>
  void AppendRows(const ColumnBatch& src, size_t n, At at);

  DataType type_ = DataType::kInt64;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<std::string> strs_;
  std::vector<uint64_t> valid_;  // empty = all rows valid
};

/// A chunk: equal-length ColumnBatches, one per output column — the one
/// currency query operators hand each other (scan → join → aggregate or
/// gather). Rows are made from chunks only at the result boundary. A
/// chunk counts its rows by its columns, so a chunk with no columns is
/// empty: operators that need only a row count carry one column along.
struct ColumnChunk {
  std::vector<ColumnBatch> columns;

  size_t num_rows() const { return columns.empty() ? 0 : columns[0].size(); }
  /// Rows idx[0..n) of every column, in idx order.
  ColumnChunk Gather(const uint32_t* idx, size_t n) const;
  /// Sum of RowBytes over the chunk's rows.
  uint64_t WireBytes() const;
};

/// The chunk ↔ rows boundary, shared by every caller that still speaks
/// rows (results, the tuple mover's merge, DML pre-images, WOS memtable
/// rows, live-aggregate maintenance, system tables). Appends the chunk's
/// rows to `rows`.
void AppendChunkRows(const ColumnChunk& chunk, std::vector<Row>* rows);
std::vector<Row> ChunkToRows(const ColumnChunk& chunk);
/// Columnarizes rows whose column c has type types[c].
ColumnChunk ChunkFromRows(const std::vector<Row>& rows,
                          const std::vector<DataType>& types);

/// Column `pos` of every chunk (at least one), concatenated in order.
ColumnBatch ConcatColumn(const std::vector<ColumnChunk>& chunks, size_t pos);

/// A set of selected rows over a batch, stored either as a byte mask or as
/// an ascending index list — picked by density, since sparse selections
/// iterate much faster as indices while dense ones are cheaper as a mask.
class BatchSelection {
 public:
  enum class Rep : uint8_t { kAll, kMask, kIndices };

  static BatchSelection All(size_t row_count);
  /// Builds from a 0/1 byte mask, choosing the representation: all-selected
  /// collapses to kAll, density < 1/4 compacts to an index list, anything
  /// denser keeps the mask.
  static BatchSelection FromMask(const uint8_t* sel, size_t row_count);

  Rep rep() const { return rep_; }
  size_t row_count() const { return row_count_; }
  size_t count() const { return count_; }
  const std::vector<uint32_t>& indices() const { return indices_; }

  bool Selected(size_t i) const {
    switch (rep_) {
      case Rep::kAll:
        return true;
      case Rep::kMask:
        return mask_[i] != 0;
      case Rep::kIndices:
        return std::binary_search(indices_.begin(), indices_.end(),
                                  static_cast<uint32_t>(i));
    }
    return false;
  }

  /// Visits selected row indices in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    switch (rep_) {
      case Rep::kAll:
        for (size_t i = 0; i < row_count_; ++i) fn(i);
        return;
      case Rep::kMask:
        for (size_t i = 0; i < row_count_; ++i) {
          if (mask_[i]) fn(i);
        }
        return;
      case Rep::kIndices:
        for (uint32_t i : indices_) fn(static_cast<size_t>(i));
        return;
    }
  }

 private:
  Rep rep_ = Rep::kAll;
  size_t row_count_ = 0;
  size_t count_ = 0;
  std::vector<uint8_t> mask_;
  std::vector<uint32_t> indices_;
};

}  // namespace eon

#endif  // EON_COLUMNAR_BATCH_H_
