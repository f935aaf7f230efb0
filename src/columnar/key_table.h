#ifndef EON_COLUMNAR_KEY_TABLE_H_
#define EON_COLUMNAR_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "columnar/batch.h"

namespace eon {

/// Open-addressing hash table over the rows of one or more key columns:
/// each distinct key gets a dense id, in first-insertion order. The hash
/// join builds one on the right key column and probes it with the left;
/// the group-by builds one on its grouping columns. Keys are compared
/// value-wise, as Value::Compare does for non-NaN values: NULL equals
/// NULL, -0.0 equals 0.0, strings compare bytewise. (The join skips NULL
/// keys itself: in SQL a NULL key never matches.)
class KeyTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// `keys` are the build side's key columns, equal in length, and must
  /// outlive the table. `expected` sizes the first allocation.
  explicit KeyTable(std::vector<const ColumnBatch*> keys, size_t expected = 0);

  /// Hashes of rows [0, n) of `cols`, computed column by column (one type
  /// dispatch per column, not per row). Build and probe sides hash alike.
  static std::vector<uint64_t> HashRows(
      const std::vector<const ColumnBatch*>& cols, size_t n);

  /// The id of build row r's key, inserted when new; `hash` is the row's
  /// entry of HashRows over the build keys.
  uint32_t Insert(size_t r, uint64_t hash);
  /// The id of row r of `probe` (columns typed like the build keys, `hash`
  /// from HashRows over them), or kNone when the build side lacks the key.
  uint32_t Find(const std::vector<const ColumnBatch*>& probe, size_t r,
                uint64_t hash) const;

  /// Distinct keys inserted so far.
  size_t size() const { return first_rows_.size(); }
  /// The build row that inserted key `id` first.
  size_t first_row(uint32_t id) const { return first_rows_[id]; }

 private:
  /// Row r of `cols` equals build row b.
  bool Equal(const std::vector<const ColumnBatch*>& cols, size_t r,
             size_t b) const;
  void Rehash(size_t capacity);

  std::vector<const ColumnBatch*> keys_;
  std::vector<uint32_t> slots_;  ///< Key id + 1 per slot; 0 = empty.
  std::vector<uint64_t> slot_hashes_;
  std::vector<uint32_t> first_rows_;
  size_t mask_ = 0;
};

}  // namespace eon

#endif  // EON_COLUMNAR_KEY_TABLE_H_
