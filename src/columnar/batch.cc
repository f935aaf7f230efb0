#include "columnar/batch.h"

#include "columnar/kernels.h"

namespace eon {

ColumnBatch ColumnBatch::FromValues(DataType type,
                                    const std::vector<Value>& values) {
  ColumnBatch b(type);
  b.Reserve(values.size());
  for (const Value& v : values) b.AppendValue(v);
  return b;
}

void ColumnBatch::Reset(DataType type) {
  type_ = type;
  size_ = 0;
  ints_.clear();
  dbls_.clear();
  strs_.clear();
  valid_.clear();
}

void ColumnBatch::Reserve(size_t n) {
  // Amortized: blockwise appends reserve block by block, and an exact
  // reserve per block would reallocate on every one.
  auto grow = [n](auto& v) {
    if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
  };
  switch (type_) {
    case DataType::kInt64:
      grow(ints_);
      break;
    case DataType::kDouble:
      grow(dbls_);
      break;
    case DataType::kString:
      grow(strs_);
      break;
  }
}

void ColumnBatch::MaterializeValidity() {
  if (!valid_.empty()) return;
  valid_.assign((size_ + 64) / 64, ~uint64_t{0});
  // Clear the bits past size_ so whole-word consumers see exact state.
  const size_t tail = size_ & 63;
  if (tail != 0) valid_.back() = (uint64_t{1} << tail) - 1;
}

void ColumnBatch::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt(v.int_value());
      break;
    case DataType::kDouble:
      AppendDouble(v.dbl_value());
      break;
    case DataType::kString:
      AppendString(v.str_value());
      break;
  }
}

void ColumnBatch::AppendInt(int64_t v) {
  ints_.push_back(v);
  ++size_;
  if (!valid_.empty()) {
    if (size_ > valid_.size() * 64) valid_.push_back(0);
    valid_[(size_ - 1) >> 6] |= uint64_t{1} << ((size_ - 1) & 63);
  }
}

void ColumnBatch::AppendDouble(double v) {
  dbls_.push_back(v);
  ++size_;
  if (!valid_.empty()) {
    if (size_ > valid_.size() * 64) valid_.push_back(0);
    valid_[(size_ - 1) >> 6] |= uint64_t{1} << ((size_ - 1) & 63);
  }
}

void ColumnBatch::AppendString(std::string v) {
  strs_.push_back(std::move(v));
  ++size_;
  if (!valid_.empty()) {
    if (size_ > valid_.size() * 64) valid_.push_back(0);
    valid_[(size_ - 1) >> 6] |= uint64_t{1} << ((size_ - 1) & 63);
  }
}

void ColumnBatch::AppendNull() {
  MaterializeValidity();
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      dbls_.push_back(0.0);
      break;
    case DataType::kString:
      strs_.emplace_back();
      break;
  }
  ++size_;
  if (size_ > valid_.size() * 64) valid_.push_back(0);
  valid_[(size_ - 1) >> 6] &= ~(uint64_t{1} << ((size_ - 1) & 63));
}

Value ColumnBatch::GetValue(size_t i) const {
  EON_CHECK(i < size_);
  if (IsNull(i)) return Value::Null(type_);
  switch (type_) {
    case DataType::kInt64:
      return Value::Int(ints_[i]);
    case DataType::kDouble:
      return Value::Dbl(dbls_[i]);
    case DataType::kString:
      return Value::Str(strs_[i]);
  }
  return Value::Null(type_);
}

uint64_t ColumnBatch::WireBytes() const {
  uint64_t bytes = size_;  // One null/type tag per row.
  if (type_ != DataType::kString) {
    size_t nulls = 0;
    if (!valid_.empty()) {
      for (size_t i = 0; i < size_; ++i) nulls += IsNull(i) ? 1 : 0;
    }
    return bytes + 8 * (size_ - nulls);
  }
  for (size_t i = 0; i < size_; ++i) {
    if (!IsNull(i)) bytes += strs_[i].size() + 4;
  }
  return bytes;
}

template <typename At>
void ColumnBatch::AppendRows(const ColumnBatch& src, size_t n, At at) {
  EON_CHECK(src.type_ == type_);
  const size_t base = size_;
  Reserve(base + n);
  switch (type_) {
    case DataType::kInt64:
      ints_.resize(base + n);
      for (size_t k = 0; k < n; ++k) ints_[base + k] = src.ints_[at(k)];
      break;
    case DataType::kDouble:
      dbls_.resize(base + n);
      for (size_t k = 0; k < n; ++k) dbls_[base + k] = src.dbls_[at(k)];
      break;
    case DataType::kString:
      for (size_t k = 0; k < n; ++k) strs_.push_back(src.strs_[at(k)]);
      break;
  }
  // Null rows already carry their zero/empty placeholder in src, so only
  // the bitmap needs work, and only when either side has nulls.
  if (src.valid_.empty() && valid_.empty()) {
    size_ = base + n;
    return;
  }
  MaterializeValidity();
  size_ = base + n;
  valid_.resize((size_ + 64) / 64, 0);
  for (size_t k = 0; k < n; ++k) {
    const size_t r = base + k;
    const uint64_t bit = uint64_t{1} << (r & 63);
    if (src.IsNull(at(k))) {
      valid_[r >> 6] &= ~bit;
    } else {
      valid_[r >> 6] |= bit;
    }
  }
}

void ColumnBatch::AppendRange(const ColumnBatch& src, size_t begin, size_t n) {
  EON_CHECK(begin + n <= src.size_);
  AppendRows(src, n, [begin](size_t k) { return begin + k; });
}

void ColumnBatch::AppendGather(const ColumnBatch& src, const uint32_t* idx,
                               size_t n) {
  AppendRows(src, n, [idx](size_t k) { return static_cast<size_t>(idx[k]); });
}

ColumnChunk ColumnChunk::Gather(const uint32_t* idx, size_t n) const {
  ColumnChunk out;
  out.columns.reserve(columns.size());
  for (const ColumnBatch& c : columns) {
    ColumnBatch& dst = out.columns.emplace_back(c.type());
    dst.AppendGather(c, idx, n);
  }
  return out;
}

uint64_t ColumnChunk::WireBytes() const {
  uint64_t bytes = 0;
  for (const ColumnBatch& c : columns) bytes += c.WireBytes();
  return bytes;
}

void AppendChunkRows(const ColumnChunk& chunk, std::vector<Row>* rows) {
  const size_t n = chunk.num_rows();
  rows->reserve(rows->size() + n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.reserve(chunk.columns.size());
    for (const ColumnBatch& c : chunk.columns) row.push_back(c.GetValue(i));
    rows->push_back(std::move(row));
  }
}

std::vector<Row> ChunkToRows(const ColumnChunk& chunk) {
  std::vector<Row> rows;
  AppendChunkRows(chunk, &rows);
  return rows;
}

ColumnChunk ChunkFromRows(const std::vector<Row>& rows,
                          const std::vector<DataType>& types) {
  ColumnChunk chunk;
  chunk.columns.reserve(types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    ColumnBatch& col = chunk.columns.emplace_back(types[c]);
    col.Reserve(rows.size());
    for (const Row& row : rows) col.AppendValue(row[c]);
  }
  return chunk;
}

BatchSelection BatchSelection::All(size_t row_count) {
  BatchSelection s;
  s.rep_ = Rep::kAll;
  s.row_count_ = row_count;
  s.count_ = row_count;
  return s;
}

BatchSelection BatchSelection::FromMask(const uint8_t* sel, size_t row_count) {
  BatchSelection s;
  s.row_count_ = row_count;
  s.count_ = simd::SelCount(sel, row_count);
  if (s.count_ == row_count) {
    s.rep_ = Rep::kAll;
    return s;
  }
  if (s.count_ * 4 < row_count) {
    s.rep_ = Rep::kIndices;
    s.indices_.resize(s.count_ + 1);  // +1: SelCompact's branchless store.
    s.indices_.resize(simd::SelCompact(sel, row_count, s.indices_.data()));
    return s;
  }
  s.rep_ = Rep::kMask;
  s.mask_.assign(sel, sel + row_count);
  return s;
}

ColumnBatch ConcatColumn(const std::vector<ColumnChunk>& chunks, size_t pos) {
  size_t rows = 0;
  for (const ColumnChunk& c : chunks) rows += c.num_rows();
  ColumnBatch out(chunks.front().columns[pos].type());
  out.Reserve(rows);
  for (const ColumnChunk& c : chunks) {
    out.AppendRange(c.columns[pos], 0, c.num_rows());
  }
  return out;
}

}  // namespace eon
