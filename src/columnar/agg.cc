#include "columnar/agg.h"

#include <algorithm>
#include <map>

#include "columnar/kernels.h"
#include "columnar/key_table.h"

namespace eon {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kSum: return "sum";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
    case AggFn::kAvg: return "avg";
    case AggFn::kCountDistinct: return "count_distinct";
  }
  return "?";
}

void AggState::Accumulate(AggFn fn, const Value& v) {
  switch (fn) {
    case AggFn::kCount:
      count++;
      return;
    case AggFn::kSum:
    case AggFn::kAvg:
      if (v.is_null()) return;
      count++;
      if (v.type() == DataType::kInt64) {
        sum_int += v.int_value();
      } else {
        sum_is_int = false;
      }
      sum += v.AsDouble();
      return;
    case AggFn::kMin:
      if (v.is_null()) return;
      if (min.is_null() || v.Compare(min) < 0) min = v;
      return;
    case AggFn::kMax:
      if (v.is_null()) return;
      if (max.is_null() || v.Compare(max) > 0) max = v;
      return;
    case AggFn::kCountDistinct:
      if (!v.is_null()) distinct.insert(v);
      return;
  }
}

void AggState::Fold(AggFn fn, const ColumnBatch& batch, const uint32_t* idx,
                    size_t nidx, uint64_t* kernel_calls) {
  if (nidx == 0) return;
  if (fn == AggFn::kCount) {
    // COUNT over a column counts every row, nulls included.
    count += static_cast<int64_t>(nidx);
    return;
  }
  if (batch.type() == DataType::kInt64 &&
      (fn == AggFn::kSum || fn == AggFn::kAvg || fn == AggFn::kMin ||
       fn == AggFn::kMax)) {
    const simd::Int64Fold f =
        idx == nullptr
            ? simd::FoldInt64(batch.ints(), nidx, batch.validity_words(),
                              nullptr)
            : simd::FoldInt64Indexed(batch.ints(), batch.validity_words(), idx,
                                     nidx);
    if (kernel_calls != nullptr) ++*kernel_calls;
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kAvg: {
        count += static_cast<int64_t>(f.count);
        const int64_t block_sum = static_cast<int64_t>(f.sum);
        sum_int += block_sum;
        // The per-value reference adds each int through AsDouble(); the
        // block sum is identical as long as partials stay exact in double
        // (|sum| < 2^53), which holds for the integer domains we store.
        sum += static_cast<double>(block_sum);
        return;
      }
      case AggFn::kMin:
        if (f.count > 0) {
          const Value cand = Value::Int(f.min);
          if (min.is_null() || cand.Compare(min) < 0) min = cand;
        }
        return;
      case AggFn::kMax:
        if (f.count > 0) {
          const Value cand = Value::Int(f.max);
          if (max.is_null() || cand.Compare(max) > 0) max = cand;
        }
        return;
      default:
        return;
    }
  }
  if (batch.type() == DataType::kDouble &&
      (fn == AggFn::kSum || fn == AggFn::kAvg || fn == AggFn::kMin ||
       fn == AggFn::kMax)) {
    // Doubles are order-sensitive in IEEE arithmetic: one addition or
    // comparison per value in ascending row order, exactly as Accumulate
    // would do it, without building a Value per row.
    const double* d = batch.dbls();
    const bool summing = fn == AggFn::kSum || fn == AggFn::kAvg;
    Value& extreme = fn == AggFn::kMin ? min : max;
    bool have = !extreme.is_null();
    double best = have ? extreme.dbl_value() : 0.0;
    bool moved = false;
    for (size_t i = 0; i < nidx; ++i) {
      const size_t r = idx == nullptr ? i : idx[i];
      if (batch.IsNull(r)) continue;
      if (summing) {
        count++;
        sum_is_int = false;
        sum += d[r];
      } else if (!have || (fn == AggFn::kMin ? d[r] < best : d[r] > best)) {
        best = d[r];
        have = moved = true;
      }
    }
    if (moved) extreme = Value::Dbl(best);
    return;
  }
  // Strings and COUNT DISTINCT accumulate per value in ascending row
  // order.
  for (size_t i = 0; i < nidx; ++i) {
    const size_t r = idx == nullptr ? i : idx[i];
    Accumulate(fn, batch.GetValue(r));
  }
}

void AggState::Merge(const AggState& o) {
  count += o.count;
  sum += o.sum;
  sum_int += o.sum_int;
  sum_is_int = sum_is_int && o.sum_is_int;
  if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
    min = o.min;
  }
  if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
    max = o.max;
  }
  distinct.insert(o.distinct.begin(), o.distinct.end());
}

Value AggState::Finalize(AggFn fn, DataType input_type) const {
  switch (fn) {
    case AggFn::kCount:
      return Value::Int(count);
    case AggFn::kSum:
      if (count == 0) return Value::Null(input_type);
      return sum_is_int && input_type == DataType::kInt64
                 ? Value::Int(sum_int)
                 : Value::Dbl(sum);
    case AggFn::kAvg:
      return count == 0 ? Value::Null(DataType::kDouble)
                        : Value::Dbl(sum / static_cast<double>(count));
    case AggFn::kMin:
      return min.is_null() ? Value::Null(input_type) : min;
    case AggFn::kMax:
      return max.is_null() ? Value::Null(input_type) : max;
    case AggFn::kCountDistinct:
      return Value::Int(static_cast<int64_t>(distinct.size()));
  }
  return Value::Null(input_type);
}

uint64_t AggState::TransferBytes() const {
  uint64_t bytes = 32;
  for (const Value& v : distinct) {
    bytes += v.type() == DataType::kString ? v.str_value().size() + 4 : 9;
  }
  return bytes;
}

uint64_t GroupStates::StateBytes() const {
  uint64_t bytes = 0;
  for (const AggState& s : states) bytes += s.TransferBytes();
  return bytes;
}

void FoldChunksIntoGroups(const std::vector<ColumnChunk>& chunks,
                          const std::vector<size_t>& group_pos,
                          const std::vector<AggColumn>& aggs,
                          GroupStates* out, uint64_t* kernel_calls) {
  size_t rows = 0;
  for (const ColumnChunk& c : chunks) rows += c.num_rows();
  if (rows == 0) return;
  // Each column the fold reads is one batch over all rows: the chunk's
  // own batch when there is one chunk, a concatenation otherwise.
  std::map<size_t, ColumnBatch> concatenated;
  auto column = [&](size_t pos) -> const ColumnBatch& {
    if (chunks.size() == 1) return chunks[0].columns[pos];
    auto it = concatenated.find(pos);
    if (it == concatenated.end()) {
      it = concatenated.emplace(pos, ConcatColumn(chunks, pos)).first;
    }
    return it->second;
  };
  std::vector<const ColumnBatch*> inputs(aggs.size(), nullptr);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].column != SIZE_MAX) inputs[a] = &column(aggs[a].column);
  }

  auto fold_group = [&](AggState* states, const uint32_t* idx, size_t nidx) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (inputs[a] == nullptr) {
        states[a].FoldCountOnly(nidx);
      } else {
        states[a].Fold(aggs[a].fn, *inputs[a], idx, nidx, kernel_calls);
      }
    }
  };

  if (group_pos.empty()) {
    out->num_groups = 1;
    out->states.resize(aggs.size());
    fold_group(out->states.data(), nullptr, rows);
    return;
  }
  std::vector<const ColumnBatch*> keys;
  for (size_t p : group_pos) keys.push_back(&column(p));
  KeyTable table(keys);
  const std::vector<uint64_t> hashes = KeyTable::HashRows(keys, rows);
  std::vector<uint32_t> group_of(rows);
  for (size_t r = 0; r < rows; ++r) group_of[r] = table.Insert(r, hashes[r]);
  // Counting sort by group: each group's row list comes out ascending.
  const size_t num_groups = table.size();
  std::vector<uint32_t> begin(num_groups + 1, 0);
  for (uint32_t g : group_of) begin[g + 1]++;
  for (size_t g = 0; g < num_groups; ++g) begin[g + 1] += begin[g];
  std::vector<uint32_t> order(rows);
  std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
  for (size_t r = 0; r < rows; ++r) {
    order[fill[group_of[r]]++] = static_cast<uint32_t>(r);
  }
  out->num_groups = num_groups;
  out->states.resize(num_groups * aggs.size());
  std::vector<uint32_t> first_rows(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    first_rows[g] = static_cast<uint32_t>(table.first_row(g));
    fold_group(&out->states[g * aggs.size()], order.data() + begin[g],
               begin[g + 1] - begin[g]);
  }
  for (const ColumnBatch* k : keys) {
    out->keys.columns.emplace_back(k->type())
        .AppendGather(*k, first_rows.data(), num_groups);
  }
}

GroupStates MergeGroupStates(std::vector<GroupStates> parts,
                             size_t num_aggs) {
  if (parts.size() == 1) return std::move(parts[0]);
  GroupStates out;
  // Every part's key rows go into one chunk (a part with no groups may
  // carry no key columns), and a KeyTable over it maps each to its group.
  ColumnChunk all_keys;
  size_t total = 0;
  for (const GroupStates& p : parts) {
    if (p.num_groups == 0) continue;
    if (total == 0) {
      for (const ColumnBatch& c : p.keys.columns) {
        all_keys.columns.emplace_back(c.type());
      }
    }
    for (size_t k = 0; k < all_keys.columns.size(); ++k) {
      all_keys.columns[k].AppendRange(p.keys.columns[k], 0, p.num_groups);
    }
    total += p.num_groups;
  }
  std::vector<const ColumnBatch*> key_cols;
  for (const ColumnBatch& c : all_keys.columns) key_cols.push_back(&c);
  KeyTable table(key_cols, total);
  const std::vector<uint64_t> hashes = KeyTable::HashRows(key_cols, total);
  size_t row = 0;
  for (GroupStates& p : parts) {
    for (size_t g = 0; g < p.num_groups; ++g, ++row) {
      const uint32_t id = table.Insert(row, hashes[row]);
      AggState* states = &p.states[g * num_aggs];
      if (id * num_aggs == out.states.size()) {
        for (size_t a = 0; a < num_aggs; ++a) {
          out.states.push_back(std::move(states[a]));
        }
      } else {
        for (size_t a = 0; a < num_aggs; ++a) {
          out.states[id * num_aggs + a].Merge(states[a]);
        }
      }
    }
  }
  out.num_groups = table.size();
  std::vector<uint32_t> first_rows(out.num_groups);
  for (uint32_t g = 0; g < out.num_groups; ++g) {
    first_rows[g] = static_cast<uint32_t>(table.first_row(g));
  }
  for (const ColumnBatch& c : all_keys.columns) {
    out.keys.columns.emplace_back(c.type())
        .AppendGather(c, first_rows.data(), out.num_groups);
  }
  return out;
}

namespace {

/// Three-way compare of rows i and j of one batch, as Value::Compare
/// orders their values (NULL first).
int CompareCells(const ColumnBatch& b, size_t i, size_t j) {
  const bool ni = b.IsNull(i);
  const bool nj = b.IsNull(j);
  if (ni || nj) return ni == nj ? 0 : (ni ? -1 : 1);
  switch (b.type()) {
    case DataType::kInt64:
      return b.ints()[i] < b.ints()[j] ? -1 : (b.ints()[i] > b.ints()[j]);
    case DataType::kDouble:
      return b.dbls()[i] < b.dbls()[j] ? -1 : (b.dbls()[i] > b.dbls()[j]);
    case DataType::kString:
      return b.strs()[i] < b.strs()[j] ? -1 : (b.strs()[i] > b.strs()[j]);
  }
  return 0;
}

}  // namespace

std::vector<Row> FinalizeSortedGroups(
    const GroupStates& groups, const std::vector<AggColumn>& aggs,
    const std::vector<DataType>& input_types) {
  const size_t num_aggs = aggs.size();
  std::vector<uint32_t> sorted(groups.num_groups);
  for (uint32_t g = 0; g < groups.num_groups; ++g) sorted[g] = g;
  std::sort(sorted.begin(), sorted.end(), [&](uint32_t x, uint32_t y) {
    for (const ColumnBatch& c : groups.keys.columns) {
      const int cmp = CompareCells(c, x, y);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  std::vector<Row> rows;
  rows.reserve(groups.num_groups);
  for (uint32_t g : sorted) {
    Row r;
    r.reserve(groups.keys.columns.size() + num_aggs);
    for (const ColumnBatch& c : groups.keys.columns) r.push_back(c.GetValue(g));
    for (size_t a = 0; a < num_aggs; ++a) {
      r.push_back(groups.states[g * num_aggs + a].Finalize(aggs[a].fn,
                                                           input_types[a]));
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace eon
