#include "columnar/agg.h"

#include "columnar/kernels.h"

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

}  // namespace eon
