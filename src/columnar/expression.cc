#include "columnar/expression.h"

#include <algorithm>

#include "columnar/kernels.h"
#include "common/logging.h"

namespace eon {

namespace {

inline bool CmpHolds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

/// One comparison over a columnar batch. The batch is homogeneously typed
/// (it is a schema column), so the type dispatch is hoisted out of the row
/// loop. int64 columns go through the vectorized compare kernel (validity
/// handled by the bitmap); double and string columns run typed scalar
/// loops. The EON_CHECK on batch type mirrors the typed-accessor CHECK
/// Value::Compare does on the row path.
void EvalCmpBatchValues(const ColumnBatch& b, CmpOp op, const Value& lit,
                        size_t row_count, uint8_t* sel,
                        uint64_t* kernel_calls) {
  switch (lit.type()) {
    case DataType::kInt64: {
      EON_CHECK(b.type() == DataType::kInt64);
      simd::CompareInt64(b.ints(), row_count, op, lit.int_value(),
                         b.validity_words(), sel);
      if (kernel_calls != nullptr) ++*kernel_calls;
      return;
    }
    case DataType::kDouble: {
      EON_CHECK(b.type() == DataType::kDouble);
      const double x = lit.dbl_value();
      const double* v = b.dbls();
      for (size_t i = 0; i < row_count; ++i) {
        if (b.IsNull(i)) {
          sel[i] = 0;
          continue;
        }
        const double y = v[i];
        sel[i] = CmpHolds(op, y < x ? -1 : (y > x ? 1 : 0));
      }
      return;
    }
    case DataType::kString: {
      EON_CHECK(b.type() == DataType::kString);
      const std::string& x = lit.str_value();
      const std::string* v = b.strs();
      for (size_t i = 0; i < row_count; ++i) {
        if (b.IsNull(i)) {
          sel[i] = 0;
          continue;
        }
        const int c = v[i].compare(x);
        sel[i] = CmpHolds(op, c < 0 ? -1 : (c > 0 ? 1 : 0));
      }
      return;
    }
  }
  std::fill(sel, sel + row_count, uint8_t{0});
}

/// The block predicate recursion: a kCmp node is answered by the
/// EncodedBlockSource when the column's encoding supports it, decoding
/// only as a fallback; AND/OR/NOT combine vectorized selection vectors.
void EvalBlockEncodedInto(const Predicate& p, EncodedBlockSource* src,
                          size_t row_count, uint8_t* sel,
                          uint64_t* kernel_calls) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      std::fill(sel, sel + row_count, uint8_t{1});
      return;
    case Predicate::Kind::kCmp: {
      const Value& lit = p.literal();
      if (lit.is_null()) {
        std::fill(sel, sel + row_count, uint8_t{0});
        return;
      }
      if (src->TryEvalCmpEncoded(p.col_index(), p.op(), lit, sel)) return;
      const ColumnBatch* decoded = src->DecodedColumn(p.col_index());
      if (decoded == nullptr) {
        std::fill(sel, sel + row_count, uint8_t{0});
        return;
      }
      EvalCmpBatchValues(*decoded, p.op(), lit, row_count, sel, kernel_calls);
      return;
    }
    case Predicate::Kind::kAnd: {
      EvalBlockEncodedInto(*p.left(), src, row_count, sel, kernel_calls);
      SelectionVector tmp(row_count);
      EvalBlockEncodedInto(*p.right(), src, row_count, tmp.data(),
                           kernel_calls);
      simd::SelAnd(sel, tmp.data(), row_count);
      return;
    }
    case Predicate::Kind::kOr: {
      EvalBlockEncodedInto(*p.left(), src, row_count, sel, kernel_calls);
      SelectionVector tmp(row_count);
      EvalBlockEncodedInto(*p.right(), src, row_count, tmp.data(),
                           kernel_calls);
      simd::SelOr(sel, tmp.data(), row_count);
      return;
    }
    case Predicate::Kind::kNot:
      EvalBlockEncodedInto(*p.left(), src, row_count, sel, kernel_calls);
      simd::SelNot(sel, row_count);
      return;
  }
  std::fill(sel, sel + row_count, uint8_t{0});
}

/// EncodedBlockSource over already-decoded batches: no encoded shortcut,
/// every comparison leaf reads its column's batch.
class BatchBlockSource : public EncodedBlockSource {
 public:
  explicit BatchBlockSource(const std::vector<const ColumnBatch*>& columns)
      : columns_(columns) {}

  bool TryEvalCmpEncoded(size_t, CmpOp, const Value&, uint8_t*) override {
    return false;
  }

  const ColumnBatch* DecodedColumn(size_t col) override {
    return col < columns_.size() ? columns_[col] : nullptr;
  }

 private:
  const std::vector<const ColumnBatch*>& columns_;
};

}  // namespace

bool CmpMatches(const Value& v, CmpOp op, const Value& literal) {
  if (v.is_null() || literal.is_null()) return false;
  return CmpHolds(op, v.Compare(literal));
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

PredicatePtr Predicate::True() {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kTrue;
  return p;
}

PredicatePtr Predicate::Cmp(size_t col_index, CmpOp op, Value literal) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kCmp;
  p->col_ = col_index;
  p->op_ = op;
  p->literal_ = std::move(literal);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr a, PredicatePtr b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  p->left_ = std::move(a);
  p->right_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr a, PredicatePtr b) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  p->left_ = std::move(a);
  p->right_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr a) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->left_ = std::move(a);
  return p;
}

bool Predicate::Eval(const Row& row) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCmp:
      return col_ < row.size() && CmpMatches(row[col_], op_, literal_);
    case Kind::kAnd:
      return left_->Eval(row) && right_->Eval(row);
    case Kind::kOr:
      return left_->Eval(row) || right_->Eval(row);
    case Kind::kNot:
      return !left_->Eval(row);
  }
  return false;
}

void Predicate::EvalBlockEncoded(EncodedBlockSource* src, size_t row_count,
                                 SelectionVector* sel,
                                 uint64_t* kernel_calls) const {
  sel->resize(row_count);
  if (row_count == 0) return;
  EvalBlockEncodedInto(*this, src, row_count, sel->data(), kernel_calls);
}

void Predicate::EvalBlockBatch(const std::vector<const ColumnBatch*>& columns,
                               size_t row_count, SelectionVector* sel,
                               uint64_t* kernel_calls) const {
  BatchBlockSource src(columns);
  EvalBlockEncoded(&src, row_count, sel, kernel_calls);
}

bool Predicate::CouldMatch(const std::vector<ValueRange>& ranges) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCmp: {
      if (col_ >= ranges.size()) return true;
      const ValueRange& r = ranges[col_];
      if (!r.valid || literal_.is_null()) return true;
      // All range bounds are non-null by construction (null rows tracked by
      // has_null and never satisfy a comparison anyway).
      int cmin = r.min.Compare(literal_);
      int cmax = r.max.Compare(literal_);
      switch (op_) {
        case CmpOp::kEq: return cmin <= 0 && cmax >= 0;
        case CmpOp::kNe: return !(cmin == 0 && cmax == 0);
        case CmpOp::kLt: return cmin < 0;
        case CmpOp::kLe: return cmin <= 0;
        case CmpOp::kGt: return cmax > 0;
        case CmpOp::kGe: return cmax >= 0;
      }
      return true;
    }
    case Kind::kAnd:
      return left_->CouldMatch(ranges) && right_->CouldMatch(ranges);
    case Kind::kOr:
      return left_->CouldMatch(ranges) || right_->CouldMatch(ranges);
    case Kind::kNot:
      // NOT cannot be range-refuted without interval complement logic;
      // stay conservative.
      return true;
  }
  return true;
}

void Predicate::CollectColumns(std::set<size_t>* cols) const {
  switch (kind_) {
    case Kind::kTrue:
      return;
    case Kind::kCmp:
      cols->insert(col_);
      return;
    case Kind::kAnd:
    case Kind::kOr:
      left_->CollectColumns(cols);
      right_->CollectColumns(cols);
      return;
    case Kind::kNot:
      left_->CollectColumns(cols);
      return;
  }
}

double Predicate::EstimatedSelectivity() const {
  switch (kind_) {
    case Kind::kTrue:
      return 1.0;
    case Kind::kCmp:
      switch (op_) {
        case CmpOp::kEq: return 0.05;
        case CmpOp::kNe: return 0.95;
        default: return 0.3;
      }
    case Kind::kAnd:
      return left_->EstimatedSelectivity() * right_->EstimatedSelectivity();
    case Kind::kOr: {
      double a = left_->EstimatedSelectivity();
      double b = right_->EstimatedSelectivity();
      return a + b - a * b;
    }
    case Kind::kNot:
      return 1.0 - left_->EstimatedSelectivity();
  }
  return 1.0;
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCmp:
      return "col" + std::to_string(col_) + " " + CmpOpName(op_) + " " +
             literal_.ToString();
    case Kind::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + left_->ToString() + ")";
  }
  return "?";
}

}  // namespace eon
