#include "expr/arithmetic.h"

#include <algorithm>
#include <limits>

#include "common/aligned_buffer.h"
#include "common/macros.h"

namespace bipie {

namespace {

bool FitsInt64(__int128 v) {
  return v >= std::numeric_limits<int64_t>::min() &&
         v <= std::numeric_limits<int64_t>::max();
}

}  // namespace

ExprPtr Expr::Column(int column_index) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->column_index_ = column_index;
  return e;
}

ExprPtr Expr::Constant(int64_t value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kConstant;
  e->constant_ = value;
  return e;
}

ExprPtr Expr::Add(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kAdd;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Sub(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kSub;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Mul(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kMul;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

void Expr::CollectColumns(std::vector<int>* out) const {
  switch (kind_) {
    case ExprKind::kColumn:
      if (std::find(out->begin(), out->end(), column_index_) == out->end()) {
        out->push_back(column_index_);
      }
      return;
    case ExprKind::kConstant:
      return;
    default:
      lhs_->CollectColumns(out);
      rhs_->CollectColumns(out);
      return;
  }
}

void Expr::Evaluate(const int64_t* const* columns, size_t n,
                    int64_t* out) const {
  switch (kind_) {
    case ExprKind::kColumn: {
      const int64_t* src = columns[column_index_];
      std::copy(src, src + n, out);
      return;
    }
    case ExprKind::kConstant: {
      std::fill(out, out + n, constant_);
      return;
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul: {
      // Operand resolution order: column leaf (zero copy), else recurse
      // into a per-level buffer.
      AlignedBuffer lhs_local;
      const int64_t* a;
      if (lhs_->kind_ == ExprKind::kColumn) {
        a = columns[lhs_->column_index_];
      } else {
        lhs_local.Resize(n * sizeof(int64_t));
        lhs_->Evaluate(columns, n, lhs_local.data_as<int64_t>());
        a = lhs_local.data_as<int64_t>();
      }
      // Fused forms: MemSQL's generated code compiles a whole expression
      // into one loop; mirror that for the ubiquitous a * (c ± col) shape
      // (TPC-H Q1's discount and tax factors) instead of materializing the
      // inner operand.
      if (kind_ == ExprKind::kMul &&
          (rhs_->kind_ == ExprKind::kAdd || rhs_->kind_ == ExprKind::kSub) &&
          rhs_->lhs_->kind_ == ExprKind::kConstant &&
          rhs_->rhs_->kind_ == ExprKind::kColumn) {
        const int64_t c = rhs_->lhs_->constant_;
        const int64_t* col = columns[rhs_->rhs_->column_index_];
        if (rhs_->kind_ == ExprKind::kSub) {
          for (size_t i = 0; i < n; ++i) out[i] = a[i] * (c - col[i]);
        } else {
          for (size_t i = 0; i < n; ++i) out[i] = a[i] * (c + col[i]);
        }
        return;
      }
      AlignedBuffer rhs_local;
      const int64_t* b = nullptr;
      int64_t b_const = 0;
      bool rhs_is_const = false;
      if (rhs_->kind_ == ExprKind::kColumn) {
        b = columns[rhs_->column_index_];
      } else if (rhs_->kind_ == ExprKind::kConstant) {
        rhs_is_const = true;
        b_const = rhs_->constant_;
      } else {
        rhs_local.Resize(n * sizeof(int64_t));
        rhs_->Evaluate(columns, n, rhs_local.data_as<int64_t>());
        b = rhs_local.data_as<int64_t>();
      }
      if (rhs_is_const) {
        switch (kind_) {
          case ExprKind::kAdd:
            for (size_t i = 0; i < n; ++i) out[i] = a[i] + b_const;
            return;
          case ExprKind::kSub:
            for (size_t i = 0; i < n; ++i) out[i] = a[i] - b_const;
            return;
          default:
            for (size_t i = 0; i < n; ++i) out[i] = a[i] * b_const;
            return;
        }
      }
      switch (kind_) {
        case ExprKind::kAdd:
          for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
          return;
        case ExprKind::kSub:
          for (size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
          return;
        default:
          for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
          return;
      }
    }
  }
}

Result<ValueBounds> Expr::EvalBounds(
    const std::vector<ValueBounds>& column_bounds) const {
  switch (kind_) {
    case ExprKind::kColumn:
      if (column_index_ < 0 ||
          static_cast<size_t>(column_index_) >= column_bounds.size()) {
        return Status::InvalidArgument("column index out of bounds");
      }
      return column_bounds[column_index_];
    case ExprKind::kConstant:
      return ValueBounds{constant_, constant_};
    default:
      break;
  }
  Result<ValueBounds> lhs = lhs_->EvalBounds(column_bounds);
  if (!lhs.ok()) return lhs.status();
  Result<ValueBounds> rhs = rhs_->EvalBounds(column_bounds);
  if (!rhs.ok()) return rhs.status();
  const __int128 al = lhs.value().min, ah = lhs.value().max;
  const __int128 bl = rhs.value().min, bh = rhs.value().max;
  __int128 lo, hi;
  switch (kind_) {
    case ExprKind::kAdd:
      lo = al + bl;
      hi = ah + bh;
      break;
    case ExprKind::kSub:
      lo = al - bh;
      hi = ah - bl;
      break;
    case ExprKind::kMul: {
      const __int128 candidates[4] = {al * bl, al * bh, ah * bl, ah * bh};
      lo = *std::min_element(candidates, candidates + 4);
      hi = *std::max_element(candidates, candidates + 4);
      break;
    }
    default:
      return Status::Internal("unreachable expr kind");
  }
  if (!FitsInt64(lo) || !FitsInt64(hi)) {
    return Status::OverflowRisk("expression may overflow int64");
  }
  return ValueBounds{static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

}  // namespace bipie
