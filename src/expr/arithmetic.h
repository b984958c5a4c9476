// Arithmetic expression trees over table columns.
//
// This layer stands in for MemSQL's LLVM-generated code: per §3 "generated
// functions always operate on decompressed column data". Expressions are
// evaluated over decoded int64 arrays, one batch at a time, producing
// decoded int64 outputs that feed the aggregation strategies.
//
// Two evaluators exist. The scan lowers a segment's aggregate inputs once,
// when it plans the segment, into an ExprPlan (expr/expr_plan.h):
// structurally shared subtrees, each column decoded once, fused
// multiplies. Expr::Evaluate below is the plain reference interpreter —
// one tree walk per call, no sharing — used by the oracles
// (ExecuteQueryHashAgg, ExecuteQueryNaive) and HybridTable, so they share
// no kernel with the plan they check.
//
// Expressions also carry interval arithmetic (EvalBounds) so the scan can
// prove, from segment metadata, that sums cannot overflow int64 — the §2.1
// overflow-check elision.
#ifndef BIPIE_EXPR_ARITHMETIC_H_
#define BIPIE_EXPR_ARITHMETIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace bipie {

enum class ExprKind { kColumn, kConstant, kAdd, kSub, kMul };

// Inclusive value interval, used for overflow proofs.
struct ValueBounds {
  int64_t min = 0;
  int64_t max = 0;
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// An immutable arithmetic expression tree over table columns.
class Expr {
 public:
  static ExprPtr Column(int column_index);
  static ExprPtr Constant(int64_t value);
  static ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Sub(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);

  ExprKind kind() const { return kind_; }
  int column_index() const { return column_index_; }
  int64_t constant() const { return constant_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  // All column indices referenced by this tree (deduplicated).
  void CollectColumns(std::vector<int>* out) const;

  // Reference interpreter: evaluates over a batch. columns[idx] must be a
  // decoded int64 array for every referenced column index.
  void Evaluate(const int64_t* const* columns, size_t n, int64_t* out) const;

  // Interval arithmetic: given per-column bounds, computes the result
  // bounds. Fails with OverflowRisk if any intermediate can exceed int64.
  Result<ValueBounds> EvalBounds(
      const std::vector<ValueBounds>& column_bounds) const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kConstant;
  int column_index_ = -1;
  int64_t constant_ = 0;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

}  // namespace bipie

#endif  // BIPIE_EXPR_ARITHMETIC_H_
