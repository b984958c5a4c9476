// Per-segment evaluation plan for the aggregate inputs, built once when
// the segment is planned (core/segment_plan.h).
//
// The scan lowers every aggregate input that needs logical int64 values —
// expression sums, decoded columns, raw 8-byte sums — into one plan: a list
// of distinct nodes in dependency order, deduplicated by structure (kind,
// column, constant, child ids). A subtree several aggregates share is
// therefore computed once per batch however the spec was built: by hand
// with shared pointers, or by the SQL parser with a fresh node per
// occurrence (TPC-H Q1's charge embeds disc_price either way).
//
// Per batch, the caller fills one slot per referenced column (densely,
// gathered or compacted — the plan does not care), then Run evaluates every
// computed node once, each with a kernel chosen at Finalize:
//
//   * a * (c ± x) fuses into one loop instead of materializing the factor
//     (Q1's discount and tax factors);
//   * a constant operand is an immediate, not a filled slot;
//   * constant-only subtrees fold at Add time.
//
// Kernels compute modulo 2^64, which is what the reference interpreter
// (Expr::Evaluate) produces on two's-complement hardware; whether a result
// can wrap at all is the scan's overflow proof to decide, not the plan's.
#ifndef BIPIE_EXPR_EXPR_PLAN_H_
#define BIPIE_EXPR_EXPR_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "expr/arithmetic.h"

namespace bipie {

class ExprPlan {
 public:
  // How a node is evaluated. a/b name operand nodes, c the immediate.
  enum class Kernel : uint8_t {
    kLoad,       // column: slot filled by the caller
    kConst,      // folded into its consumers (no slot)
    kFused,      // the (c ± x) factor of a fused multiply (no slot)
    kFill,       // constant root: c
    kAdd,        // a + b
    kSub,        // a - b
    kAddC,       // a + c (x - k lowers to x + (-k))
    kRSubC,      // c - a
    kMul,        // a * b
    kMulC,       // a * c
    kMulAddC,    // a * (b + c)
    kMulRSubC,   // a * (c - b)
  };

  // Adds `expr` and returns the id of its root node. Structurally equal
  // subtrees resolve to the same node. Must precede Finalize.
  int Add(const Expr& expr);

  // Chooses every node's kernel and assigns slots: column slots first, in
  // columns() order, then computed nodes.
  void Finalize();

  size_t num_nodes() const { return nodes_.size(); }
  // Slots the storage must hold: one per column, one per computed node.
  size_t num_slots() const { return num_slots_; }
  // Table column index of each column slot.
  const std::vector<int>& columns() const { return columns_; }
  Kernel kernel(int node) const { return nodes_[node].kernel; }

  // How a column varies over the synthetic rows of AffineCoefficients: a
  // key column takes values[tuple / stride % values.size()]; a carrier
  // (values empty) takes zero, or zero + step in its own lane.
  struct AffineColumn {
    std::vector<int64_t> values;
    uint32_t stride = 1;
    int carrier = -1;
    int64_t zero = 0;
    uint64_t step = 1;
  };
  // Coefficient tables of `roots` (code-keyed aggregation, DESIGN.md §20),
  // each of Degree <= 1 in the carriers. `columns` is indexed by table
  // column and covers every plan column; the carriers number
  // num_carriers. For root r, code tuple c and lane j the result holds, at
  // [(r * tuples + c) * (1 + num_carriers) + j]:
  //   j = 0: B(c), the root with every carrier at zero;
  //   j >= 1: A_j(c), the root with carrier j - 1 at zero + step, minus B.
  // All modulo 2^64, where the root's value at carrier offsets o is exactly
  // B(c) + sum_j A_j(c) * o_j for every tuple and offset vector.
  // Requires Finalize.
  std::vector<uint64_t> AffineCoefficients(
      const std::vector<int>& roots, const std::vector<AffineColumn>& columns,
      uint32_t tuples, int num_carriers) const;

  // One batch's storage, owned by the caller so that one finalized plan
  // serves many threads: num_slots() arrays of `stride` int64 each, stride
  // a multiple of 4 and >= the row count Run is given.
  struct Storage {
    int64_t* base = nullptr;
    size_t stride = 0;
  };
  // The array of column slot k (k < columns().size()).
  static int64_t* column_values(const Storage& storage, size_t k) {
    return storage.base + k * storage.stride;
  }
  // Evaluates every computed node over rows [0, n). Rows up to the next
  // multiple of 4 are computed too (slots have room; the extra lanes are
  // ignored).
  void Run(const Storage& storage, size_t n) const;
  // The values of node `id` (a root passed to Add), valid after Run.
  const int64_t* values(const Storage& storage, int id) const {
    return storage.base +
           static_cast<size_t>(nodes_[id].slot) * storage.stride;
  }

 private:
  struct Node {
    // Structure (the deduplication key).
    ExprKind kind = ExprKind::kConstant;
    int column = -1;
    int64_t constant = 0;
    int lhs = -1;
    int rhs = -1;
    // Lowering.
    bool root = false;
    int uses = 0;
    Kernel kernel = Kernel::kConst;
    int a = -1;
    int b = -1;
    int64_t c = 0;
    int slot = -1;
  };

  int Intern(const Node& key);
  // A (c ± x) node Mul can absorb: one constant side, used only there.
  bool Fusable(int id) const;
  void LowerMul(Node& node);

  std::vector<Node> nodes_;
  std::vector<int> columns_;
  size_t num_slots_ = 0;
};

}  // namespace bipie

#endif  // BIPIE_EXPR_EXPR_PLAN_H_
