#include "expr/expr_plan.h"

#include <algorithm>

#include "common/macros.h"

namespace bipie {

namespace {

// Wrapping int64 arithmetic: the bit pattern two's-complement hardware
// produces, without signed-overflow UB.
int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}

// --- kernels ------------------------------------------------------------
// Plain loops over `n` rows, n a multiple of 4; the compiler vectorizes
// them.

template <typename Fn>
void Map(int64_t* BIPIE_RESTRICT out, size_t n, Fn fn) {
  for (size_t i = 0; i < n; ++i) out[i] = fn(i);
}

}  // namespace

int ExprPlan::Intern(const Node& key) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind == key.kind && n.column == key.column &&
        n.constant == key.constant && n.lhs == key.lhs && n.rhs == key.rhs) {
      return static_cast<int>(i);
    }
  }
  nodes_.push_back(key);
  return static_cast<int>(nodes_.size() - 1);
}

int ExprPlan::Add(const Expr& expr) {
  // Post-order lowering: children intern first, so a node's key names
  // child ids and equal subtrees meet at equal keys.
  struct Lower {
    ExprPlan* plan;
    int operator()(const Expr& e) const {
      Node key;
      key.kind = e.kind();
      switch (e.kind()) {
        case ExprKind::kColumn:
          key.column = e.column_index();
          return plan->Intern(key);
        case ExprKind::kConstant:
          key.constant = e.constant();
          return plan->Intern(key);
        default:
          break;
      }
      key.lhs = (*this)(*e.lhs());
      key.rhs = (*this)(*e.rhs());
      const Node& l = plan->nodes_[key.lhs];
      const Node& r = plan->nodes_[key.rhs];
      if (l.kind == ExprKind::kConstant && r.kind == ExprKind::kConstant) {
        Node folded;
        folded.constant = e.kind() == ExprKind::kAdd
                              ? WrapAdd(l.constant, r.constant)
                          : e.kind() == ExprKind::kSub
                              ? WrapSub(l.constant, r.constant)
                              : WrapMul(l.constant, r.constant);
        return plan->Intern(folded);
      }
      return plan->Intern(key);
    }
  };
  const int id = Lower{this}(expr);
  nodes_[id].root = true;
  return id;
}

std::vector<uint64_t> ExprPlan::AffineCoefficients(
    const std::vector<int>& roots, const std::vector<AffineColumn>& columns,
    uint32_t tuples, int num_carriers) const {
  // Synthetic rows, `lanes` per code tuple: row c * lanes + j holds tuple
  // c's key values and every carrier at zero, except carrier j - 1 at
  // zero + step.
  const size_t lanes = 1 + static_cast<size_t>(num_carriers);
  const size_t rows = static_cast<size_t>(tuples) * lanes;
  Storage storage;
  storage.stride = (rows + 7) & ~size_t{7};
  std::vector<int64_t> slots(std::max<size_t>(num_slots_, 1) *
                             storage.stride);
  storage.base = slots.data();
  // Filled tuple by tuple without division: plans are built per segment
  // per query, so this runs on the query's critical path.
  for (size_t k = 0; k < columns_.size(); ++k) {
    const AffineColumn& col = columns[columns_[k]];
    int64_t* dst = column_values(storage, k);
    const int64_t stepped = WrapAdd(col.zero, static_cast<int64_t>(col.step));
    size_t value = 0;
    uint32_t run = 0;
    for (size_t c = 0; c < tuples; ++c, dst += lanes) {
      if (!col.values.empty()) {
        std::fill(dst, dst + lanes, col.values[value]);
        if (++run == col.stride) {
          run = 0;
          if (++value == col.values.size()) value = 0;
        }
      } else {
        std::fill(dst, dst + lanes, col.zero);
        if (col.carrier >= 0) dst[col.carrier + 1] = stepped;
      }
    }
  }
  Run(storage, rows);

  std::vector<uint64_t> out(roots.size() * rows);
  for (size_t i = 0; i < roots.size(); ++i) {
    const int64_t* v = values(storage, roots[i]);
    uint64_t* coef = out.data() + i * rows;
    for (size_t r = 0; r < rows; r += lanes) {
      const auto b = static_cast<uint64_t>(v[r]);
      coef[r] = b;
      for (size_t j = 1; j < lanes; ++j) {
        coef[r + j] = static_cast<uint64_t>(v[r + j]) - b;
      }
    }
  }
  return out;
}

bool ExprPlan::Fusable(int id) const {
  const Node& n = nodes_[id];
  if (n.root || n.uses != 1) return false;
  if (n.kind != ExprKind::kAdd && n.kind != ExprKind::kSub) return false;
  return nodes_[n.lhs].kind == ExprKind::kConstant ||
         nodes_[n.rhs].kind == ExprKind::kConstant;
}

void ExprPlan::LowerMul(Node& node) {
  const Node& l = nodes_[node.lhs];
  const Node& r = nodes_[node.rhs];
  if (l.kind == ExprKind::kConstant || r.kind == ExprKind::kConstant) {
    const bool const_lhs = l.kind == ExprKind::kConstant;
    node.a = const_lhs ? node.rhs : node.lhs;
    node.c = const_lhs ? l.constant : r.constant;
    node.kernel = Kernel::kMulC;
    return;
  }
  // a * (c ± x): keep the factor in registers. Either side may carry it.
  int factor = -1;
  if (Fusable(node.rhs)) {
    factor = node.rhs;
    node.a = node.lhs;
  } else if (Fusable(node.lhs)) {
    factor = node.lhs;
    node.a = node.rhs;
  }
  if (factor >= 0) {
    Node& f = nodes_[factor];
    const bool const_lhs = nodes_[f.lhs].kind == ExprKind::kConstant;
    node.b = const_lhs ? f.rhs : f.lhs;
    const int64_t k = const_lhs ? nodes_[f.lhs].constant
                                : nodes_[f.rhs].constant;
    if (f.kind == ExprKind::kSub && const_lhs) {
      node.c = k;  // a * (k - x)
      node.kernel = Kernel::kMulRSubC;
    } else {
      // a * (x + k), a * (k + x), a * (x - k) = a * (x + (-k)).
      node.c = f.kind == ExprKind::kSub ? WrapSub(0, k) : k;
      node.kernel = Kernel::kMulAddC;
    }
    f.kernel = Kernel::kFused;
    return;
  }
  node.a = node.lhs;
  node.b = node.rhs;
  node.kernel = Kernel::kMul;
}

void ExprPlan::Finalize() {
  // Uses, bottom-up (ids are in dependency order).
  for (Node& n : nodes_) {
    n.uses = n.root ? 1 : 0;
    n.kernel = Kernel::kConst;
    n.slot = -1;
  }
  for (const Node& n : nodes_) {
    if (n.kind == ExprKind::kColumn || n.kind == ExprKind::kConstant) continue;
    ++nodes_[n.lhs].uses;
    ++nodes_[n.rhs].uses;
  }

  // Kernels. Multiplies go first within each node's turn, so a factor they
  // absorb is marked kFused before slots are handed out below; a factor
  // always precedes its consumer, and nothing else reads it (uses == 1).
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.kind == ExprKind::kMul) LowerMul(n);
  }
  for (Node& n : nodes_) {
    if (n.kernel == Kernel::kFused || n.kind == ExprKind::kMul) continue;
    switch (n.kind) {
      case ExprKind::kColumn:
        n.kernel = Kernel::kLoad;
        break;
      case ExprKind::kConstant:
        n.kernel = n.root ? Kernel::kFill : Kernel::kConst;
        n.c = n.constant;
        break;
      case ExprKind::kAdd:
      case ExprKind::kSub: {
        const Node& l = nodes_[n.lhs];
        const Node& r = nodes_[n.rhs];
        if (r.kind == ExprKind::kConstant) {
          n.a = n.lhs;
          n.c = n.kind == ExprKind::kAdd ? r.constant : WrapSub(0, r.constant);
          n.kernel = Kernel::kAddC;
        } else if (l.kind == ExprKind::kConstant) {
          n.a = n.rhs;
          n.c = l.constant;
          n.kernel =
              n.kind == ExprKind::kAdd ? Kernel::kAddC : Kernel::kRSubC;
        } else {
          n.a = n.lhs;
          n.b = n.rhs;
          n.kernel = n.kind == ExprKind::kAdd ? Kernel::kAdd : Kernel::kSub;
        }
        break;
      }
      default:
        break;
    }
  }

  // Slots: columns first (the caller fills them by column index order).
  columns_.clear();
  num_slots_ = 0;
  for (Node& n : nodes_) {
    if (n.kernel != Kernel::kLoad) continue;
    n.slot = static_cast<int>(num_slots_++);
    columns_.push_back(n.column);
  }
  for (Node& n : nodes_) {
    if (n.kernel == Kernel::kLoad || n.kernel == Kernel::kConst ||
        n.kernel == Kernel::kFused) {
      continue;
    }
    n.slot = static_cast<int>(num_slots_++);
  }
}

void ExprPlan::Run(const Storage& storage, size_t rows) const {
  const size_t n = (rows + 3) & ~size_t{3};
  for (const Node& node : nodes_) {
    if (node.slot < 0 || node.kernel == Kernel::kLoad) continue;
    int64_t* out =
        storage.base + static_cast<size_t>(node.slot) * storage.stride;
    const int64_t* a = node.a >= 0 ? values(storage, node.a) : nullptr;
    const int64_t* b = node.b >= 0 ? values(storage, node.b) : nullptr;
    const int64_t c = node.c;
    switch (node.kernel) {
      case Kernel::kFill:
        std::fill(out, out + n, c);
        break;
      case Kernel::kAdd:
        Map(out, n, [&](size_t i) { return WrapAdd(a[i], b[i]); });
        break;
      case Kernel::kSub:
        Map(out, n, [&](size_t i) { return WrapSub(a[i], b[i]); });
        break;
      case Kernel::kAddC:
        Map(out, n, [&](size_t i) { return WrapAdd(a[i], c); });
        break;
      case Kernel::kRSubC:
        Map(out, n, [&](size_t i) { return WrapSub(c, a[i]); });
        break;
      case Kernel::kMul:
        Map(out, n, [&](size_t i) { return WrapMul(a[i], b[i]); });
        break;
      case Kernel::kMulC:
        Map(out, n, [&](size_t i) { return WrapMul(a[i], c); });
        break;
      case Kernel::kMulAddC:
        Map(out, n, [&](size_t i) { return WrapMul(a[i], WrapAdd(b[i], c)); });
        break;
      case Kernel::kMulRSubC:
        Map(out, n, [&](size_t i) { return WrapMul(a[i], WrapSub(c, b[i])); });
        break;
      case Kernel::kLoad:
      case Kernel::kConst:
      case Kernel::kFused:
        break;
    }
  }
}

}  // namespace bipie
