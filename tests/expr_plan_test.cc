#include "expr/expr_plan.h"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <limits>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"
#include "core/segment_plan.h"

namespace bipie {
namespace {

constexpr int64_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kI32Max = std::numeric_limits<int32_t>::max();

// A plan over explicit column arrays, evaluated the way the scan does:
// column slots filled, then Run.
struct PlanRunner {
  ExprPlan plan;
  AlignedBuffer storage;

  std::vector<const int64_t*> Run(const std::vector<int>& roots,
                                  const std::vector<std::vector<int64_t>>& cols,
                                  size_t n) {
    const size_t stride = (n + 7) & ~size_t{7};
    storage.Resize(plan.num_slots() * stride * sizeof(int64_t));
    const ExprPlan::Storage slots{storage.data_as<int64_t>(), stride};
    for (size_t k = 0; k < plan.columns().size(); ++k) {
      const std::vector<int64_t>& src = cols[plan.columns()[k]];
      std::copy(src.begin(), src.begin() + n,
                ExprPlan::column_values(slots, k));
    }
    plan.Run(slots, n);
    std::vector<const int64_t*> out;
    for (int r : roots) out.push_back(plan.values(slots, r));
    return out;
  }
};

std::vector<int64_t> Reference(const ExprPtr& e,
                               const std::vector<std::vector<int64_t>>& cols,
                               size_t n) {
  std::vector<const int64_t*> ptrs;
  for (const auto& c : cols) ptrs.push_back(c.data());
  std::vector<int64_t> out(n);
  e->Evaluate(ptrs.data(), n, out.data());
  return out;
}

TEST(ExprPlanTest, StructurallyEqualSubtreesShareOneNode) {
  // Q1's shape, built twice with no pointer in common.
  auto disc_price = [] {
    return Expr::Mul(Expr::Column(0),
                     Expr::Sub(Expr::Constant(100), Expr::Column(1)));
  };
  ExprPtr charge = Expr::Mul(disc_price(), Expr::Add(Expr::Constant(100),
                                                     Expr::Column(2)));
  ExprPlan plan;
  const int dp = plan.Add(*disc_price());
  const int ch = plan.Add(*charge);
  const int raw = plan.Add(*Expr::Column(0));
  plan.Finalize();
  // Columns 0..2, constant 100, the two factors and the two products.
  EXPECT_EQ(plan.num_nodes(), 8u);
  EXPECT_EQ(plan.columns(), (std::vector<int>{0, 1, 2}));
  // Three column slots and two computed ones: the factors fuse away.
  EXPECT_EQ(plan.num_slots(), 5u);
  EXPECT_EQ(plan.kernel(dp), ExprPlan::Kernel::kMulRSubC);
  EXPECT_EQ(plan.kernel(ch), ExprPlan::Kernel::kMulAddC);
  EXPECT_EQ(plan.kernel(raw), ExprPlan::Kernel::kLoad);
}

TEST(ExprPlanTest, FusedFormReadsSharedLhsSlot) {
  // The fused a * (c - x) loop consumes a shared subtree's slot directly.
  std::vector<std::vector<int64_t>> cols = {{10, 20, -3}, {1, 2, 300}};
  ExprPtr shared = Expr::Add(Expr::Column(0), Expr::Constant(5));
  ExprPtr fused =
      Expr::Mul(shared, Expr::Sub(Expr::Constant(100), Expr::Column(1)));
  PlanRunner r;
  const int s = r.plan.Add(*shared);
  const int f = r.plan.Add(*fused);
  r.plan.Finalize();
  EXPECT_EQ(r.plan.kernel(s), ExprPlan::Kernel::kAddC);
  EXPECT_EQ(r.plan.kernel(f), ExprPlan::Kernel::kMulRSubC);
  const auto out = r.Run({s, f}, cols, 3);
  EXPECT_EQ(out[1][0], 15 * 99);
  EXPECT_EQ(out[1][1], 25 * 98);
  EXPECT_EQ(out[1][2], 2 * -200);
}

TEST(ExprPlanTest, SharedFactorIsMaterializedNotFused) {
  // A factor with two consumers keeps its own slot.
  ExprPtr factor = Expr::Sub(Expr::Constant(7), Expr::Column(1));
  ExprPlan plan;
  const int m = plan.Add(*Expr::Mul(Expr::Column(0), factor));
  const int f = plan.Add(*factor);
  plan.Finalize();
  EXPECT_EQ(plan.kernel(f), ExprPlan::Kernel::kRSubC);
  EXPECT_EQ(plan.kernel(m), ExprPlan::Kernel::kMul);
}

TEST(ExprPlanTest, ConstantSubtreesFold) {
  ExprPlan plan;
  const int root = plan.Add(*Expr::Mul(
      Expr::Column(0), Expr::Sub(Expr::Constant(0), Expr::Constant(3))));
  const int constant =
      plan.Add(*Expr::Add(Expr::Constant(2), Expr::Constant(40)));
  plan.Finalize();
  EXPECT_EQ(plan.kernel(root), ExprPlan::Kernel::kMulC);
  EXPECT_EQ(plan.kernel(constant), ExprPlan::Kernel::kFill);
  PlanRunner r;
  r.plan = plan;
  const auto out = r.Run({root, constant}, {{4, 5}}, 2);
  EXPECT_EQ(out[0][0], -12);
  EXPECT_EQ(out[0][1], -15);
  EXPECT_EQ(out[1][0], 42);
  EXPECT_EQ(out[1][1], 42);
}

// Each multiply kernel (slot x slot, fused a * (c - x), fused a * (x + c))
// with both operands spanning [lo, hi]; the data hits every corner.
TEST(ExprPlanTest, MultiplyKernelsExactAtOperandCorners) {
  const int64_t lo = kI32Min - 1, hi = kI32Max + 1, c = 1000;
  struct Case {
    ExprPtr expr;
    ExprPlan::Kernel kernel;
    std::vector<ValueBounds> bounds;  // of columns 0 and 1
  };
  // c - y spans [lo, hi] when y spans [c - hi, c - lo]; y + c when y spans
  // [lo - c, hi - c].
  const Case cases[] = {
      {Expr::Mul(Expr::Column(0), Expr::Column(1)), ExprPlan::Kernel::kMul,
       {{lo, hi}, {lo, hi}}},
      {Expr::Mul(Expr::Column(0),
                 Expr::Sub(Expr::Constant(c), Expr::Column(1))),
       ExprPlan::Kernel::kMulRSubC, {{lo, hi}, {c - hi, c - lo}}},
      {Expr::Mul(Expr::Column(0),
                 Expr::Add(Expr::Column(1), Expr::Constant(c))),
       ExprPlan::Kernel::kMulAddC, {{lo, hi}, {lo - c, hi - c}}},
  };
  const size_t n = 103;  // not a multiple of 4: the tail runs too
  for (const Case& tc : cases) {
    std::vector<std::vector<int64_t>> cols(2, std::vector<int64_t>(n));
    Rng rng(5);
    for (size_t k = 0; k < 2; ++k) {
      for (size_t i = 0; i < n; ++i) {
        // Every extreme pairing first, then uniform values.
        const ValueBounds& b = tc.bounds[k];
        const size_t pick = k == 0 ? i % 2 : (i / 2) % 2;
        cols[k][i] = i < 4 ? (pick == 0 ? b.min : b.max)
                           : rng.NextInRange(b.min, b.max);
      }
    }
    PlanRunner r;
    const int root = r.plan.Add(*tc.expr);
    r.plan.Finalize();
    EXPECT_EQ(r.plan.kernel(root), tc.kernel);
    const auto out = r.Run({root}, cols, n);
    const auto expected = Reference(tc.expr, cols, n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[0][i], expected[i])
          << "kernel " << static_cast<int>(tc.kernel) << " row " << i;
    }
  }
}

TEST(ExprPlanTest, RandomTreesMatchReferenceInterpreter) {
  Rng rng(77);
  const size_t n = 257;
  std::vector<std::vector<int64_t>> cols(3, std::vector<int64_t>(n));
  const std::vector<ValueBounds> bounds = {{-50, 50}, {0, 100}, {-7, 9}};
  for (size_t c = 0; c < 3; ++c) {
    for (auto& v : cols[c]) v = rng.NextInRange(bounds[c].min, bounds[c].max);
  }
  std::function<ExprPtr(int)> random_tree = [&](int depth) -> ExprPtr {
    if (depth == 0 || rng.NextBernoulli(0.25)) {
      return rng.NextBernoulli(0.7)
                 ? Expr::Column(static_cast<int>(rng.NextBounded(3)))
                 : Expr::Constant(rng.NextInRange(-100, 100));
    }
    ExprPtr l = random_tree(depth - 1);
    ExprPtr r = random_tree(depth - 1);
    switch (rng.NextBounded(3)) {
      case 0:
        return Expr::Add(l, r);
      case 1:
        return Expr::Sub(l, r);
      default:
        return Expr::Mul(l, r);
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    // Depth 3 keeps every product inside int64 for the reference.
    std::vector<ExprPtr> exprs = {random_tree(3), random_tree(2)};
    PlanRunner r;
    std::vector<int> roots;
    for (const ExprPtr& e : exprs) roots.push_back(r.plan.Add(*e));
    r.plan.Finalize();
    const auto out = r.Run(roots, cols, n);
    for (size_t e = 0; e < exprs.size(); ++e) {
      const auto expected = Reference(exprs[e], cols, n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[e][i], expected[i])
            << "trial " << trial << " expr " << e << " row " << i;
      }
    }
  }
}

// --- code-keyed structure and coefficients (DESIGN.md §20) ----------------

TEST(ExprPlanTest, DegreeCountsCarrierFactors) {
  // Column 0 is the carrier, columns 1 and 2 keys.
  const std::vector<bool> carrier = {true, false, false};
  const std::vector<bool> key = {false, true, true};
  auto c = [] { return Expr::Column(0); };
  auto k1 = [] { return Expr::Column(1); };
  auto k2 = [] { return Expr::Column(2); };
  auto k = [](int64_t v) { return Expr::Constant(v); };
  struct Case {
    ExprPtr expr;
    int degree;
    bool multiplies_by_key;
  };
  const Case cases[] = {
      {c(), 1, false},
      {k1(), 0, false},
      {k(7), 0, false},
      {Expr::Mul(c(), Expr::Sub(k(100), k1())), 1, true},
      {Expr::Mul(Expr::Mul(c(), Expr::Sub(k(100), k1())),
                 Expr::Add(k(100), k2())),
       1, true},
      {Expr::Mul(c(), c()), 2, false},
      {Expr::Mul(Expr::Add(c(), k1()), Expr::Sub(c(), k2())), 2, true},
      {Expr::Add(c(), k1()), 1, false},
      {Expr::Mul(Expr::Sub(c(), k1()), k2()), 1, true},
      {Expr::Sub(Expr::Mul(c(), k1()), Expr::Mul(c(), k2())), 1, true},
      {Expr::Mul(c(), k(5)), 1, false},
      {Expr::Mul(k1(), k(5)), 0, false},
      {Expr::Mul(k1(), k2()), 0, true},
      {Expr::Mul(Expr::Mul(c(), k(3)), Expr::Mul(k1(), k(0))), 1, true},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(Degree(*cases[i].expr, carrier), cases[i].degree)
        << "case " << i;
    EXPECT_EQ(MultipliesBy(*cases[i].expr, key), cases[i].multiplies_by_key)
        << "case " << i;
  }
}

// Row-at-a-time reference modulo 2^64. Expr::Evaluate computes in signed
// int64, which the wrapping corners below would overflow.
uint64_t EvalWrapped(const Expr& e, const std::vector<int64_t>& row) {
  switch (e.kind()) {
    case ExprKind::kColumn:
      return static_cast<uint64_t>(row[e.column_index()]);
    case ExprKind::kConstant:
      return static_cast<uint64_t>(e.constant());
    case ExprKind::kAdd:
      return EvalWrapped(*e.lhs(), row) + EvalWrapped(*e.rhs(), row);
    case ExprKind::kSub:
      return EvalWrapped(*e.lhs(), row) - EvalWrapped(*e.rhs(), row);
    case ExprKind::kMul:
      return EvalWrapped(*e.lhs(), row) * EvalWrapped(*e.rhs(), row);
  }
  return 0;
}

// The coefficient tables of roots affine in carriers 0 and 1 over keys 2
// and 3. key_values[k] lists key column 2 + k's values; zero/step give the
// carriers' frame of reference.
struct AffineCase {
  std::vector<ExprPtr> exprs;
  std::vector<std::vector<int64_t>> key_values;
  int64_t zero[2];
  uint64_t step[2];
};

void ExpectCoefficientsMatch(const AffineCase& tc, Rng* rng) {
  ExprPlan plan;
  std::vector<int> roots;
  for (const ExprPtr& e : tc.exprs) roots.push_back(plan.Add(*e));
  plan.Finalize();
  std::vector<ExprPlan::AffineColumn> columns(4);
  for (int j = 0; j < 2; ++j) {
    columns[j].carrier = j;
    columns[j].zero = tc.zero[j];
    columns[j].step = tc.step[j];
  }
  columns[2].values = tc.key_values[0];
  columns[3].values = tc.key_values[1];
  columns[3].stride = static_cast<uint32_t>(tc.key_values[0].size());
  const uint32_t tuples =
      static_cast<uint32_t>(tc.key_values[0].size() * tc.key_values[1].size());
  const std::vector<uint64_t> coef =
      plan.AffineCoefficients(roots, columns, tuples, 2);
  ASSERT_EQ(coef.size(), roots.size() * tuples * 3);
  for (uint32_t c = 0; c < tuples; ++c) {
    for (int trial = 0; trial < 8; ++trial) {
      // Offsets at 0, 1, huge and random: the identity holds mod 2^64 for
      // any offset, not just the stored widths.
      uint64_t o[2];
      for (uint64_t& v : o) {
        const uint64_t picks[4] = {0, 1, ~uint64_t{0} - rng->NextBounded(3),
                                   rng->Next()};
        v = picks[rng->NextBounded(4)];
      }
      std::vector<int64_t> row(4);
      for (int j = 0; j < 2; ++j) {
        row[j] = static_cast<int64_t>(static_cast<uint64_t>(tc.zero[j]) +
                                      tc.step[j] * o[j]);
      }
      row[2] = tc.key_values[0][c % tc.key_values[0].size()];
      row[3] = tc.key_values[1][c / tc.key_values[0].size()];
      for (size_t r = 0; r < roots.size(); ++r) {
        const uint64_t* a = coef.data() + (r * tuples + c) * 3;
        EXPECT_EQ(a[0] + a[1] * o[0] + a[2] * o[1],
                  EvalWrapped(*tc.exprs[r], row))
            << "expr " << r << " tuple " << c << " offsets " << o[0] << ","
            << o[1];
      }
    }
  }
}

TEST(ExprPlanTest, AffineCoefficientsMatchTheInterpreterInRange) {
  // Q1's sums over in-range TPC-H values, against Expr::Evaluate itself.
  auto price = [] { return Expr::Column(0); };
  auto disc = [] { return Expr::Column(2); };
  auto tax = [] { return Expr::Column(3); };
  ExprPtr disc_price =
      Expr::Mul(price(), Expr::Sub(Expr::Constant(100), disc()));
  ExprPtr charge =
      Expr::Mul(disc_price, Expr::Add(Expr::Constant(100), tax()));
  const std::vector<ExprPtr> exprs = {Expr::Column(1), price(), disc_price,
                                      charge, disc()};
  ExprPlan plan;
  std::vector<int> roots;
  for (const ExprPtr& e : exprs) roots.push_back(plan.Add(*e));
  plan.Finalize();
  std::vector<ExprPlan::AffineColumn> columns(4);
  columns[0] = {{}, 1, 0, 90000, 1};   // price: 90000 + offset
  columns[1] = {{}, 1, 1, 100, 100};   // quantity: 100 + 100 * offset
  columns[2].values = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  columns[3].values = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  columns[3].stride = 11;
  const std::vector<uint64_t> coef = plan.AffineCoefficients(
      roots, columns, 99, 2);
  Rng rng(5);
  const size_t n = 512;
  std::vector<std::vector<int64_t>> cols(4, std::vector<int64_t>(n));
  std::vector<uint64_t> tuple(n), o0(n), o1(n);
  for (size_t i = 0; i < n; ++i) {
    o0[i] = rng.NextBounded(120000);
    o1[i] = rng.NextBounded(50);
    tuple[i] = rng.NextBounded(99);
    cols[0][i] = 90000 + static_cast<int64_t>(o0[i]);
    cols[1][i] = 100 + 100 * static_cast<int64_t>(o1[i]);
    cols[2][i] = static_cast<int64_t>(tuple[i] % 11);
    cols[3][i] = static_cast<int64_t>(tuple[i] / 11);
  }
  for (size_t r = 0; r < exprs.size(); ++r) {
    const std::vector<int64_t> expected = Reference(exprs[r], cols, n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* a = coef.data() + (r * 99 + tuple[i]) * 3;
      ASSERT_EQ(static_cast<int64_t>(a[0] + a[1] * o0[i] + a[2] * o1[i]),
                expected[i])
          << "expr " << r << " row " << i;
    }
  }
}

TEST(ExprPlanTest, AffineCoefficientsExactAtWrappingCorners) {
  const int64_t i64max = std::numeric_limits<int64_t>::max();
  const int64_t i64min = std::numeric_limits<int64_t>::min();
  auto c0 = [] { return Expr::Column(0); };
  auto c1 = [] { return Expr::Column(1); };
  auto k0 = [] { return Expr::Column(2); };
  auto k1 = [] { return Expr::Column(3); };
  auto k = [](int64_t v) { return Expr::Constant(v); };
  Rng rng(11);
  const std::vector<AffineCase> cases = {
      // Coefficients near +-2^63: (2^63 - 1 - k0) and (k1 - 2^63).
      {{Expr::Mul(c0(), Expr::Sub(k(i64max), k0())),
        Expr::Mul(Expr::Mul(c1(), Expr::Add(k0(), k(i64min))),
                  Expr::Sub(k1(), k(3)))},
       {{0, 1, 2, 15}, {-1, 0, 1}},
       {0, 0},
       {1, 1}},
      // Carrier frames at the int64 ends, steps of 2^40 + 1 and 2^63 - 1.
      {{Expr::Add(Expr::Mul(c0(), k0()), Expr::Mul(c1(), k1())),
        Expr::Sub(Expr::Mul(Expr::Sub(c0(), k1()), k(i64max)), c1()),
        Expr::Mul(k0(), k1())},
       {{i64min, -1, 0, i64max}, {int64_t{1} << 62, -(int64_t{1} << 62)}},
       {i64min + 3, i64max - 5},
       {(uint64_t{1} << 40) + 1, uint64_t{1} << 63 | 1}},
      // No carrier read at all, and a constant root.
      {{Expr::Mul(Expr::Add(k0(), k(i64max)), Expr::Sub(k1(), k0())),
        k(i64min)},
       {{3, -7}, {i64max, 9}},
       {-(int64_t{1} << 62), 5},
       {100, 7}},
  };
  for (const AffineCase& tc : cases) ExpectCoefficientsMatch(tc, &rng);
}

TEST(ExprPlanTest, CoefficientFoldExactWhenOffsetSumsWrap) {
  // sum(c * (k - 5)) over rows whose per-tuple carrier offset sums pass
  // 2^64: k = 6 and k = 4 rows carry the same offsets, so the true total
  // is 0 and fits, while every S(c) and each A(c) * S(c) term wraps.
  ExprPlan plan;
  const std::vector<int> roots = {plan.Add(*Expr::Mul(
      Expr::Column(0), Expr::Sub(Expr::Column(1), Expr::Constant(5))))};
  plan.Finalize();
  std::vector<ExprPlan::AffineColumn> columns(2);
  columns[0] = {{}, 1, 0, -1000, 3};  // c = -1000 + 3 * offset
  columns[1].values = {4, 6};
  const std::vector<uint64_t> coef =
      plan.AffineCoefficients(roots, columns, 2, 1);
  const uint64_t offsets[] = {uint64_t{1} << 63, (uint64_t{1} << 63) + 5,
                              ~uint64_t{0}, 12345};
  uint64_t count[2] = {0, 0};
  uint64_t offset_sum[2] = {0, 0};
  for (const uint64_t o : offsets) {
    for (uint32_t c = 0; c < 2; ++c) {
      ++count[c];
      offset_sum[c] += o;  // wraps past 2^64
    }
  }
  ASSERT_LT(offset_sum[0], offsets[0]);  // the sums did wrap
  uint64_t total = 0;
  for (uint32_t c = 0; c < 2; ++c) {
    total += coef[c * 2] * count[c] + coef[c * 2 + 1] * offset_sum[c];
  }
  EXPECT_EQ(total, 0u);
}

}  // namespace
}  // namespace bipie
