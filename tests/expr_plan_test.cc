#include "expr/expr_plan.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"

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

}  // namespace
}  // namespace bipie
