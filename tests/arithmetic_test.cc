#include "expr/arithmetic.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/random.h"

namespace bipie {
namespace {

TEST(ExprTest, LeafEvaluation) {
  std::vector<int64_t> col = {1, 2, 3};
  const int64_t* cols[1] = {col.data()};
  std::vector<int64_t> out(3);

  Expr::Column(0)->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, col);

  Expr::Constant(-7)->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{-7, -7, -7}));
}

TEST(ExprTest, BinaryOps) {
  std::vector<int64_t> a = {10, 20, 30};
  std::vector<int64_t> b = {1, 2, 3};
  const int64_t* cols[2] = {a.data(), b.data()};
  std::vector<int64_t> out(3);

  Expr::Add(Expr::Column(0), Expr::Column(1))->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{11, 22, 33}));

  Expr::Sub(Expr::Column(0), Expr::Column(1))->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{9, 18, 27}));

  Expr::Mul(Expr::Column(0), Expr::Column(1))->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{10, 40, 90}));
}

TEST(ExprTest, ConstantRhsFastPath) {
  std::vector<int64_t> a = {5, 6, 7};
  const int64_t* cols[1] = {a.data()};
  std::vector<int64_t> out(3);
  Expr::Mul(Expr::Column(0), Expr::Constant(100))
      ->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{500, 600, 700}));
}

TEST(ExprTest, ConstantLhs) {
  std::vector<int64_t> a = {5, 6, 7};
  const int64_t* cols[1] = {a.data()};
  std::vector<int64_t> out(3);
  Expr::Sub(Expr::Constant(100), Expr::Column(0))
      ->Evaluate(cols, 3, out.data());
  EXPECT_EQ(out, (std::vector<int64_t>{95, 94, 93}));
}

TEST(ExprTest, Q1ShapedNestedExpression) {
  // price * (100 - disc) * (100 + tax), the Q1 charge expression.
  std::vector<int64_t> price = {10000, 25000};
  std::vector<int64_t> disc = {5, 0};
  std::vector<int64_t> tax = {8, 2};
  const int64_t* cols[3] = {price.data(), disc.data(), tax.data()};
  ExprPtr charge =
      Expr::Mul(Expr::Mul(Expr::Column(0),
                          Expr::Sub(Expr::Constant(100), Expr::Column(1))),
                Expr::Add(Expr::Constant(100), Expr::Column(2)));
  std::vector<int64_t> out(2);
  charge->Evaluate(cols, 2, out.data());
  EXPECT_EQ(out[0], 10000 * 95 * 108);
  EXPECT_EQ(out[1], 25000 * 100 * 102);
}

TEST(ExprTest, FusedMulRangeFormsMatchUnfusedSemantics) {
  // The fused a * (c ± col) fast path must agree with manual evaluation
  // for every operand shape that can feed it.
  Rng rng(77);
  const size_t n = 512;
  std::vector<int64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextInRange(-500, 500);
    b[i] = rng.NextInRange(-90, 90);
  }
  const int64_t* cols[2] = {a.data(), b.data()};
  struct Case {
    ExprPtr expr;
    std::function<int64_t(int64_t, int64_t)> direct;
  };
  const Case cases[] = {
      // column * (const - col): the Q1 discount factor.
      {Expr::Mul(Expr::Column(0),
                 Expr::Sub(Expr::Constant(100), Expr::Column(1))),
       [](int64_t x, int64_t y) { return x * (100 - y); }},
      // column * (const + col): the Q1 tax factor.
      {Expr::Mul(Expr::Column(0),
                 Expr::Add(Expr::Constant(7), Expr::Column(1))),
       [](int64_t x, int64_t y) { return x * (7 + y); }},
      // nested lhs * (const - col): lhs resolved through recursion first.
      {Expr::Mul(Expr::Add(Expr::Column(0), Expr::Column(1)),
                 Expr::Sub(Expr::Constant(-3), Expr::Column(1))),
       [](int64_t x, int64_t y) { return (x + y) * (-3 - y); }},
  };
  std::vector<int64_t> out(n);
  for (const Case& c : cases) {
    c.expr->Evaluate(cols, n, out.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], c.direct(a[i], b[i])) << i;
    }
  }
}

TEST(ExprTest, RandomizedAgainstDirectComputation) {
  Rng rng(12);
  const size_t n = 2000;
  std::vector<int64_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextInRange(-1000, 1000);
    b[i] = rng.NextInRange(-1000, 1000);
  }
  const int64_t* cols[2] = {a.data(), b.data()};
  ExprPtr e = Expr::Add(Expr::Mul(Expr::Column(0), Expr::Column(1)),
                        Expr::Sub(Expr::Column(0), Expr::Constant(3)));
  std::vector<int64_t> out(n);
  e->Evaluate(cols, n, out.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], a[i] * b[i] + (a[i] - 3));
  }
}

TEST(ExprTest, CollectColumnsDeduplicates) {
  ExprPtr e = Expr::Mul(Expr::Add(Expr::Column(2), Expr::Column(0)),
                        Expr::Sub(Expr::Column(2), Expr::Constant(1)));
  std::vector<int> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<int>{2, 0}));
}

TEST(ExprBoundsTest, PropagatesIntervals) {
  std::vector<ValueBounds> bounds = {{-10, 20}, {0, 5}};
  auto r = Expr::Add(Expr::Column(0), Expr::Column(1))->EvalBounds(bounds);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().min, -10);
  EXPECT_EQ(r.value().max, 25);

  r = Expr::Sub(Expr::Column(0), Expr::Column(1))->EvalBounds(bounds);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().min, -15);
  EXPECT_EQ(r.value().max, 20);

  r = Expr::Mul(Expr::Column(0), Expr::Column(1))->EvalBounds(bounds);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().min, -50);
  EXPECT_EQ(r.value().max, 100);
}

TEST(ExprBoundsTest, MulOfNegativesFlipsSign) {
  std::vector<ValueBounds> bounds = {{-10, -2}, {-5, -1}};
  auto r = Expr::Mul(Expr::Column(0), Expr::Column(1))->EvalBounds(bounds);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().min, 2);
  EXPECT_EQ(r.value().max, 50);
}

TEST(ExprBoundsTest, DetectsOverflowRisk) {
  const int64_t big = std::numeric_limits<int64_t>::max() / 2;
  std::vector<ValueBounds> bounds = {{0, big}, {0, big}};
  auto r = Expr::Mul(Expr::Column(0), Expr::Column(1))->EvalBounds(bounds);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOverflowRisk);
}

TEST(ExprBoundsTest, RejectsUnknownColumn) {
  std::vector<ValueBounds> bounds = {{0, 1}};
  auto r = Expr::Column(5)->EvalBounds(bounds);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bipie
