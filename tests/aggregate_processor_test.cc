#include "core/aggregate_processor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baseline/hash_agg.h"
#include "common/random.h"
#include "core/scan.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "tpch/q1.h"
#include "vector/selection_vector.h"

namespace bipie {
namespace {

struct ProcessorFixture {
  Table table;
  QuerySpec query;

  explicit ProcessorFixture(size_t rows = 8192, int num_groups = 5,
                            uint64_t seed = 10)
      : table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"y", ColumnType::kInt64, EncodingChoice::kBitPacked}}) {
    TableAppender app(&table, rows);
    Rng rng(seed);
    for (size_t i = 0; i < rows; ++i) {
      app.AppendRow({static_cast<int64_t>(rng.NextBounded(num_groups)),
                     rng.NextInRange(0, 255),
                     rng.NextInRange(-100, 100)});
    }
    app.Flush();
    query.group_by = {"g"};
    query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x"),
                        AggregateSpec::Sum("y")};
    query.filters.emplace_back("x", CompareOp::kLt, int64_t{200});
  }

  const Segment& segment() const { return table.segment(0); }
};

TEST(AggregateProcessorTest, BindResolvesStrategyFromMetadata) {
  ProcessorFixture f;
  const SegmentPlan plan(f.table, 0, f.query, {});
  ASSERT_TRUE(plan.status().ok());
  // 5 groups (+special), two raw sums of <= 8 bits... y spans [-100,100] ->
  // 8-bit offsets. Small bits + few groups: in-register territory.
  EXPECT_EQ(plan.aggregation(), AggregationStrategy::kInRegister);
  EXPECT_EQ(plan.group_mapper().num_groups(), 5);
}

TEST(AggregateProcessorTest, BindRejectsStringAggregate) {
  Table table({{"s", ColumnType::kString}});
  TableAppender app(&table, 16);
  app.AppendRow({0}, {"a"});
  app.Flush();
  QuerySpec query;
  query.aggregates = {AggregateSpec::Sum("s")};
  const SegmentPlan plan(table, 0, query, {});
  EXPECT_EQ(plan.status().code(), StatusCode::kNotSupported);
  AggregateProcessor processor;
  EXPECT_EQ(processor.Bind(plan).code(), StatusCode::kNotSupported);
}

TEST(AggregateProcessorTest, BindRejectsInfeasibleForcedStrategies) {
  ProcessorFixture f;
  // In-register cannot take expression aggregates.
  QuerySpec expr_query = f.query;
  expr_query.aggregates.push_back(AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(1), Expr::Column(2))));
  StrategyOverrides overrides;
  overrides.aggregation = AggregationStrategy::kInRegister;
  EXPECT_EQ(SegmentPlan(f.table, 0, expr_query, overrides).status().code(),
            StatusCode::kNotSupported);

  // Multi-aggregate: five 64-bit expression slots cannot fit.
  QuerySpec wide_query = f.query;
  wide_query.aggregates.clear();
  for (int i = 0; i < 5; ++i) {
    wide_query.aggregates.push_back(AggregateSpec::SumExpr(
        Expr::Add(Expr::Column(2), Expr::Constant(i))));
  }
  overrides.aggregation = AggregationStrategy::kMultiAggregate;
  EXPECT_EQ(SegmentPlan(f.table, 0, wide_query, overrides).status().code(),
            StatusCode::kNotSupported);

  // Sort-based needs at least one sum.
  QuerySpec count_query;
  count_query.group_by = {"g"};
  count_query.aggregates = {AggregateSpec::Count()};
  overrides.aggregation = AggregationStrategy::kSortBased;
  EXPECT_EQ(SegmentPlan(f.table, 0, count_query, overrides).status().code(),
            StatusCode::kNotSupported);
}

TEST(AggregateProcessorTest, PerBatchSelectionAdaptsToSelectivity) {
  ProcessorFixture f(16384, 5, 11);
  const SegmentPlan plan(f.table, 0, f.query, {});
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(plan).ok());
  // Batch 0: 1% selected -> gather. Batch 1: 99% selected -> special group.
  std::vector<uint8_t> sel(4096);
  Rng rng(3);
  for (auto& b : sel) b = rng.NextBernoulli(0.01) ? 0xFF : 0x00;
  ASSERT_TRUE(processor
                  .ProcessBatch(0, 4096, sel.data(),
                                CountSelected(sel.data(), 4096))
                  .ok());
  for (auto& b : sel) b = rng.NextBernoulli(0.99) ? 0xFF : 0x00;
  ASSERT_TRUE(processor
                  .ProcessBatch(4096, 4096, sel.data(),
                                CountSelected(sel.data(), 4096))
                  .ok());
  EXPECT_EQ(processor.selection_stats().gather, 1u);
  EXPECT_EQ(processor.selection_stats().special_group, 1u);
}

TEST(AggregateProcessorTest, AllSelectedFilterCountsAsUnfiltered) {
  ProcessorFixture f;
  const SegmentPlan plan(f.table, 0, f.query, {});
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(plan).ok());
  std::vector<uint8_t> sel(4096, 0xFF);
  ASSERT_TRUE(processor
                  .ProcessBatch(0, 4096, sel.data(),
                                CountSelected(sel.data(), 4096))
                  .ok());
  EXPECT_EQ(processor.selection_stats().unfiltered, 1u);
}

TEST(AggregateProcessorTest, AllRejectedBatchIsSkipped) {
  ProcessorFixture f;
  const SegmentPlan plan(f.table, 0, f.query, {});
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(plan).ok());
  std::vector<uint8_t> sel(4096, 0x00);
  ASSERT_TRUE(processor
                  .ProcessBatch(0, 4096, sel.data(),
                                CountSelected(sel.data(), 4096))
                  .ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());
  for (int g = 0; g < result.num_groups; ++g) {
    EXPECT_EQ(result.counts[g], 0u);
  }
}

TEST(AggregateProcessorTest, CompensationHandlesNegativeBases) {
  // Column y has base -100; sums must come back in the logical domain.
  ProcessorFixture f(4096, 3, 12);
  const SegmentPlan plan(f.table, 0, f.query, {});
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(plan).ok());
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, nullptr, 4096).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());

  // Manual reference.
  std::vector<int64_t> g(4096), x(4096), y(4096);
  f.segment().column(0).DecodeInt64(0, 4096, g.data());
  f.segment().column(1).DecodeInt64(0, 4096, x.data());
  f.segment().column(2).DecodeInt64(0, 4096, y.data());
  const IntDictionary& dict = *f.segment().column(0).int_dictionary();
  std::vector<uint64_t> counts(result.num_groups, 0);
  std::vector<int64_t> sum_y(result.num_groups, 0);
  for (size_t i = 0; i < 4096; ++i) {
    // g decodes to logical values; map back to dictionary id = group id.
    const int64_t gid = dict.Find(g[i]);
    ++counts[gid];
    sum_y[gid] += y[i];
  }
  for (int gid = 0; gid < result.num_groups; ++gid) {
    EXPECT_EQ(result.counts[gid], counts[gid]);
    EXPECT_EQ(result.values[gid * 3 + 2], sum_y[gid]) << "group " << gid;
  }
}

TEST(AggregateProcessorTest, SharedColumnInputsProduceSharedSlots) {
  ProcessorFixture f;
  QuerySpec query = f.query;
  query.aggregates = {AggregateSpec::Sum("x"), AggregateSpec::Avg("x"),
                      AggregateSpec::Count()};
  const SegmentPlan plan(f.table, 0, query, {});
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(plan).ok());
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, nullptr, 4096).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());
  for (int g = 0; g < result.num_groups; ++g) {
    // sum(x) and avg(x) slots must agree; count slot equals counts.
    EXPECT_EQ(result.values[g * 3 + 0], result.values[g * 3 + 1]);
    EXPECT_EQ(result.values[g * 3 + 2],
              static_cast<int64_t>(result.counts[g]));
  }
}

TEST(AggregateProcessorTest, CompactModeEvaluatesExpressionsPostFilter) {
  // Compact selection must produce identical expression sums to the other
  // modes even though it evaluates over compacted (dense) inputs, and the
  // shared-column cache must not leak stale dense arrays across batches.
  ProcessorFixture f(12288, 4, 21);
  ExprPtr shared =
      Expr::Mul(Expr::Column(1), Expr::Sub(Expr::Constant(50),
                                           Expr::Column(2)));
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::SumExpr(shared),
                      AggregateSpec::SumExpr(Expr::Mul(shared,
                                                       Expr::Constant(2)))};
  query.filters.emplace_back("x", CompareOp::kLt, int64_t{200});

  auto run = [&](SelectionStrategy sel) {
    StrategyOverrides overrides;
    overrides.selection = sel;
    overrides.aggregation = AggregationStrategy::kMultiAggregate;
    const SegmentPlan plan(f.table, 0, query, overrides);
    AggregateProcessor processor;
    EXPECT_TRUE(processor.Bind(plan).ok());
    Rng rng(33);
    std::vector<uint8_t> sel_bytes(4096);
    for (size_t start = 0; start < 12288; start += 4096) {
      Rng batch_rng(start + 1);
      for (auto& v : sel_bytes) {
        v = batch_rng.NextBernoulli(0.6) ? 0xFF : 0x00;
      }
      EXPECT_TRUE(processor
                      .ProcessBatch(start, 4096, sel_bytes.data(),
                                    CountSelected(sel_bytes.data(), 4096))
                      .ok());
    }
    AggregateProcessor::SegmentResult result;
    EXPECT_TRUE(processor.Finish(&result).ok());
    return result;
  };

  const auto compact = run(SelectionStrategy::kCompact);
  const auto gather = run(SelectionStrategy::kGather);
  const auto special = run(SelectionStrategy::kSpecialGroup);
  ASSERT_EQ(compact.values.size(), gather.values.size());
  EXPECT_EQ(compact.values, gather.values);
  EXPECT_EQ(compact.values, special.values);
  EXPECT_EQ(compact.counts, gather.counts);
  // The nested expression must be exactly double the shared one.
  for (int g = 0; g < compact.num_groups; ++g) {
    EXPECT_EQ(compact.values[g * 3 + 2], compact.values[g * 3 + 1] * 2);
  }
}

TEST(AggregateProcessorTest, SharedSubtreeEvaluatedOnce) {
  // disc_price-style sharing: the second expression embeds the first.
  ProcessorFixture f;
  ExprPtr base_expr =
      Expr::Mul(Expr::Column(1), Expr::Sub(Expr::Constant(100),
                                           Expr::Column(2)));
  ExprPtr nested = Expr::Mul(base_expr, Expr::Constant(3));
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::SumExpr(base_expr),
                      AggregateSpec::SumExpr(nested)};
  const SegmentPlan plan(f.table, 0, query, {});
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(plan).ok());
  // x, y, 100, (100 - y), the product, 3 and the outer product: the
  // embedded subtree is one node.
  EXPECT_EQ(plan.expr_plan().num_nodes(), 7u);
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, nullptr, 4096).ok());
  ASSERT_TRUE(processor.ProcessBatch(4096, 4096, nullptr, 4096).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());
  for (int g = 0; g < result.num_groups; ++g) {
    EXPECT_EQ(result.values[g * 2 + 1], result.values[g * 2 + 0] * 3);
  }
}

void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    EXPECT_EQ(a.rows[r].group, b.rows[r].group) << what << " row " << r;
    EXPECT_EQ(a.rows[r].count, b.rows[r].count) << what << " row " << r;
    EXPECT_EQ(a.rows[r].sums, b.rows[r].sums) << what << " row " << r;
  }
}

TEST(AggregateProcessorTest, ParsedAndBuiltQ1BindTheSamePlan) {
  // The parser builds a fresh node per occurrence; the hand-built spec
  // shares disc_price by pointer. Structural sharing makes the plans equal.
  LineitemOptions options;
  options.num_rows = 20000;
  const Table lineitem = MakeLineitemTable(options);
  auto parsed = ParseQuery(Q1Sql(), lineitem);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QuerySpec sql = parsed.value().spec;
  const QuerySpec built = MakeQ1Query(lineitem);
  // The multi-aggregate plan decodes its plan columns every batch.
  StrategyOverrides multi;
  multi.aggregation = AggregationStrategy::kMultiAggregate;
  for (size_t s = 0; s < lineitem.num_segments(); ++s) {
    const SegmentPlan from_sql(lineitem, s, sql, multi);
    const SegmentPlan from_built(lineitem, s, built, multi);
    ASSERT_TRUE(from_sql.status().ok());
    ASSERT_TRUE(from_built.status().ok());
    const ExprPlan& a = from_sql.expr_plan();
    const ExprPlan& b = from_built.expr_plan();
    EXPECT_EQ(a.num_nodes(), b.num_nodes());
    EXPECT_EQ(a.columns(), b.columns());
    // price, discount, tax: each decoded once, the raw price sum included.
    EXPECT_EQ(a.columns().size(), 3u);
    EXPECT_EQ(a.num_slots(), b.num_slots());

    // The adaptive code-keyed plans agree down to their coefficients.
    const SegmentPlan keyed_sql(lineitem, s, sql, {});
    const SegmentPlan keyed_built(lineitem, s, built, {});
    ASSERT_EQ(keyed_sql.aggregation(), AggregationStrategy::kCodeKeyed);
    ASSERT_EQ(keyed_built.aggregation(), AggregationStrategy::kCodeKeyed);
    EXPECT_EQ(keyed_sql.code_keyed().coefficients,
              keyed_built.code_keyed().coefficients);
    EXPECT_EQ(keyed_sql.code_keyed().num_keys,
              keyed_built.code_keyed().num_keys);
  }
  auto from_sql = ExecuteQuery(lineitem, sql);
  auto from_built = ExecuteQuery(lineitem, built);
  auto oracle = ExecuteQueryHashAgg(lineitem, built);
  ASSERT_TRUE(from_sql.ok() && from_built.ok() && oracle.ok());
  ExpectSameRows(from_sql.value(), from_built.value(), "sql vs built");
  ExpectSameRows(from_built.value(), oracle.value(), "built vs oracle");
}

// A structural copy sharing no pointer with `e`.
ExprPtr DeepCopy(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return Expr::Column(e->column_index());
    case ExprKind::kConstant:
      return Expr::Constant(e->constant());
    case ExprKind::kAdd:
      return Expr::Add(DeepCopy(e->lhs()), DeepCopy(e->rhs()));
    case ExprKind::kSub:
      return Expr::Sub(DeepCopy(e->lhs()), DeepCopy(e->rhs()));
    case ExprKind::kMul:
      return Expr::Mul(DeepCopy(e->lhs()), DeepCopy(e->rhs()));
  }
  return nullptr;
}

TEST(AggregateProcessorTest, PointerSharedAndCopiedSubtreesPlanAlike) {
  // Property: an aggregate set whose equal subtrees are shared by pointer
  // and the same set with every occurrence deep-copied bind identical
  // plans and compute identical results, under every aggregation strategy.
  ProcessorFixture f(12288, 6, 31);
  Rng rng(8);
  auto leaf = [&]() -> ExprPtr {
    return rng.NextBernoulli(0.6)
               ? Expr::Column(1 + static_cast<int>(rng.NextBounded(2)))
               : Expr::Constant(rng.NextInRange(-20, 120));
  };
  auto combine = [&](ExprPtr l, ExprPtr r) -> ExprPtr {
    switch (rng.NextBounded(3)) {
      case 0:
        return Expr::Add(std::move(l), std::move(r));
      case 1:
        return Expr::Sub(std::move(l), std::move(r));
      default:
        return Expr::Mul(std::move(l), std::move(r));
    }
  };
  for (int trial = 0; trial < 40; ++trial) {
    // A pool of subtrees, then aggregates combining them.
    std::vector<ExprPtr> pool;
    for (int k = 0; k < 3; ++k) pool.push_back(combine(leaf(), leaf()));
    QuerySpec shared, copied;
    shared.group_by = copied.group_by = {"g"};
    const int num_aggs = 1 + static_cast<int>(rng.NextBounded(4));
    for (int a = 0; a < num_aggs; ++a) {
      const ExprPtr& l = pool[rng.NextBounded(pool.size())];
      const ExprPtr& r = pool[rng.NextBounded(pool.size())];
      const uint64_t op = rng.NextBounded(3);
      auto build = [&](ExprPtr x, ExprPtr y) {
        return op == 0   ? Expr::Add(std::move(x), std::move(y))
               : op == 1 ? Expr::Sub(std::move(x), std::move(y))
                         : Expr::Mul(std::move(x), std::move(y));
      };
      shared.aggregates.push_back(AggregateSpec::SumExpr(build(l, r)));
      copied.aggregates.push_back(
          AggregateSpec::SumExpr(build(DeepCopy(l), DeepCopy(r))));
    }
    if (rng.NextBernoulli(0.5)) {
      shared.filters.emplace_back("x", CompareOp::kLt, int64_t{150});
      copied.filters = shared.filters;
    }

    const SegmentPlan a(f.table, 0, shared, {});
    const SegmentPlan b(f.table, 0, copied, {});
    ASSERT_TRUE(a.status().ok());
    ASSERT_TRUE(b.status().ok());
    ASSERT_EQ(a.expr_plan().num_nodes(), b.expr_plan().num_nodes())
        << "trial " << trial;
    EXPECT_EQ(a.expr_plan().columns(), b.expr_plan().columns());
    EXPECT_EQ(a.expr_plan().num_slots(), b.expr_plan().num_slots());
    for (size_t n = 0; n < a.expr_plan().num_nodes(); ++n) {
      EXPECT_EQ(a.expr_plan().kernel(static_cast<int>(n)),
                b.expr_plan().kernel(static_cast<int>(n)))
          << "trial " << trial << " node " << n;
    }

    auto oracle = ExecuteQueryHashAgg(f.table, copied);
    ASSERT_TRUE(oracle.ok());
    for (const AggregationStrategy strategy :
         {AggregationStrategy::kMultiAggregate, AggregationStrategy::kSortBased,
          AggregationStrategy::kScalar}) {
      ScanOptions options;
      options.overrides.aggregation = strategy;
      auto x = ExecuteQuery(f.table, shared, options);
      auto y = ExecuteQuery(f.table, copied, options);
      if (!x.ok()) {
        // Multi-aggregate rejects rows over four qwords, for both specs.
        EXPECT_EQ(x.status().code(), StatusCode::kNotSupported);
        EXPECT_EQ(y.status().code(), StatusCode::kNotSupported);
        continue;
      }
      ASSERT_TRUE(y.ok());
      const std::string what = std::string("trial ") + std::to_string(trial) +
                               " " + AggregationStrategyName(strategy);
      ExpectSameRows(x.value(), y.value(), what);
      ExpectSameRows(y.value(), oracle.value(), what + " vs oracle");
    }
  }
}

}  // namespace
}  // namespace bipie
