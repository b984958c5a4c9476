#include "tpch/q1.h"

#include <gtest/gtest.h>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "obs/plan_explain.h"

namespace bipie {
namespace {

LineitemOptions SmallOptions() {
  LineitemOptions options;
  options.num_rows = 50000;
  options.segment_rows = 16384;
  options.seed = 42;
  return options;
}

TEST(LineitemTest, GeneratorShape) {
  Table t = MakeLineitemTable(SmallOptions());
  EXPECT_EQ(t.num_rows(), 50000u);
  EXPECT_EQ(t.num_segments(), 4u);  // 3 x 16384 + remainder

  const Segment& seg = t.segment(0);
  // Flags {A, N, R}, statuses {F, O}.
  EXPECT_EQ(seg.column(kColReturnFlag).string_dictionary()->size(), 3u);
  EXPECT_EQ(seg.column(kColLineStatus).string_dictionary()->size(), 2u);
  // Quantity stored in hundredths of units 1..50.
  EXPECT_GE(seg.column(kColQuantity).meta().min, 100);
  EXPECT_LE(seg.column(kColQuantity).meta().max, 5000);
  // Discount and tax stay in their TPC-H ranges.
  EXPECT_GE(seg.column(kColDiscount).meta().min, 0);
  EXPECT_LE(seg.column(kColDiscount).meta().max, 10);
  EXPECT_LE(seg.column(kColTax).meta().max, 8);
  // Shipdate spans the 7-year window.
  EXPECT_GE(seg.column(kColShipDate).meta().min, kShipDateMin);
  EXPECT_LE(seg.column(kColShipDate).meta().max, kShipDateMax);
}

TEST(LineitemTest, DeterministicForSeed) {
  Table a = MakeLineitemTable(SmallOptions());
  Table b = MakeLineitemTable(SmallOptions());
  std::vector<int64_t> va(100), vb(100);
  a.segment(0).column(kColExtendedPrice).DecodeInt64(0, 100, va.data());
  b.segment(0).column(kColExtendedPrice).DecodeInt64(0, 100, vb.data());
  EXPECT_EQ(va, vb);
}

TEST(Q1Test, FilterSelectivityIsNear98Percent) {
  Table t = MakeLineitemTable(SmallOptions());
  BIPieScan scan(t, MakeQ1Query(t));
  auto result = scan.Execute();
  ASSERT_TRUE(result.ok());
  const double selectivity =
      static_cast<double>(scan.stats().rows_selected) /
      static_cast<double>(scan.stats().rows_scanned);
  EXPECT_NEAR(selectivity, 0.964, 0.02);  // 2436/2526 days pass
}

TEST(Q1Test, ProducesTheFourClassicGroups) {
  Table t = MakeLineitemTable(SmallOptions());
  auto result = RunQ1(t);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 4u);
  auto flag = [&](size_t r) {
    return result.value().rows[r].group[0].string_value;
  };
  auto status = [&](size_t r) {
    return result.value().rows[r].group[1].string_value;
  };
  // Sorted by (returnflag, linestatus): A/F, N/F, N/O, R/F.
  EXPECT_EQ(flag(0), "A"); EXPECT_EQ(status(0), "F");
  EXPECT_EQ(flag(1), "N"); EXPECT_EQ(status(1), "F");
  EXPECT_EQ(flag(2), "N"); EXPECT_EQ(status(2), "O");
  EXPECT_EQ(flag(3), "R"); EXPECT_EQ(status(3), "F");
  // N/F is the thin band.
  EXPECT_LT(result.value().rows[1].count, result.value().rows[2].count / 10);
}

TEST(Q1Test, MatchesNaiveOracleExactly) {
  Table t = MakeLineitemTable(SmallOptions());
  const QuerySpec query = MakeQ1Query(t);
  auto expected = ExecuteQueryNaive(t, query);
  ASSERT_TRUE(expected.ok());
  auto got = RunQ1(t);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().rows.size(), expected.value().rows.size());
  for (size_t r = 0; r < got.value().rows.size(); ++r) {
    EXPECT_EQ(got.value().rows[r].group, expected.value().rows[r].group);
    EXPECT_EQ(got.value().rows[r].count, expected.value().rows[r].count);
    EXPECT_EQ(got.value().rows[r].sums, expected.value().rows[r].sums);
  }
}

TEST(Q1Test, AllEnginesAgree) {
  Table t = MakeLineitemTable(SmallOptions());
  const QuerySpec query = MakeQ1Query(t);
  auto bipie = RunQ1(t);
  auto hash = ExecuteQueryHashAgg(t, query);
  ASSERT_TRUE(bipie.ok());
  ASSERT_TRUE(hash.ok());
  ASSERT_EQ(bipie.value().rows.size(), hash.value().rows.size());
  for (size_t r = 0; r < bipie.value().rows.size(); ++r) {
    EXPECT_EQ(bipie.value().rows[r].sums, hash.value().rows[r].sums);
    EXPECT_EQ(bipie.value().rows[r].count, hash.value().rows[r].count);
  }
}

TEST(Q1Test, UsesCodeKeyedAndSpecialGroup) {
  // Special-group selection feeds code-keyed sums (DESIGN.md §20): per
  // segment l_discount has 11 codes and l_tax 9, so every sum follows from
  // counts and price/quantity offset sums per (group, discount, tax).
  // The three full segments run it; the 848-row tail expects ~1.2
  // selected rows per key, too few to pay for the Finish fold, and keeps
  // multi-aggregate.
  Table t = MakeLineitemTable(SmallOptions());
  BIPieScan scan(t, MakeQ1Query(t));
  auto explain = scan.Explain();
  ASSERT_TRUE(explain.ok());
  for (const auto& seg : explain.value().segments) {
    const PlanDecision& d = seg.decision;
    EXPECT_EQ(d.code_keyed.num_keys, 7 * 11 * 9);
    EXPECT_EQ(d.aggregation == AggregationStrategy::kCodeKeyed,
              d.code_keyed.rows_per_key >= kMinCodeKeyRowsPerKey);
  }
  ASSERT_TRUE(scan.Execute().ok());
  EXPECT_EQ(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kCodeKeyed)],
            3u);
  EXPECT_EQ(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kMultiAggregate)],
            1u);
  EXPECT_GT(scan.stats().selection.special_group, 0u);
}

TEST(Q1Test, ForcedMultiAggregateKeepsThePaperPlan) {
  // §6.3: special-group selection feeds multi-aggregate sums; all five
  // sums (after sharing qty between sum and avg) fit one register.
  Table t = MakeLineitemTable(SmallOptions());
  ScanOptions options;
  options.overrides.aggregation = AggregationStrategy::kMultiAggregate;
  BIPieScan scan(t, MakeQ1Query(t), options);
  ASSERT_TRUE(scan.Execute().ok());
  EXPECT_EQ(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kMultiAggregate)],
            scan.stats().segments_scanned);
  EXPECT_GT(scan.stats().selection.special_group, 0u);
}

TEST(Q1Test, EveryStrategyComboMatches) {
  Table t = MakeLineitemTable(SmallOptions());
  const QuerySpec query = MakeQ1Query(t);
  auto expected = ExecuteQueryNaive(t, query);
  ASSERT_TRUE(expected.ok());
  for (auto sel : {SelectionStrategy::kGather, SelectionStrategy::kCompact,
                   SelectionStrategy::kSpecialGroup}) {
    for (auto agg :
         {AggregationStrategy::kScalar, AggregationStrategy::kSortBased,
          AggregationStrategy::kMultiAggregate,
          AggregationStrategy::kCodeKeyed}) {
      ScanOptions options;
      options.overrides.selection = sel;
      options.overrides.aggregation = agg;
      auto got = RunQ1(t, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value().rows.size(), expected.value().rows.size());
      for (size_t r = 0; r < got.value().rows.size(); ++r) {
        ASSERT_EQ(got.value().rows[r].sums, expected.value().rows[r].sums)
            << SelectionStrategyName(sel) << "+"
            << AggregationStrategyName(agg);
      }
    }
  }
}

TEST(Q1Test, FormatterProducesPsqlishTable) {
  Table t = MakeLineitemTable(SmallOptions());
  auto result = RunQ1(t);
  ASSERT_TRUE(result.ok());
  const std::string text = FormatQ1Result(result.value());
  EXPECT_NE(text.find("sum_disc_price"), std::string::npos);
  EXPECT_NE(text.find("A      F"), std::string::npos);
  // Header + 4 groups.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

}  // namespace
}  // namespace bipie
