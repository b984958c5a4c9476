// Strategy explorer: force every (selection x aggregation) combination on
// the same query and compare — a miniature, runnable version of the
// paper's §6.2 evaluation, and a demonstration of the override API.
//
// Usage: strategy_explorer [rows] [selectivity_percent]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cycle_timer.h"
#include "common/random.h"
#include "core/scan.h"
#include "storage/table.h"
#include "vector/toolbox.h"

using namespace bipie;  // NOLINT

int main(int argc, char** argv) {
  const size_t rows =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (size_t{1} << 20);
  const int sel_pct = argc > 2 ? std::atoi(argv[2]) : 50;

  std::printf("strategy explorer: %zu rows, ~%d%% selectivity (%s)\n\n",
              rows, sel_pct, ToolboxIsaDescription());

  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"a", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"b", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"c", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, size_t{1} << 20);
  Rng rng(99);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>(rng.NextBounded(12)),
                   rng.NextInRange(0, (1 << 14) - 1),
                   rng.NextInRange(0, (1 << 14) - 1),
                   rng.NextInRange(0, (1 << 20) - 1),
                   rng.NextInRange(0, 99)});
  }
  app.Flush();

  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("a"),
                      AggregateSpec::Sum("b"), AggregateSpec::Sum("c")};
  query.filters.emplace_back("f", CompareOp::kLt,
                             static_cast<int64_t>(sel_pct));

  // Reference: adaptive run.
  BIPieScan adaptive(table, query);
  auto reference = adaptive.Execute();
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }
  std::printf("adaptive engine picked: selection gather=%zu compact=%zu "
              "special=%zu | aggregation: ",
              adaptive.stats().selection.gather,
              adaptive.stats().selection.compact,
              adaptive.stats().selection.special_group);
  for (int a = 0; a < kNumAggregationStrategies; ++a) {
    if (adaptive.stats().aggregation_segments[a] > 0) {
      std::printf("%s ",
                  AggregationStrategyName(static_cast<AggregationStrategy>(a)));
    }
  }
  std::printf("\n\n%-18s", "cycles/row");
  for (auto sel : {SelectionStrategy::kGather, SelectionStrategy::kCompact,
                   SelectionStrategy::kSpecialGroup}) {
    std::printf(" %14s", SelectionStrategyName(sel));
  }
  std::printf("\n");

  for (auto agg :
       {AggregationStrategy::kScalar, AggregationStrategy::kInRegister,
        AggregationStrategy::kSortBased,
        AggregationStrategy::kMultiAggregate}) {
    std::printf("%-18s", AggregationStrategyName(agg));
    for (auto sel : {SelectionStrategy::kGather, SelectionStrategy::kCompact,
                     SelectionStrategy::kSpecialGroup}) {
      ScanOptions options;
      options.overrides.selection = sel;
      options.overrides.aggregation = agg;
      BIPieScan scan(table, query, options);
      const uint64_t start = ReadCycleCounter();
      auto result = scan.Execute();
      const uint64_t cycles = ReadCycleCounter() - start;
      if (!result.ok()) {
        std::printf(" %14s", "n/a");
        continue;
      }
      // Correctness cross-check against the adaptive run.
      bool ok = result.value().rows.size() == reference.value().rows.size();
      for (size_t r = 0; ok && r < result.value().rows.size(); ++r) {
        ok = result.value().rows[r].sums == reference.value().rows[r].sums;
      }
      if (!ok) {
        std::printf(" %14s", "MISMATCH");
        continue;
      }
      std::printf(" %14.2f",
                  static_cast<double>(cycles) / static_cast<double>(rows));
    }
    std::printf("\n");
  }
  std::printf("\nEvery cell computed identical results; 'n/a' marks "
              "infeasible combinations.\n");
  return 0;
}
