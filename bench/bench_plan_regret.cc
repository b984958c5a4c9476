// Plan-regret benchmark (DESIGN.md §6, §17): how much slower is the plan
// admission picks than the best plan it could have picked?
//
// For each shape the bench times the chosen plan (no overrides) and every
// forced plan — each selection strategy, each aggregation strategy, and
// every selection x aggregation pair — single-threaded over one table.
// Plans that cannot run on the shape (kNotSupported) are skipped, and so
// are forced plans that ran the chosen plan's path (same per-strategy
// segment and batch counts): they are the same plan, and their minimum
// over several copies would beat the chosen copy by noise alone.
//
//   regret = chosen cycles/row / min(chosen, best alternative) cycles/row
//
// so 1.00 means admission picked the fastest plan measured.
//
// Shapes: the mixed filtered group-by, a sorted run-shaped table, a
// selective filter on a 22-bit byte-sliced column, and 17-row value runs
// under a ~2% filter, where span length alone admits the run pipeline.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/scan.h"
#include "obs/plan_explain.h"

using namespace bipie;         // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

// Dictionary string group, narrow + wide packed sums, 25%-selective filter.
Table MakeMixedTable(size_t rows) {
  Table table({
      {"g", ColumnType::kString},
      {"narrow", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"wide", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"filter_col", ColumnType::kInt64, EncodingChoice::kBitPacked},
  });
  TableAppender app(&table, /*segment_rows=*/size_t{1} << 16);
  Rng rng(6001);
  const char* groups[4] = {"east", "west", "north", "south"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<int64_t> ints(4, 0);
    std::vector<std::string> strings(4);
    strings[0] = groups[rng.NextBounded(4)];
    ints[1] = rng.NextInRange(0, 127);
    ints[2] = rng.NextInRange(0, (1 << 20) - 1);
    ints[3] = rng.NextInRange(0, 999);
    app.AppendRow(ints, strings);
  }
  app.Flush();
  return table;
}

QuerySpec MakeMixedQuery() {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("narrow"),
                      AggregateSpec::Sum("wide")};
  query.filters.emplace_back("filter_col", CompareOp::kLt, int64_t{250});
  return query;
}

// Sorted 6-group table with packed sums: the run pipeline's home turf.
Table MakeRunTable(size_t rows) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kAuto},
               {"qty", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"price", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, /*segment_rows=*/size_t{1} << 16);
  Rng rng(6002);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>(i * 6 / rows),
                   rng.NextInRange(1, 50), rng.NextInRange(1000, 100000)});
  }
  app.Flush();
  return table;
}

QuerySpec MakeRunQuery() {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("qty"),
                      AggregateSpec::Sum("price")};
  return query;
}

// 22-bit byteslice filter column at ~6% selectivity.
Table MakeByteSliceTable(size_t rows) {
  Table table({
      {"g", ColumnType::kInt64, EncodingChoice::kDictionary},
      {"sliced", ColumnType::kInt64, EncodingChoice::kByteSliced},
      {"amount", ColumnType::kInt64, EncodingChoice::kBitPacked},
  });
  TableAppender app(&table, /*segment_rows=*/size_t{1} << 16);
  Rng rng(6003);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({rng.NextInRange(0, 5),
                   rng.NextInRange(0, (int64_t{1} << 22) - 1),
                   rng.NextInRange(0, 499)});
  }
  app.Flush();
  return table;
}

QuerySpec MakeByteSliceQuery() {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};
  query.filters.emplace_back("sliced", CompareOp::kLt, int64_t{1} << 18);
  return query;
}

// RLE group, filter and value columns in 17-row value runs: the combined
// span estimate sits right at the kMinRunSpanRows floor, and `f < 2`
// passes ~2% of the runs (the cost_model_test run-admission table).
Table MakeShortSpanTable(size_t rows) {
  Table table({
      {"g", ColumnType::kInt64, EncodingChoice::kRle},
      {"f", ColumnType::kInt64, EncodingChoice::kRle},
      {"amount", ColumnType::kInt64, EncodingChoice::kRle},
  });
  TableAppender app(&table, /*segment_rows=*/size_t{1} << 16);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t span = static_cast<int64_t>(i / 17);
    app.AppendRow({span % 3, span % 97, (span / 2) % 50});
  }
  app.Flush();
  return table;
}

QuerySpec MakeShortSpanQuery() {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{2});
  return query;
}

std::string PlanName(const StrategyOverrides& o) {
  if (!o.selection.has_value() && !o.aggregation.has_value()) return "chosen";
  return std::string(o.selection.has_value()
                         ? SelectionStrategyName(*o.selection)
                         : "auto") +
         "+" +
         (o.aggregation.has_value() ? AggregationStrategyName(*o.aggregation)
                                    : "auto");
}

// Same per-strategy segment and batch counts: the same physical plan.
bool SamePath(const ScanStats& a, const ScanStats& b) {
  for (int i = 0; i < kNumAggregationStrategies; ++i) {
    if (a.aggregation_segments[i] != b.aggregation_segments[i]) return false;
  }
  return a.selection.gather == b.selection.gather &&
         a.selection.compact == b.selection.compact &&
         a.selection.special_group == b.selection.special_group &&
         a.selection.unfiltered == b.selection.unfiltered &&
         a.runs_aggregated == b.runs_aggregated;
}

void RunShape(const char* shape, const Table& table, const QuerySpec& query) {
  std::vector<StrategyOverrides> plans(1);  // plans[0]: the chosen plan
  for (int sel = -1; sel < 3; ++sel) {
    for (int agg = -1; agg < kNumAggregationStrategies; ++agg) {
      if (sel < 0 && agg < 0) continue;
      StrategyOverrides o;
      if (sel >= 0) o.selection = static_cast<SelectionStrategy>(sel);
      if (agg >= 0) o.aggregation = static_cast<AggregationStrategy>(agg);
      plans.push_back(o);
    }
  }

  std::string chosen_strategy = "?";
  {
    BIPieScan scan(table, query);
    auto explain = scan.Explain();
    if (explain.ok() && !explain.value().segments.empty()) {
      chosen_strategy = AggregationStrategyName(
          explain.value().segments[0].decision.aggregation);
    }
  }
  std::printf("%s (%zu rows): admission picks %s\n", shape, table.num_rows(),
              chosen_strategy.c_str());

  double chosen_cpr = 0.0;
  ScanStats chosen_stats;
  double best_cpr = 0.0;
  std::string best_name = "(none faster)";
  for (size_t i = 0; i < plans.size(); ++i) {
    ScanOptions options;
    options.num_threads = 1;
    options.overrides = plans[i];
    BIPieScan probe(table, query, options);
    if (!probe.Execute().ok()) continue;  // cannot run on this shape
    const bool same_path = i > 0 && SamePath(probe.stats(), chosen_stats);
    const std::string name = PlanName(plans[i]);
    const double cpr = MeasureCyclesPerRow(
        table.num_rows(), std::string(shape) + "/" + name, [&] {
          auto result = ExecuteQuery(table, query, options);
          if (result.ok()) {
            Consume(result.value().rows.data(),
                    result.value().rows.size() *
                        sizeof(result.value().rows[0]));
          }
        });
    std::printf("  %-30s %7.3f cycles/row%s\n", name.c_str(), cpr,
                same_path ? "  (chosen path)" : "");
    if (i == 0) {
      chosen_cpr = best_cpr = cpr;
      chosen_stats = probe.stats();
    } else if (!same_path && cpr < best_cpr) {
      best_cpr = cpr;
      best_name = name;
    }
  }
  const double regret = best_cpr > 0.0 ? chosen_cpr / best_cpr : 1.0;
  std::printf("  regret %.3f (chosen %.3f, best alternative %s %.3f)\n\n",
              regret, chosen_cpr, best_name.c_str(), best_cpr);
  BenchJsonReport::Get().Add(std::string(shape) + "/regret",
                             {{"regret", regret},
                              {"chosen_cycles_per_row", chosen_cpr},
                              {"best_cycles_per_row", best_cpr}});
}

}  // namespace

int main() {
  PrintBenchHeader("Plan regret",
                   "DESIGN.md 6/17: chosen plan vs every forced "
                   "selection x aggregation plan, cycles/row");
  const size_t rows = BenchRows();
  RunShape("mixed_filtered", MakeMixedTable(rows), MakeMixedQuery());
  RunShape("run_sorted", MakeRunTable(rows), MakeRunQuery());
  RunShape("byteslice_selective", MakeByteSliceTable(rows),
           MakeByteSliceQuery());
  RunShape("short_span_selective", MakeShortSpanTable(rows),
           MakeShortSpanQuery());
  return 0;
}
