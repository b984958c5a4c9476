// Reproduces Figures 8, 9 and 10: best (selection x aggregation) strategy
// across selectivity and number of aggregates.
//
// Three configurations, as in the paper:
//   Figure 8:  8 groups,  7-bit encoded aggregate columns
//   Figure 9: 12 groups, 14-bit
//   Figure 10: 32 groups, 28-bit
//
// For every cell (1..5 sums x 10%..100% selectivity) all nine combinations
// of {sort-based, in-register, multi-aggregate} x {gather, compact,
// special-group} are measured through the real Aggregate Processor (the
// filter result is precomputed, matching §2.3's assumption), and the
// winner with its cycles/row/sum is printed.
//
// Paper shape: in-register dominates Figure 8; multi-aggregate takes over
// as widths/groups grow (Figures 9-10); gather pairs with low selectivity,
// special-group with high; costs per sum fall as sums are added.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/aggregate_processor.h"
#include "storage/table.h"
#include "vector/selection_vector.h"

using namespace bipie;        // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

// Rows default lower than the kernel benches: the matrix measures 9 combos
// x 50 cells x 3 configs.
size_t MatrixRows() {
  if (const char* env = std::getenv("BIPIE_BENCH_ROWS")) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return size_t{1} << 21;
}

Table MakeConfigTable(size_t n, int num_groups, int bits, uint64_t seed) {
  Schema schema;
  schema.push_back({"g", ColumnType::kInt64, EncodingChoice::kDictionary});
  for (int c = 0; c < 5; ++c) {
    schema.push_back({"a" + std::to_string(c), ColumnType::kInt64,
                      EncodingChoice::kBitPacked});
  }
  Table table(std::move(schema));
  TableAppender app(&table, n);
  Rng rng(seed);
  std::vector<int64_t> row(6);
  const int64_t vmax = static_cast<int64_t>(LowBitsMask(bits));
  for (size_t i = 0; i < n; ++i) {
    row[0] = static_cast<int64_t>(rng.NextBounded(num_groups));
    for (int c = 0; c < 5; ++c) {
      row[1 + c] = static_cast<int64_t>(rng.NextBounded(vmax + 1));
    }
    app.AppendRow(row);
  }
  app.Flush();
  return table;
}

const char* ComboAbbrev(AggregationStrategy a, SelectionStrategy s) {
  static char buf[16];
  const char* an = a == AggregationStrategy::kSortBased      ? "Sort"
                   : a == AggregationStrategy::kInRegister   ? "Reg"
                                                             : "Multi";
  const char* sn = s == SelectionStrategy::kGather   ? "G"
                   : s == SelectionStrategy::kCompact ? "C"
                                                      : "S";
  std::snprintf(buf, sizeof(buf), "%s+%s", an, sn);
  return buf;
}

void RunConfig(const char* figure, int num_groups, int bits) {
  const size_t n = MatrixRows();
  std::printf("--- %s: %d groups, %d-bit encoding ---\n", figure, num_groups,
              bits);
  Table table = MakeConfigTable(n, num_groups, bits, 1000 + bits);

  const AggregationStrategy aggs[] = {AggregationStrategy::kSortBased,
                                      AggregationStrategy::kInRegister,
                                      AggregationStrategy::kMultiAggregate};
  const SelectionStrategy sels[] = {SelectionStrategy::kGather,
                                    SelectionStrategy::kCompact,
                                    SelectionStrategy::kSpecialGroup};

  std::printf("%5s |", "#agg");
  for (int pct = 10; pct <= 100; pct += 10) std::printf("  %9d%%", pct);
  std::printf("\n");

  for (int sums = 1; sums <= 5; ++sums) {
    QuerySpec query;
    query.group_by = {"g"};
    query.aggregates.push_back(AggregateSpec::Count());
    for (int c = 0; c < sums; ++c) {
      query.aggregates.push_back(AggregateSpec::Sum("a" + std::to_string(c)));
    }
    // The processor requires a declared filter for special-group selection;
    // the selection bytes themselves are precomputed below.
    query.filters.emplace_back("a0", CompareOp::kGe, int64_t{0});

    std::printf("%4dx |", sums);
    for (int pct = 10; pct <= 100; pct += 10) {
      auto sel = MakeSelection(n, pct / 100.0, 77 * pct);
      const uint8_t* sel_ptr = sel.data();
      double best = 1e30;
      std::string best_name = "n/a";
      for (AggregationStrategy a : aggs) {
        for (SelectionStrategy s : sels) {
          StrategyOverrides overrides;
          overrides.aggregation = a;
          overrides.selection = s;
          const SegmentPlan plan(table, 0, query, overrides);
          AggregateProcessor processor;
          if (!processor.Bind(plan).ok()) {
            continue;  // infeasible combo (e.g. 33 in-register groups)
          }
          const double cycles = MeasureCyclesPerRow(
              n,
              [&] {
                for (size_t start = 0; start < n; start += kBatchRows) {
                  const size_t m = std::min(kBatchRows, n - start);
                  Status st = processor.ProcessBatch(
                      start, m, sel_ptr + start,
                      CountSelected(sel_ptr + start, m));
                  BIPIE_DCHECK(st.ok());
                }
              },
              3);
          const double per_sum = cycles / sums;
          if (per_sum < best) {
            best = per_sum;
            best_name = ComboAbbrev(a, s);
          }
        }
      }
      std::printf(" %7s:%3.1f", best_name.c_str(), best);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Figures 8/9/10: best strategy combination per (sums x selectivity)",
      "BIPie SIGMOD'18 Figures 8, 9, 10 (cells show winner : "
      "cycles/row/sum)");
  RunConfig("Figure 8", 8, 7);
  RunConfig("Figure 9", 12, 14);
  RunConfig("Figure 10", 32, 28);
  return 0;
}
