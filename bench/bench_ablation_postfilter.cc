// Ablation: special-group vs compaction across selectivity and per-row
// post-filter cost.
//
// §6.2: "The result of the experiment between compact and special group
// selection depends on the cost of post-filter processing of a row. As
// this cost grows, the compaction becomes a better choice." Special-group
// pushes rejected rows through the whole aggregation pipeline and discards
// them at the end; compaction pays per-column passes once so every later
// stage touches only surviving rows. Which side wins therefore depends on
// (a) how many rows the filter rejects and (b) how much work each
// surviving-row stage performs. This bench sweeps both axes.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/aggregate_processor.h"
#include "storage/table.h"
#include "vector/selection_vector.h"

using namespace bipie;        // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

Table MakeTable(size_t n, uint64_t seed) {
  Schema schema;
  schema.push_back({"g", ColumnType::kInt64, EncodingChoice::kDictionary});
  for (int c = 0; c < 4; ++c) {
    schema.push_back({"a" + std::to_string(c), ColumnType::kInt64,
                      EncodingChoice::kBitPacked});
  }
  Table table(std::move(schema));
  TableAppender app(&table, n);
  Rng rng(seed);
  std::vector<int64_t> row(5);
  for (size_t i = 0; i < n; ++i) {
    row[0] = static_cast<int64_t>(rng.NextBounded(12));
    for (int c = 0; c < 4; ++c) {
      row[1 + c] = static_cast<int64_t>(rng.NextBounded(1 << 14));
    }
    app.AppendRow(row);
  }
  app.Flush();
  return table;
}

double MeasureCombo(const Table& table, const QuerySpec& query,
                    SelectionStrategy sel, const AlignedBuffer& sel_bytes) {
  const Segment& segment = table.segment(0);
  StrategyOverrides overrides;
  overrides.selection = sel;
  overrides.aggregation = AggregationStrategy::kMultiAggregate;
  const SegmentPlan plan(table, 0, query, overrides);
  AggregateProcessor processor;
  const Status st = processor.Bind(plan);
  BIPIE_DCHECK(st.ok());
  const size_t n = segment.num_rows();
  const uint8_t* sel_ptr = sel_bytes.data();
  return MeasureCyclesPerRow(n, [&] {
    for (size_t start = 0; start < n; start += kBatchRows) {
      const size_t m = std::min(kBatchRows, n - start);
      Status ps = processor.ProcessBatch(start, m, sel_ptr + start,
                                         CountSelected(sel_ptr + start, m));
      BIPIE_DCHECK(ps.ok());
    }
  });
}

QuerySpec MakeWorkload(const Table& table, int num_exprs) {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates.push_back(AggregateSpec::Count());
  query.aggregates.push_back(AggregateSpec::Sum("a0"));
  for (int e = 0; e < num_exprs; ++e) {
    ExprPtr expr = Expr::Mul(
        Expr::Column(table.FindColumn("a" + std::to_string(1 + e))),
        Expr::Sub(Expr::Constant(100), Expr::Column(table.FindColumn("a0"))));
    query.aggregates.push_back(AggregateSpec::SumExpr(expr));
  }
  query.filters.emplace_back("a0", CompareOp::kGe, int64_t{0});
  return query;
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Ablation: special-group vs compaction over selectivity x per-row "
      "cost",
      "BIPie SIGMOD'18 §6.2 (winner depends on post-filter work; cells show "
      "special/compact cycles/row)");
  const size_t n = std::min<size_t>(BenchRows(), size_t{1} << 21);
  Table table = MakeTable(n, 99);

  const double selectivities[] = {0.5, 0.9, 0.98};
  std::printf("%-28s", "workload \\ selectivity");
  for (double s : selectivities) std::printf(" %14.0f%%", s * 100);
  std::printf("\n");
  for (int exprs : {0, 1, 3}) {
    const QuerySpec query = MakeWorkload(table, exprs);
    std::printf("1 raw sum + %d expr sums     ", exprs);
    for (double s : selectivities) {
      auto sel_bytes =
          MakeSelection(n, s, static_cast<uint64_t>(s * 1000) + exprs);
      const double special = MeasureCombo(
          table, query, SelectionStrategy::kSpecialGroup, sel_bytes);
      const double compact =
          MeasureCombo(table, query, SelectionStrategy::kCompact, sel_bytes);
      char cell[48];
      std::snprintf(cell, sizeof(cell), "%.1f/%.1f %s", special, compact,
                    special <= compact ? "S" : "C");
      std::printf(" %15s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: 'S' = special-group wins, 'C' = compaction wins.\n"
      "The Section 6.2 trade-off in action: compaction owns the 50%% "
      "column (dropping half the rows\n"
      "pays for its passes many times over), special-group owns the 98%% "
      "column (almost nothing is\n"
      "wasted, and it skips the per-column compaction passes entirely). "
      "Between them the winner is\n"
      "decided by how much post-filter work each surviving row carries — "
      "exactly the cost balance\n"
      "the paper describes, and why the engine decides per batch from "
      "measured selectivity.\n");
  return 0;
}
