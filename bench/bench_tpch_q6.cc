// Extension benchmark (not a paper table): TPC-H Query 6.
//
// Q6 is the low-selectivity mirror of Q1: a ~2%-selective conjunctive
// range filter and a single expression sum, no group-by. It showcases the
// other end of the selection spectrum — gather selection and segment
// elimination instead of special-group processing.
#include <cstdio>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "bench/bench_util.h"
#include "sql/parser.h"
#include "tpch/q6.h"

using namespace bipie;        // NOLINT
using namespace bipie::bench;  // NOLINT

int main() {
  PrintBenchHeader("Extension: TPC-H Query 6, clocks/row across engines",
                   "not in the paper; exercises gather selection at ~2% "
                   "selectivity");
  LineitemOptions options;
  options.num_rows = BenchRows();
  std::printf("generating lineitem (%zu rows)...\n", options.num_rows);
  Table lineitem = MakeLineitemTable(options);
  const size_t rows = lineitem.num_rows();
  const QuerySpec query = MakeQ6Query(lineitem);

  auto reference = ExecuteQueryNaive(lineitem, query);
  BIPIE_DCHECK(reference.ok());

  QueryResult q6;
  ScanStats stats;
  const double bipie_cycles = MeasureCyclesPerRow(rows, "bipie", [&] {
    BIPieScan scan(lineitem, query);
    auto r = scan.Execute();
    BIPIE_DCHECK(r.ok());
    q6 = std::move(r).ValueOrDie();
    stats = scan.stats();
  });
  BIPIE_DCHECK(q6.rows[0].sums == reference.value().rows[0].sums);

  // The service path: the same query parsed from SQL text.
  auto parsed = ParseQuery(Q6Sql(), lineitem);
  BIPIE_DCHECK(parsed.ok());
  const QuerySpec sql_query = parsed.value().spec;
  const double sql_cycles = MeasureCyclesPerRow(rows, "bipie_sql", [&] {
    auto r = ExecuteQuery(lineitem, sql_query);
    BIPIE_DCHECK(r.ok());
    BIPIE_DCHECK(r.value().rows[0].sums == reference.value().rows[0].sums);
  });

  const double hash_cycles = MeasureCyclesPerRow(
      rows,
      [&] {
        auto r = ExecuteQueryHashAgg(lineitem, query);
        BIPIE_DCHECK(r.ok());
      },
      3, "hash_agg_baseline");
  const double naive_cycles = MeasureCyclesPerRow(
      rows,
      [&] {
        auto r = ExecuteQueryNaive(lineitem, query);
        BIPIE_DCHECK(r.ok());
      },
      1, "naive_baseline");

  std::printf("revenue = %.2f over %llu qualifying rows (%.2f%% selectivity)\n",
              Q6RevenueDollars(q6),
              static_cast<unsigned long long>(q6.rows[0].count),
              100.0 * static_cast<double>(stats.rows_selected) /
                  static_cast<double>(stats.rows_scanned));
  std::printf("selection batches: gather=%zu compact=%zu special=%zu\n\n",
              stats.selection.gather, stats.selection.compact,
              stats.selection.special_group);
  std::printf("%-28s %10s\n", "Engine", "clocks/row");
  std::printf("%-28s %10.1f\n", "bipie (this repo)", bipie_cycles);
  std::printf("%-28s %10.1f\n", "bipie, spec parsed from SQL", sql_cycles);
  std::printf("%-28s %10.1f\n", "hash-agg baseline", hash_cycles);
  std::printf("%-28s %10.1f\n", "naive decode-all baseline", naive_cycles);
  std::printf("\nshape check: bipie vs hash baseline: %.1fx faster\n",
              hash_cycles / bipie_cycles);
  return 0;
}
