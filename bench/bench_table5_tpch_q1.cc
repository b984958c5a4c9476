// Reproduces Table 5: TPC-H Query 1 performance comparison.
//
// Runs Q1 end to end (filter evaluation included) through:
//   * bipie (BIPie reproduction: special-group selection, in-register
//     count, multi-aggregate sums), on the hand-built spec (`bipie`) and on
//     the spec the service parses from Q1's SQL text (`bipie_sql`, which
//     has a fresh expression node per occurrence),
//   * the row-at-a-time hash-aggregation baseline (classical engine proxy),
//   * the naive decode-everything engine,
// and prints cycles/row next to the published engine results the paper
// normalizes against. Published rows are quoted constants from Table 5 —
// the paper itself compares against publications, not local runs.
//
// Paper result: MemSQL/BIPie at 8.6 clocks/row, 2x faster than the best
// handwritten implementation and 3.3x faster than the fastest engine
// (Hyper at 28.8).
#include <cstdio>
#include <vector>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "bench/bench_util.h"
#include "sql/parser.h"
#include "tpch/q1.h"

using namespace bipie;        // NOLINT
using namespace bipie::bench;  // NOLINT

int main() {
  PrintBenchHeader("Table 5: TPC-H Query 1, clocks/row across engines",
                   "BIPie SIGMOD'18 Table 5 (paper: MemSQL/BIPie 8.6, "
                   "Hyper 28.8, CWI/Handwritten 17.3)");
  LineitemOptions options;
  options.num_rows = BenchRows();
  std::printf("generating lineitem (%zu rows)...\n", options.num_rows);
  Table lineitem = MakeLineitemTable(options);
  const size_t rows = lineitem.num_rows();
  const QuerySpec query = MakeQ1Query(lineitem);

  // Correctness gate before timing.
  auto reference = ExecuteQueryNaive(lineitem, query);
  BIPIE_DCHECK(reference.ok());

  const int repeats = BenchRepeats();
  QueryResult bipie_result;
  const double bipie_cycles = MeasureCyclesPerRow(
      rows,
      [&] {
        auto r = RunQ1(lineitem);
        BIPIE_DCHECK(r.ok());
        bipie_result = std::move(r).ValueOrDie();
      },
      repeats, "bipie");
  BIPIE_DCHECK(bipie_result.rows.size() == reference.value().rows.size());
  for (size_t r = 0; r < bipie_result.rows.size(); ++r) {
    BIPIE_DCHECK(bipie_result.rows[r].sums == reference.value().rows[r].sums);
  }

  // The service path: the same query parsed from SQL text.
  auto parsed = ParseQuery(Q1Sql(), lineitem);
  BIPIE_DCHECK(parsed.ok());
  const QuerySpec sql_query = parsed.value().spec;
  QueryResult sql_result;
  const double sql_cycles = MeasureCyclesPerRow(
      rows,
      [&] {
        auto r = ExecuteQuery(lineitem, sql_query);
        BIPIE_DCHECK(r.ok());
        sql_result = std::move(r).ValueOrDie();
      },
      repeats, "bipie_sql");
  BIPIE_DCHECK(sql_result.rows.size() == reference.value().rows.size());
  for (size_t r = 0; r < sql_result.rows.size(); ++r) {
    BIPIE_DCHECK(sql_result.rows[r].sums == reference.value().rows[r].sums);
  }

  const double hash_cycles = MeasureCyclesPerRow(
      rows,
      [&] {
        auto r = ExecuteQueryHashAgg(lineitem, query);
        BIPIE_DCHECK(r.ok());
        Consume(&r.value().rows[0], sizeof(ResultRow));
      },
      std::min(repeats, 3), "hash_agg_baseline");
  const double naive_cycles = MeasureCyclesPerRow(
      rows,
      [&] {
        auto r = ExecuteQueryNaive(lineitem, query);
        BIPIE_DCHECK(r.ok());
        Consume(&r.value().rows[0], sizeof(ResultRow));
      },
      1, "naive_baseline");

  const double hz = TscHz();
  std::printf("\nQ1 result (this run):\n%s\n",
              FormatQ1Result(bipie_result).c_str());

  std::printf("%-28s %10s %12s %s\n", "Engine", "clocks/row", "time [s]",
              "source");
  struct Published {
    const char* engine;
    double clocks_per_row;
  };
  const Published published[] = {
      {"EXASol 5.0", 336.0},        {"Vectorwise 3", 100.5},
      {"SQL Server 2014", 114.8},   {"SQL Server 2016", 46.5},
      {"Hyper", 28.8},              {"Voodoo", 38.9},
      {"CWI/Handwritten", 17.3},    {"Hyper/Datablocks", 47.0},
      {"MemSQL/BIPie (paper)", 8.6},
  };
  for (const Published& p : published) {
    std::printf("%-28s %10.1f %12s %s\n", p.engine, p.clocks_per_row, "-",
                "published (quoted from the paper)");
  }
  auto print_ours = [&](const char* name, double cycles) {
    std::printf("%-28s %10.1f %12.3f %s\n", name, cycles,
                cycles * static_cast<double>(rows) / hz, "measured here");
  };
  print_ours("bipie (this repo)", bipie_cycles);
  print_ours("bipie, spec parsed from SQL", sql_cycles);
  print_ours("hash-agg baseline", hash_cycles);
  print_ours("naive decode-all baseline", naive_cycles);

  std::printf(
      "\nshape check: bipie vs row-at-a-time hash baseline: %.1fx faster "
      "(paper's BIPie-vs-engines margin: 3.3x..39x)\n",
      hash_cycles / bipie_cycles);
  return 0;
}
