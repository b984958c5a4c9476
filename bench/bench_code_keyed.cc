// Code-keyed aggregation sweep (DESIGN.md §20): forced code-keyed against
// forced multi-aggregate, the plan it replaces, in interleaved pairs.
//
// Synthetic shapes sum c_j * (100 - k0) * (100 + k1) per carrier c_j,
// grouped by g, under a filter on f. The sweeps vary one factor at a time
// around a Q1-like center (2 carriers, ~96% selectivity, 512 keys):
//   * keys      (groups + special slot) x d0 x d1, from 8 to 16384;
//   * carriers  1 to 3;
//   * selection none, ~96% (special group), ~50% (compact), ~2% (gather);
//   * domain    one key column of 16 to 256 codes.
// The cap and domain limits are raised past their defaults
// (CodeKeyLimits), so the sweep also measures the shapes the default plan
// rejects. Last, TPC-H Q1 and Q6 on lineitem: the adaptive plan against
// forced multi-aggregate (for Q1 the paper's §6.3 plan, special group +
// multi-aggregate).
//
// Each pair times both plans single-threaded, alternating which goes
// first, and reports the median cycles/row of each and how many pairs
// code-keyed won.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/scan.h"
#include "obs/plan_explain.h"
#include "tpch/lineitem.h"
#include "tpch/q1.h"
#include "tpch/q6.h"

using namespace bipie;         // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

struct Shape {
  int groups = 7;       // distinct g values
  int d0 = 8;           // codes of k0 (1: no key column)
  int d1 = 8;           // codes of k1
  int carriers = 2;     // 1..3
  int f_pass = 96;      // % of rows passing f < f_pass; 100: no filter
};

Table MakeShapeTable(const Shape& s, size_t rows) {
  Table table({
      {"g", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"k0", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"k1", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"c0", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"c1", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"c2", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"f", ColumnType::kInt64, EncodingChoice::kBitPacked},
  });
  // Segments of one default morsel: the per-segment coefficient tables and
  // the per-morsel Finish fold weigh as much as they do on the pool.
  TableAppender app(&table, /*segment_rows=*/kDefaultMorselRows);
  Rng rng(7001);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({rng.NextInRange(0, s.groups - 1),
                   rng.NextInRange(0, s.d0 - 1), rng.NextInRange(0, s.d1 - 1),
                   rng.NextInRange(90000, 10000000),
                   rng.NextInRange(1, 5000), rng.NextInRange(100, 900000),
                   rng.NextInRange(0, 99)});
  }
  app.Flush();
  return table;
}

QuerySpec MakeShapeQuery(const Shape& s) {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates.push_back(AggregateSpec::Count());
  for (int j = 0; j < s.carriers; ++j) {
    query.aggregates.push_back(AggregateSpec::SumExpr(Expr::Mul(
        Expr::Mul(Expr::Column(3 + j),
                  Expr::Sub(Expr::Constant(100), Expr::Column(1))),
        Expr::Add(Expr::Constant(100), Expr::Column(2)))));
  }
  if (s.f_pass < 100) {
    query.filters.emplace_back("f", CompareOp::kLt, int64_t{s.f_pass});
  }
  return query;
}

struct PairResult {
  double code_keyed = 0.0;  // median cycles/row
  double other = 0.0;
  int wins = 0;  // pairs code-keyed ran faster
  int pairs = 0;
};

double TimeOnce(const Table& table, const QuerySpec& query,
                const ScanOptions& options) {
  const uint64_t start = ReadCycleCounter();
  auto result = ExecuteQuery(table, query, options);
  const uint64_t stop = ReadCycleCounter();
  if (result.ok()) {
    Consume(result.value().rows.data(),
            result.value().rows.size() * sizeof(result.value().rows[0]));
  }
  return static_cast<double>(stop - start) /
         static_cast<double>(table.num_rows());
}

// Interleaved pairs of the code-keyed plan `ck` and the plan `other`; both
// must run (checked by the caller).
PairResult MeasurePairs(const Table& table, const QuerySpec& query,
                        const ScanOptions& ck, const ScanOptions& other) {
  const int pairs = std::max(3, 2 * BenchRepeats() + 1);
  TimeOnce(table, query, ck);  // warm-up
  TimeOnce(table, query, other);
  std::vector<double> a;
  std::vector<double> b;
  PairResult r;
  for (int p = 0; p < pairs; ++p) {
    double ta;
    double tb;
    if (p % 2 == 0) {
      ta = TimeOnce(table, query, ck);
      tb = TimeOnce(table, query, other);
    } else {
      tb = TimeOnce(table, query, other);
      ta = TimeOnce(table, query, ck);
    }
    a.push_back(ta);
    b.push_back(tb);
    if (ta < tb) ++r.wins;
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  r.code_keyed = a[a.size() / 2];
  r.other = b[b.size() / 2];
  r.pairs = pairs;
  return r;
}

// The code-keyed key count and the adaptive strategy of segment 0.
void Describe(const Table& table, const QuerySpec& query,
              const ScanOptions& ck, int* num_keys, std::string* chosen) {
  BIPieScan forced(table, query, ck);
  auto explain = forced.Explain();
  *num_keys = explain.ok() && !explain.value().segments.empty()
                  ? explain.value().segments[0].decision.code_keyed.num_keys
                  : 0;
  BIPieScan adaptive(table, query);
  auto chosen_explain = adaptive.Explain();
  *chosen = chosen_explain.ok() && !chosen_explain.value().segments.empty()
                ? AggregationStrategyName(
                      chosen_explain.value().segments[0].decision.aggregation)
                : "?";
}

void RunShape(const std::string& sweep, const Shape& s, size_t rows) {
  const Table table = MakeShapeTable(s, rows);
  const QuerySpec query = MakeShapeQuery(s);
  ScanOptions ck;
  ck.overrides.aggregation = AggregationStrategy::kCodeKeyed;
  ck.overrides.code_key_limits.max_domain = 256;
  ck.overrides.code_key_limits.max_code_keys = 65536;
  ScanOptions multi;
  multi.overrides.aggregation = AggregationStrategy::kMultiAggregate;
  int num_keys = 0;
  std::string chosen;
  Describe(table, query, ck, &num_keys, &chosen);
  const std::string label = sweep + "/g" + std::to_string(s.groups) + "_d" +
                            std::to_string(s.d0) + "x" + std::to_string(s.d1) +
                            "_c" + std::to_string(s.carriers) + "_f" +
                            std::to_string(s.f_pass);
  {
    BIPieScan a(table, query, ck);
    BIPieScan b(table, query, multi);
    if (!a.Execute().ok() || !b.Execute().ok()) {
      std::printf("%-34s skipped: a forced plan cannot run\n", label.c_str());
      return;
    }
  }
  const PairResult r = MeasurePairs(table, query, ck, multi);
  std::printf("%-34s %6d %9.3f %9.3f %7.2f %4d/%-3d %s\n", label.c_str(),
              num_keys, r.code_keyed, r.other, r.other / r.code_keyed, r.wins,
              r.pairs, chosen.c_str());
  BenchJsonReport::Get().Add(
      label, {{"keys", static_cast<double>(num_keys)},
              {"code_keyed_cycles_per_row", r.code_keyed},
              {"multi_aggregate_cycles_per_row", r.other},
              {"code_keyed_wins", static_cast<double>(r.wins)},
              {"pairs", static_cast<double>(r.pairs)}});
}

void RunTpch(const char* name, const Table& lineitem, const QuerySpec& query,
             const StrategyOverrides& paper_plan) {
  ScanOptions adaptive;
  ScanOptions paper;
  paper.overrides = paper_plan;
  int num_keys = 0;
  std::string chosen;
  Describe(lineitem, query, adaptive, &num_keys, &chosen);
  const PairResult r = MeasurePairs(lineitem, query, adaptive, paper);
  std::printf("%-34s %6s %9.3f %9.3f %7.2f %4d/%-3d %s\n", name, "-",
              r.code_keyed, r.other, r.other / r.code_keyed, r.wins, r.pairs,
              chosen.c_str());
  BenchJsonReport::Get().Add(
      name, {{"adaptive_cycles_per_row", r.code_keyed},
             {"forced_multi_aggregate_cycles_per_row", r.other},
             {"adaptive_wins", static_cast<double>(r.wins)},
             {"pairs", static_cast<double>(r.pairs)}});
}

}  // namespace

int main() {
  PrintBenchHeader("Code-keyed aggregation sweep",
                   "DESIGN.md 20: forced code-keyed vs forced "
                   "multi-aggregate, single-threaded cycles/row");
  const size_t rows = BenchRows();
  std::printf("%-34s %6s %9s %9s %7s %8s %s\n", "shape", "keys", "code-keyed",
              "multi-agg", "ratio", "ck wins", "adaptive plan");

  // Key count: (7 groups + special slot) x d0 x d1, then 16 slots x 256,
  // 512 and 1024.
  const int domains[][2] = {{1, 1}, {2, 2}, {4, 4}, {8, 8},
                            {8, 16}, {16, 16}};
  for (const auto& d : domains) {
    Shape s;
    s.d0 = d[0];
    s.d1 = d[1];
    RunShape("keys", s, rows);
  }
  for (int d1 : {16, 32}) {
    for (int d0 : {16, 32}) {
      if (d0 > d1) continue;
      Shape s;
      s.groups = 15;
      s.d0 = d0;
      s.d1 = d1;
      RunShape("keys", s, rows);
    }
  }
  // Carriers, at 512 and 1024 keys.
  for (int carriers = 1; carriers <= 3; ++carriers) {
    for (int d1 : {8, 16}) {
      Shape s;
      s.carriers = carriers;
      s.d1 = d1;
      RunShape("carriers", s, rows);
    }
  }
  // Selection mode, at 512 and 4096 keys: below a few percent the
  // per-segment costs (coefficients, the Finish fold) meet fewer rows.
  for (int f_pass : {100, 50, 10, 5, 2, 1}) {
    Shape s;
    s.f_pass = f_pass;
    RunShape("selection", s, rows);
  }
  for (int f_pass : {10, 5, 2, 1}) {
    Shape s;
    s.groups = 15;
    s.d0 = 16;
    s.d1 = 16;
    s.f_pass = f_pass;
    RunShape("selection", s, rows);
  }
  // Domain of one key column (k1 constant), 4 group slots.
  for (int d0 : {16, 32, 64, 128, 256}) {
    Shape s;
    s.groups = 3;
    s.d0 = d0;
    s.d1 = 1;
    RunShape("domain", s, rows);
  }

  LineitemOptions options;
  options.num_rows = rows;
  const Table lineitem = MakeLineitemTable(options);
  StrategyOverrides paper_q1;
  paper_q1.selection = SelectionStrategy::kSpecialGroup;
  paper_q1.aggregation = AggregationStrategy::kMultiAggregate;
  RunTpch("tpch_q1 (vs special+multi-agg)", lineitem, MakeQ1Query(lineitem),
          paper_q1);
  StrategyOverrides multi_q6;
  multi_q6.aggregation = AggregationStrategy::kMultiAggregate;
  RunTpch("tpch_q6 (vs multi-agg)", lineitem, MakeQ6Query(lineitem),
          multi_q6);
  return 0;
}
