#include "tpch/q1.h"

#include <cinttypes>
#include <cstdio>

namespace bipie {

QuerySpec MakeQ1Query(const Table& lineitem) {
  const int ext = lineitem.FindColumn("l_extendedprice");
  const int disc = lineitem.FindColumn("l_discount");
  const int tax = lineitem.FindColumn("l_tax");
  BIPIE_DCHECK(ext >= 0 && disc >= 0 && tax >= 0);

  // (1 - l_discount) -> (100 - disc) at scale 1e-2; similarly for tax.
  ExprPtr disc_price = Expr::Mul(
      Expr::Column(ext), Expr::Sub(Expr::Constant(100), Expr::Column(disc)));
  ExprPtr charge = Expr::Mul(
      disc_price, Expr::Add(Expr::Constant(100), Expr::Column(tax)));

  QuerySpec query;
  query.group_by = {"l_returnflag", "l_linestatus"};
  query.aggregates = {
      AggregateSpec::Sum("l_quantity"),
      AggregateSpec::Sum("l_extendedprice"),
      AggregateSpec::SumExpr(disc_price),
      AggregateSpec::SumExpr(charge),
      AggregateSpec::Avg("l_quantity"),
      AggregateSpec::Avg("l_extendedprice"),
      AggregateSpec::Avg("l_discount"),
      AggregateSpec::Count(),
  };
  query.filters.emplace_back("l_shipdate", CompareOp::kLe, kQ1CutoffDate);
  return query;
}

std::string Q1Sql() {
  return "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
         "sum(l_extendedprice), sum(l_extendedprice * (100 - l_discount)), "
         "sum(l_extendedprice * (100 - l_discount) * (100 + l_tax)), "
         "avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) "
         "FROM lineitem WHERE l_shipdate <= " +
         std::to_string(kQ1CutoffDate) +
         " GROUP BY l_returnflag, l_linestatus";
}

Result<QueryResult> RunQ1(const Table& lineitem, ScanOptions options) {
  return ExecuteQuery(lineitem, MakeQ1Query(lineitem), std::move(options));
}

std::string FormatQ1Result(const QueryResult& result) {
  std::string out;
  out +=
      "flag status |      sum_qty |   sum_base_price |   sum_disc_price |"
      "       sum_charge | avg_qty | avg_price | avg_disc |    count\n";
  char line[512];
  for (size_t r = 0; r < result.rows.size(); ++r) {
    const ResultRow& row = result.rows[r];
    // Scales: qty/price hundredths; disc_price 1e-4; charge 1e-6;
    // discount hundredths.
    const double sum_qty = static_cast<double>(row.sums[kQ1SumQty]) / 100.0;
    const double sum_base =
        static_cast<double>(row.sums[kQ1SumBasePrice]) / 100.0;
    const double sum_disc_price =
        static_cast<double>(row.sums[kQ1SumDiscPrice]) / 10000.0;
    const double sum_charge =
        static_cast<double>(row.sums[kQ1SumCharge]) / 1e6;
    const double cnt = static_cast<double>(row.count);
    std::snprintf(line, sizeof(line),
                  "%4s %6s | %12.2f | %16.2f | %16.2f | %16.2f | %7.2f | "
                  "%9.2f | %8.4f | %8" PRIu64 "\n",
                  row.group[0].string_value.c_str(),
                  row.group[1].string_value.c_str(), sum_qty, sum_base,
                  sum_disc_price, sum_charge,
                  cnt == 0 ? 0 : sum_qty / cnt,
                  cnt == 0 ? 0 : sum_base / cnt,
                  cnt == 0
                      ? 0
                      : static_cast<double>(row.sums[kQ1AvgDisc]) / cnt /
                            100.0,
                  row.count);
    out += line;
  }
  return out;
}

}  // namespace bipie
