#include "tpch/q6.h"

namespace bipie {

QuerySpec MakeQ6Query(const Table& lineitem) {
  const int ext = lineitem.FindColumn("l_extendedprice");
  const int disc = lineitem.FindColumn("l_discount");
  BIPIE_DCHECK(ext >= 0 && disc >= 0);

  QuerySpec query;
  query.aggregates = {
      AggregateSpec::SumExpr(
          Expr::Mul(Expr::Column(ext), Expr::Column(disc))),
      AggregateSpec::Count(),
  };
  // Date range and BETWEEN use the fused range predicate: one decode pass
  // per column instead of two.
  query.filters.push_back(
      ColumnPredicate::Between("l_shipdate", kQ6DateLo, kQ6DateHi - 1));
  // BETWEEN 0.05 AND 0.07 in hundredths.
  query.filters.push_back(ColumnPredicate::Between("l_discount", 5, 7));
  // quantity < 24 units, stored in hundredths.
  query.filters.emplace_back("l_quantity", CompareOp::kLt, int64_t{2400});
  return query;
}

std::string Q6Sql() {
  return "SELECT sum(l_extendedprice * l_discount), count(*) FROM lineitem "
         "WHERE l_shipdate BETWEEN " +
         std::to_string(kQ6DateLo) + " AND " + std::to_string(kQ6DateHi - 1) +
         " AND l_discount BETWEEN 5 AND 7 AND l_quantity < 2400";
}

Result<QueryResult> RunQ6(const Table& lineitem, ScanOptions options) {
  return ExecuteQuery(lineitem, MakeQ6Query(lineitem), std::move(options));
}

double Q6RevenueDollars(const QueryResult& result) {
  if (result.rows.empty()) return 0.0;
  // extendedprice(1e-2) * discount(1e-2) -> 1e-4 dollars.
  return static_cast<double>(result.rows[0].sums[0]) / 1e4;
}

}  // namespace bipie
