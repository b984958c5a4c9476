// TPC-H Query 1 over the bipie columnstore (§6.3).
//
//   SELECT l_returnflag, l_linestatus,
//          sum(l_quantity), sum(l_extendedprice),
//          sum(l_extendedprice * (1 - l_discount)),
//          sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
//          avg(l_quantity), avg(l_extendedprice), avg(l_discount),
//          count(*)
//   FROM lineitem
//   WHERE l_shipdate <= date '1998-12-01' - interval '90' day
//   GROUP BY l_returnflag, l_linestatus
//   ORDER BY l_returnflag, l_linestatus;
//
// Decimals are scaled integers: the (1 - l_discount) and (1 + l_tax)
// factors become (100 - discount_hundredths) and (100 + tax_hundredths),
// so disc_price sums carry scale 1e-4 and charge sums scale 1e-6.
#ifndef BIPIE_TPCH_Q1_H_
#define BIPIE_TPCH_Q1_H_

#include <string>

#include "core/scan.h"
#include "tpch/lineitem.h"

namespace bipie {

// Aggregate slot order in the Q1 QuerySpec.
enum Q1Aggregate : int {
  kQ1SumQty = 0,
  kQ1SumBasePrice = 1,
  kQ1SumDiscPrice = 2,
  kQ1SumCharge = 3,
  kQ1AvgQty = 4,
  kQ1AvgPrice = 5,
  kQ1AvgDisc = 6,
  kQ1Count = 7,
};

// Builds the Q1 query spec against a lineitem table created by
// MakeLineitemTable.
QuerySpec MakeQ1Query(const Table& lineitem);

// Q1 as SQL text, the statement the service parses. ParseQuery(Q1Sql(),
// lineitem) aggregates what MakeQ1Query builds, in the same slot order, but
// with a fresh expression node per occurrence.
std::string Q1Sql();

// Runs Q1 through the BIPie scan (optionally with forced strategies).
Result<QueryResult> RunQ1(const Table& lineitem, ScanOptions options = {});

// Renders the result the way psql would print Q1 (decimal scaling applied).
std::string FormatQ1Result(const QueryResult& result);

}  // namespace bipie

#endif  // BIPIE_TPCH_Q1_H_
