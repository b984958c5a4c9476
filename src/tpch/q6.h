// TPC-H Query 6 over the bipie columnstore.
//
//   SELECT sum(l_extendedprice * l_discount) AS revenue
//   FROM lineitem
//   WHERE l_shipdate >= date '1994-01-01'
//     AND l_shipdate < date '1995-01-01'
//     AND l_discount BETWEEN 0.05 AND 0.07
//     AND l_quantity < 24;
//
// Not in the paper's evaluation, but squarely inside the workload shape
// (§2.3): a single scan, a conjunctive range filter selecting ~2% of rows,
// one sum, no group-by. It is the natural counterpart to Q1 — where Q1's
// ~98% selectivity exercises special-group selection, Q6's ~2% exercises
// gather selection.
//
// Scales: extendedprice in cents, discount in hundredths, so revenue
// carries scale 1e-4 dollars.
#ifndef BIPIE_TPCH_Q6_H_
#define BIPIE_TPCH_Q6_H_

#include <string>

#include "core/scan.h"
#include "tpch/lineitem.h"

namespace bipie {

// Day numbers for 1994-01-01 and 1995-01-01 relative to 1992-01-01.
inline constexpr int64_t kQ6DateLo = 731;
inline constexpr int64_t kQ6DateHi = 1096;

QuerySpec MakeQ6Query(const Table& lineitem);

// Q6 as SQL text, the statement the service parses; it aggregates what
// MakeQ6Query builds, in the same slot order.
std::string Q6Sql();

Result<QueryResult> RunQ6(const Table& lineitem, ScanOptions options = {});

// Revenue in dollars for a Q6 result.
double Q6RevenueDollars(const QueryResult& result);

}  // namespace bipie

#endif  // BIPIE_TPCH_Q6_H_
