// Naive decode-everything reference engine.
//
// Executes the same QuerySpec as BIPieScan with the simplest possible
// machinery: decode every needed column to int64 vectors, evaluate the
// filter row by row, aggregate into a std::map keyed by decoded group
// values. Deliberately independent of the Vector Toolbox — columns are
// decoded one value at a time by the scalar reference readers
// (BitUnpackOne, ByteSliceAssembleOne), never by the SIMD unpack kernels —
// so it can serve as a differential-testing oracle for the scan, and as the
// "unspecialized engine" baseline in benchmarks.
#ifndef BIPIE_BASELINE_SCALAR_ENGINE_H_
#define BIPIE_BASELINE_SCALAR_ENGINE_H_

#include "common/status.h"
#include "core/query.h"
#include "storage/table.h"

namespace bipie {

Result<QueryResult> ExecuteQueryNaive(const Table& table,
                                      const QuerySpec& query);

}  // namespace bipie

#endif  // BIPIE_BASELINE_SCALAR_ENGINE_H_
