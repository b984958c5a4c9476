// The benchmark's correctness gate: every reply is compared exactly (group
// columns, group values, counts and every aggregate slot) against the result
// the row-at-a-time hash-aggregation engine computes for the statement's
// QuerySpec on the same loaded table.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "storage/table.h"
#include "workloads.h"

namespace perfbench {

struct Expected {
  std::vector<bipie::QueryResult> results;  // one per statement
  uint64_t cycles = 0;  // summed TSC cycles spent in ExecuteQueryHashAgg
  uint64_t rows = 0;    // table rows times statements
};

// Runs ExecuteQueryHashAgg for every statement, on up to `threads` threads.
bipie::Result<Expected> ComputeExpected(const bipie::Table& table,
                                        const std::vector<Statement>& stmts,
                                        size_t threads);

// True when `got` equals `want` exactly; otherwise *why says where.
bool SameResult(const bipie::QueryResult& got, const bipie::QueryResult& want,
                std::string* why);

// Makes `result` wrong in a way SameResult must catch (the planted-mismatch
// check of the gate: --plant-mismatch applies it to every statement).
void PlantMismatch(bipie::QueryResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
