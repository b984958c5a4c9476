// Per-layer attribution for the traced run: times calls into the public
// functions of encoding, expr, core, cost and sql on the loaded table with
// the workload's own statements, and reads the scan's exact work counts from
// ScanStats. Every call is recorded as a span under one root per layer.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <vector>

#include "core/query.h"
#include "report.h"
#include "spans.h"
#include "storage/table.h"
#include "workloads.h"

namespace perfbench {

struct LayerInputs {
  const bipie::Table* table = nullptr;
  // Statements to attribute, with their oracle results (every execution
  // made here is checked too).
  std::vector<const Statement*> statements;
  std::vector<const bipie::QueryResult*> expected;
  SpanRecorder* spans = nullptr;
};

struct LayerReport {
  Metrics metrics;
  size_t executions = 0;  // scans run, all checked against the oracle
  size_t failures = 0;    // scans that errored or disagreed with it
};

LayerReport MeasureLayers(const LayerInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
