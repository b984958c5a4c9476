// The Aggregate Processor (§3).
//
// Bound to one segment's SegmentPlan, it takes the group-id map and the
// selection byte vector produced by the Filter component and computes all
// aggregates with the Vector Toolbox strategies the plan chose:
//
//  * the aggregation strategy is fixed per segment, from metadata (group
//    count bound, aggregate count and bit widths) and the §6.2 rules —
//    decided once, in the plan;
//  * the selection strategy adapts per batch from measured selectivity.
//
// Raw bit-packed aggregate columns are summed in the *encoded offset
// domain* and compensated at the end (a column stores
// v = base + scale * offset, so sum = scale * offset_sum + base * count),
// so the hot loops never materialize logical int64 values unless the
// strategy requires it. Per-segment metadata proves the compensated sums
// cannot overflow int64; otherwise processing falls back to a checked
// scalar path.
//
// A processor holds only per-morsel state (accumulators, cursors, stats)
// and borrows its batch scratch; the plan it binds is shared read-only, so
// any number of processors on any threads may bind the same plan.
#ifndef BIPIE_CORE_AGGREGATE_PROCESSOR_H_
#define BIPIE_CORE_AGGREGATE_PROCESSOR_H_

#include <array>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "core/segment_plan.h"
#include "core/strategy.h"
#include "expr/expr_plan.h"
#include "vector/agg_multi.h"
#include "vector/agg_sort.h"

namespace bipie {

// Batch scratch an AggregateProcessor works in. Every size follows the
// batch, not the segment, so one instance serves all the morsels a worker
// runs: the scan keeps one per thread and registers its buffers with the
// tracker re-home list, like its selection scratch.
struct AggregateScratch {
  AlignedBuffer groups;        // dense group ids
  AlignedBuffer indices;       // selection index vector (gather, sort)
  AlignedBuffer compact;       // full-window decode ahead of compaction
  AlignedBuffer slots;         // expression-plan slots, then raw values
                               // (code-keyed: carriers, codes, keys)
  AlignedBuffer accumulators;  // multi-aggregate / code-keyed sums
  AlignedBuffer group_ids;     // the group mapper's second-column ids

  // Registers every buffer with this thread's re-home list. The scratch
  // must then live until thread exit.
  void RegisterWithThread();
};

class AggregateProcessor {
 public:
  // `scratch` (optional) is borrowed for every batch; by default the
  // processor owns one.
  explicit AggregateProcessor(AggregateScratch* scratch = nullptr)
      : scratch_(scratch != nullptr ? scratch : &own_scratch_) {}
  AggregateProcessor(const AggregateProcessor&) = delete;
  AggregateProcessor& operator=(const AggregateProcessor&) = delete;

  // Binds fresh accumulators to `plan`, which must outlive the processor.
  // A rejected plan returns its status() and binds nothing.
  Status Bind(const SegmentPlan& plan);

  // Processes rows [start, start + n) of the bound segment. `sel` is the
  // selection byte vector for the window (filter merged with liveness), or
  // nullptr when every row qualifies; `selected` is its count of selected
  // rows (CountSelected, which the scan already takes for its stats; n when
  // sel is nullptr). start must be batch-aligned (a multiple of
  // kBatchRows) so packed streams can be rebased.
  Status ProcessBatch(size_t start, size_t n, const uint8_t* sel,
                      size_t selected);

  // Per-segment aggregation output, indexed by local group id.
  struct SegmentResult {
    int num_groups = 0;
    const GroupMapper* mapper = nullptr;
    std::vector<uint64_t> counts;  // [group]
    std::vector<int64_t> values;   // [group * num_specs + spec]: counts for
                                   // kCount specs, logical sums otherwise
  };
  Status Finish(SegmentResult* out);

  // Run-level span API (kRunBased, DESIGN.md §11): aggregates rows
  // [start, start + len), all mapped to `group`, without materializing
  // per-row ids or selection bytes. Raw bit-packed SUM inputs unpack the
  // span contiguously and horizontal-SIMD-sum it; RLE inputs reduce to
  // run-metadata arithmetic (sum += value * overlap, zero decode);
  // count += len always. Spans must arrive in ascending start order (the
  // RLE walk keeps an amortized-O(runs) cursor). Only valid when the plan
  // chose kRunBased.
  Status ProcessRunSpan(uint8_t group, size_t start, size_t len);

  // Batches processed per selection strategy (gather/compact/special/full),
  // for tests and the strategy explorer example.
  struct SelectionStats {
    size_t gather = 0;
    size_t compact = 0;
    size_t special_group = 0;
    size_t unfiltered = 0;
  };
  const SelectionStats& selection_stats() const { return selection_stats_; }

 private:
  enum class BatchMode { kFull, kGather, kCompact, kSpecialGroup };

  BatchMode PickBatchMode(size_t n, size_t selected, const uint8_t* sel);

  // Maps the window's group ids into scratch_->groups, densely for the
  // mode: the selected rows for gather (whose index vector *indices then
  // points to) and compaction, every row otherwise, rejected ones moved to
  // the special group under kSpecialGroup. Returns the dense row count.
  size_t MapGroups(size_t start, size_t n, const uint8_t* sel, BatchMode mode,
                   const uint32_t** indices);
  // Unpacks the ids/offsets of `col` for the same dense rows at `word`
  // bytes each.
  void SelectIds(const EncodedColumn& col, size_t start, size_t n,
                 const uint8_t* sel, const uint32_t* indices, size_t m,
                 BatchMode mode, int word, void* dst);
  // Builds dense group ids + per-input dense decoded arrays for the modes
  // that need them (in-register / multi / scalar). Returns the dense row
  // count.
  size_t BuildDenseBatch(size_t start, size_t n, const uint8_t* sel,
                         BatchMode mode);
  // Sizes the slot storage for a window of n rows.
  void PrepareSlots(size_t n);
  // Decodes every plan column once — the window's m dense rows for the
  // mode (all n rows, gathered by `indices`, or compacted by `sel`) — and
  // runs the plan.
  void EvaluatePlan(size_t start, size_t n, const uint8_t* sel,
                    const uint32_t* indices, size_t m, BatchMode mode);
  const int64_t* PlanValues(const AggregateInput& input) const {
    return plan_->expr_plan().values(slots_, input.node);
  }
  uint8_t* ValueSlot(const AggregateInput& input) const {
    // Value slots follow the plan's slots.
    return reinterpret_cast<uint8_t*>(
        slots_.base + (plan_->expr_plan().num_slots() +
                       static_cast<size_t>(input.value_slot)) *
                          slots_.stride);
  }
  const GroupMapper& mapper() const { return plan_->group_mapper(); }

  Status ProcessInRegister(size_t start, size_t n, const uint8_t* sel,
                           BatchMode mode);
  Status ProcessMultiAggregate(size_t start, size_t n, const uint8_t* sel,
                               BatchMode mode);
  Status ProcessSortBased(size_t start, size_t n, const uint8_t* sel,
                          BatchMode mode);
  Status ProcessScalar(size_t start, size_t n, const uint8_t* sel,
                       BatchMode mode, bool checked);
  // kCodeKeyed (DESIGN.md §20): per-(group, code tuple) row counts and
  // carrier offset sums; Finish folds them with the plan's coefficients.
  Status ProcessCodeKeyed(size_t start, size_t n, const uint8_t* sel,
                          BatchMode mode);
  void FinishCodeKeyed();

  // MIN/MAX extrema for every dense-mode row batch; value pointers follow
  // the same expr/raw rules the scalar strategy uses.
  void ProcessMinMaxDense(size_t m, int geff);
  // MIN/MAX for the sort-based path (full-window values + sorted indices).
  Status ProcessMinMaxSorted(size_t start, size_t n, int geff);

  const SegmentPlan* plan_ = nullptr;
  ExprPlan::Storage slots_;  // this batch's plan slots, then value slots

  // Accumulators sized num_groups + 1 (last slot = special group).
  std::vector<uint64_t> counts_;
  std::vector<int64_t> sums_;    // [input * (G + 1) + group], sum inputs
  std::vector<uint64_t> minmax_; // [input * (G + 1) + group], min/max inputs

  MultiAggregator multi_agg_;
  bool multi_agg_ready_ = false;
  // kCodeKeyed: four uint64 lanes per key, in scratch_->accumulators.
  uint64_t* code_acc_ = nullptr;
  SortedBatch sorted_batch_;

  AggregateScratch own_scratch_;
  AggregateScratch* const scratch_;

  // Run-level state (kRunBased): per-input cursor into RLE aggregate run
  // streams (spans arrive in ascending start order, so the walk is
  // amortized O(runs + spans)).
  struct RunCursor {
    size_t run_idx = 0;
    size_t run_start = 0;
  };
  std::vector<RunCursor> run_cursors_;

  SelectionStats selection_stats_;
};

}  // namespace bipie

#endif  // BIPIE_CORE_AGGREGATE_PROCESSOR_H_
