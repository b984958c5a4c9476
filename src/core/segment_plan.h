// The per-segment plan (DESIGN.md §9.2, §12).
//
// Everything the scan decides about a segment before it reads a row is a
// pure function of segment metadata, the query and the strategy overrides:
// segment elimination, the aggregation strategy with every admission input
// that drove it (PlanDecision), the aggregate input descriptors, the group
// mapper's bound layout and the expression plan. PlanScan computes it once
// per segment. Execute shares each SegmentPlan read-only among all the
// morsels of its segment, which bind only their own accumulators and
// scratch to it (AggregateProcessor::Bind), and Explain renders the same
// plans, so the explain matches what executes by construction.
#ifndef BIPIE_CORE_SEGMENT_PLAN_H_
#define BIPIE_CORE_SEGMENT_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/group_mapper.h"
#include "core/query.h"
#include "core/strategy.h"
#include "expr/arithmetic.h"
#include "expr/expr_plan.h"
#include "storage/table.h"

namespace bipie {

// One distinct aggregate input of a segment: a SUM, MIN or MAX over a raw
// bit-packed column (aggregated in the offset domain and compensated at
// Finish, v = base + scale * offset) or over logical int64 values read
// from the expression plan.
struct AggregateInput {
  enum class Op { kSum, kMin, kMax };

  Op op = Op::kSum;
  bool is_expr = false;
  ExprPtr expr;                           // logical-value inputs
  const EncodedColumn* column = nullptr;  // raw
  int column_index = -1;                  // raw
  int bit_width = 0;
  int64_t base = 0;
  uint64_t scale = 1;
  uint64_t max_offset = 0;
  int word_bytes = 8;  // decoded element width fed to the strategy
  bool compensate = false;
  // RLE aggregate columns keep a direct run-stream reference besides the
  // expression decode path, so kRunBased can aggregate them from run
  // metadata alone.
  const EncodedColumn* run_column = nullptr;
  // Plan root holding this input's logical int64 values, or -1 when the
  // input is raw offsets (its own value slot).
  int node = -1;
  int value_slot = -1;
};

// What kCodeKeyed aggregation (DESIGN.md §20) needs per batch and at
// Finish, prepared once per segment. A row's accumulator key is
// group * tuples + sum_k code_k * stride_k, its code tuple the second term.
struct CodeKeyedLayout {
  struct Key {
    const EncodedColumn* column = nullptr;
    uint32_t stride = 1;
  };
  // Key columns with more than one code (a one-code column is its base
  // value in every row and needs no per-row work).
  std::vector<Key> keys;
  std::vector<const EncodedColumn*> carriers;
  uint32_t tuples = 1;    // code tuples per group: product of key domains
  uint32_t num_keys = 0;  // (groups + special slot) x tuples
  // coefficients[(k * tuples + c) * (1 + carriers) + j], for the k-th SUM
  // input (sum_inputs() order) and code tuple c: j = 0 is B(c), the
  // input's value with every carrier at offset 0; j >= 1 is A_j(c), what
  // one step of carrier j - 1's offset adds. Wrapping uint64.
  std::vector<uint64_t> coefficients;
};

// Structure queries for code-keyed capability, for the columns `marked`
// flags (indexed by table column).
//
// Degree of `expr` as a polynomial in the marked columns: a column is 1
// when marked, else 0; a constant 0; add and sub take the max of their
// operands, mul the sum.
int Degree(const Expr& expr, const std::vector<bool>& marked);
// Some multiply in `expr` has one operand that reads a marked column and
// another that is not a constant.
bool MultipliesBy(const Expr& expr, const std::vector<bool>& marked);

class SegmentPlan {
 public:
  // Plans segment `segment_index` of `table` for `query`. Planning never
  // fails outright: a rejection (a forced strategy that cannot run, an
  // overflow the metadata cannot rule out under a forced plan, more than
  // 255 groups, an unknown column) leaves status() non-OK, and decision()
  // still holds the inputs recorded before the check that rejected it.
  SegmentPlan(const Table& table, size_t segment_index, const QuerySpec& query,
              const StrategyOverrides& overrides);
  // A segment min/max elimination removed before planning.
  SegmentPlan(const Table& table, size_t segment_index,
              int eliminated_by_filter);

  SegmentPlan(SegmentPlan&&) = default;
  SegmentPlan& operator=(SegmentPlan&&) = default;
  SegmentPlan(const SegmentPlan&) = delete;
  SegmentPlan& operator=(const SegmentPlan&) = delete;

  size_t segment_index() const { return segment_index_; }
  const Segment& segment() const { return *segment_; }
  // Index of the query filter whose metadata proves no row of the segment
  // passes, or -1 when the segment is scanned.
  int eliminated_by_filter() const { return eliminated_by_filter_; }
  bool eliminated() const { return eliminated_by_filter_ >= 0; }

  const Status& status() const { return status_; }
  const PlanDecision& decision() const { return decision_; }
  AggregationStrategy aggregation() const { return decision_.aggregation; }

  // Valid when status() is OK.
  const GroupMapper& group_mapper() const { return mapper_; }
  const ExprPlan& expr_plan() const { return expr_plan_; }
  const std::vector<AggregateInput>& inputs() const { return inputs_; }
  // Indices of the Op::kSum inputs (the ones strategies aggregate).
  const std::vector<int>& sum_inputs() const { return sum_inputs_; }
  // Query aggregate spec -> inputs() index; -1 for count(*).
  const std::vector<int>& spec_to_input() const { return spec_to_input_; }
  // Dense value arrays raw inputs need per batch, after the plan's slots.
  int num_value_slots() const { return num_value_slots_; }
  // Filled when aggregation() is kCodeKeyed.
  const CodeKeyedLayout& code_keyed() const { return code_keyed_; }

 private:
  Status Build(const Table& table, const QuerySpec& query,
               const StrategyOverrides& overrides);
  // Fills code_keyed_ from decision_.code_keyed and the finalized plan.
  void BuildCodeKeyed();

  size_t segment_index_ = 0;
  const Segment* segment_ = nullptr;
  int eliminated_by_filter_ = -1;
  Status status_;
  PlanDecision decision_;
  GroupMapper mapper_;
  ExprPlan expr_plan_;
  std::vector<AggregateInput> inputs_;
  std::vector<int> sum_inputs_;
  std::vector<int> spec_to_input_;
  int num_value_slots_ = 0;
  CodeKeyedLayout code_keyed_;
};

// Failure precedence, shared by planning and execution. Folds the next
// status, in canonical order (segment order, then morsel order), into
// *failure: the first real error wins outright; a kNotSupported holds only
// until a real error appears.
void FoldFailure(const Status& next, Status* failure);

// The plan of one query: a SegmentPlan per non-empty segment, in segment
// order, and the outcome the per-segment statuses add up to.
struct ScanPlan {
  // Table column index of each query filter.
  std::vector<int> filter_cols;
  std::vector<SegmentPlan> segments;
  size_t segments_scanned = 0;
  size_t segments_eliminated = 0;
  // FoldFailure over the scanned segments' statuses.
  Status failure;
  // Some strategy was forced (StrategyOverrides::any()).
  bool forced = false;

  // The failure is final before any row is read: a real error, or the
  // rejection of a forced plan. Execute returns it without scanning.
  bool fails() const {
    return !failure.ok() &&
           (forced || failure.code() != StatusCode::kNotSupported);
  }
  // A segment lies outside the specialized envelope on an unforced plan:
  // the query is answered by the generic hash-aggregation engine, unless
  // scanning the other segments surfaces a real error, which outranks it.
  bool hash_fallback() const { return !failure.ok() && !fails(); }
};

// Plans every non-empty segment of `table` for `query`: elimination first
// (when enabled), then a SegmentPlan per surviving segment. Fails only on
// a filter no segment could evaluate: an unknown column, or an operator
// its column type cannot run (ColumnPredicate::CheckColumnType).
Result<ScanPlan> PlanScan(const Table& table, const QuerySpec& query,
                          const StrategyOverrides& overrides,
                          bool enable_segment_elimination);

}  // namespace bipie

#endif  // BIPIE_CORE_SEGMENT_PLAN_H_
