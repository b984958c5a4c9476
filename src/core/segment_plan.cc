#include "core/segment_plan.h"

#include <algorithm>
#include <limits>

#include "common/bits.h"
#include "core/scan.h"
#include "encoding/byteslice.h"
#include "expr/predicate.h"
#include "vector/agg_inregister.h"

namespace bipie {

namespace {

// Maximum effective group count (including the special group) per strategy.
int GroupCapacity(AggregationStrategy s) {
  switch (s) {
    case AggregationStrategy::kInRegister:
      return kMaxInRegisterGroups;
    default:
      return 256;
  }
}

// Code-keyed capability (DESIGN.md §20). Sorts the columns SUM inputs read
// into keys (integer codes of a small segment domain) and carriers (every
// other column, read as bit-packed offsets), then checks the shape: every
// input affine in the carriers, at most kMaxCodeKeyCarriers of them, and
// at most `limits.max_code_keys` accumulators. `ck->incapable` stays empty
// when the segment is capable.
void PlanCodeKeyed(const Table& table, const Segment& segment,
                   const std::vector<AggregateInput>& inputs,
                   int groups_for_choice, const CodeKeyLimits& limits,
                   CodeKeyedInputs* ck) {
  // The per-batch kernels' bounds: byte codes and 16-bit keys.
  const uint64_t max_domain =
      static_cast<uint64_t>(std::clamp(limits.max_domain, 1, 256));
  const int max_keys = std::clamp(limits.max_code_keys, 1, 65536);
  std::vector<const Expr*> roots;
  std::vector<int> cols;
  for (const AggregateInput& input : inputs) {
    if (input.op != AggregateInput::Op::kSum) {
      ck->incapable = "MIN/MAX aggregates";
      return;
    }
    // Raw inputs are bare columns: degree <= 1, no multiply.
    if (input.is_expr) {
      roots.push_back(input.expr.get());
      input.expr->CollectColumns(&cols);
    } else {
      cols.push_back(input.column_index);
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());

  std::vector<bool> is_key(table.num_columns(), false);
  std::vector<bool> is_carrier(table.num_columns(), false);
  int64_t tuples = 1;
  for (const int c : cols) {
    const EncodedColumn& col = segment.column(static_cast<size_t>(c));
    const bool integer = col.type() == ColumnType::kInt64;
    const bool coded = integer && (col.encoding() == Encoding::kBitPacked ||
                                   col.encoding() == Encoding::kDictionary);
    if (coded && col.id_bound() <= max_domain) {
      is_key[c] = true;
      ck->key_columns.push_back(c);
      ck->key_domains.push_back(static_cast<int>(col.id_bound()));
      tuples = std::min<int64_t>(tuples * static_cast<int64_t>(col.id_bound()),
                                 int64_t{max_keys} + 1);
    } else if (integer && col.encoding() == Encoding::kBitPacked &&
               col.bit_width() <= 32) {
      is_carrier[c] = true;
      ck->carrier_columns.push_back(c);
    } else if (ck->incapable.empty()) {
      ck->incapable = table.schema()[c].name +
                      " is neither a key of <= " +
                      std::to_string(max_domain) +
                      " codes nor a bit-packed carrier of <= 32 bits";
    }
  }
  ck->num_keys = static_cast<int>(
      std::min<int64_t>(groups_for_choice * tuples, int64_t{1} << 30));
  for (const Expr* root : roots) {
    if (MultipliesBy(*root, is_key)) ck->multiplies_by_key = true;
  }
  if (!ck->incapable.empty()) return;
  if (static_cast<int>(ck->carrier_columns.size()) > kMaxCodeKeyCarriers) {
    ck->incapable = std::to_string(ck->carrier_columns.size()) +
                    " carrier columns exceed " +
                    std::to_string(kMaxCodeKeyCarriers);
    return;
  }
  for (const Expr* root : roots) {
    if (Degree(*root, is_carrier) > 1) {
      ck->incapable = "an input is not affine in its carrier columns";
      return;
    }
  }
  if (ck->num_keys > max_keys) {
    ck->incapable = std::to_string(ck->num_keys) + " keys exceed the " +
                    std::to_string(max_keys) + " cap";
  }
}

// The logical value of code (id or offset) `code` of an integer column.
uint64_t LogicalValue(const EncodedColumn& col, uint64_t code) {
  if (col.encoding() == Encoding::kDictionary) {
    return static_cast<uint64_t>(
        col.int_dictionary()->value(static_cast<uint32_t>(code)));
  }
  return static_cast<uint64_t>(col.base()) + col.scale() * code;
}

}  // namespace

int Degree(const Expr& expr, const std::vector<bool>& marked) {
  switch (expr.kind()) {
    case ExprKind::kColumn:
      return marked[expr.column_index()] ? 1 : 0;
    case ExprKind::kConstant:
      return 0;
    case ExprKind::kMul:
      return Degree(*expr.lhs(), marked) + Degree(*expr.rhs(), marked);
    default:
      return std::max(Degree(*expr.lhs(), marked),
                      Degree(*expr.rhs(), marked));
  }
}

bool MultipliesBy(const Expr& expr, const std::vector<bool>& marked) {
  if (expr.kind() == ExprKind::kColumn || expr.kind() == ExprKind::kConstant) {
    return false;
  }
  const Expr& lhs = *expr.lhs();
  const Expr& rhs = *expr.rhs();
  if (expr.kind() == ExprKind::kMul &&
      ((Degree(lhs, marked) > 0 && rhs.kind() != ExprKind::kConstant) ||
       (Degree(rhs, marked) > 0 && lhs.kind() != ExprKind::kConstant))) {
    return true;
  }
  return MultipliesBy(lhs, marked) || MultipliesBy(rhs, marked);
}

SegmentPlan::SegmentPlan(const Table& table, size_t segment_index,
                         const QuerySpec& query,
                         const StrategyOverrides& overrides)
    : segment_index_(segment_index), segment_(&table.segment(segment_index)) {
  status_ = Build(table, query, overrides);
}

SegmentPlan::SegmentPlan(const Table& table, size_t segment_index,
                         int eliminated_by_filter)
    : segment_index_(segment_index),
      segment_(&table.segment(segment_index)),
      eliminated_by_filter_(eliminated_by_filter) {}

Status SegmentPlan::Build(const Table& table, const QuerySpec& query,
                          const StrategyOverrides& overrides) {
  const Segment& segment = *segment_;

  // --- group columns -------------------------------------------------------
  std::vector<int> group_cols;
  for (const std::string& name : query.group_by) {
    const int idx = table.FindColumn(name);
    if (idx < 0) {
      return Status::InvalidArgument("unknown group column: " + name);
    }
    group_cols.push_back(idx);
  }
  BIPIE_RETURN_NOT_OK(mapper_.Bind(segment, group_cols));
  const int num_groups = mapper_.num_groups();

  // --- aggregate inputs ----------------------------------------------------
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query needs at least one aggregate");
  }
  // Aggregates over the same column with the same operation share one
  // input slot (e.g. Q1's sum(l_quantity) and avg(l_quantity)); this is
  // what lets all of Q1's sums fit a single multi-aggregate register.
  // Key: column * 4 + op.
  std::vector<int> column_op_to_input(table.num_columns() * 4, -1);
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateSpec::Kind::kCount) {
      spec_to_input_.push_back(-1);
      continue;
    }
    AggregateInput input;
    switch (spec.kind) {
      case AggregateSpec::Kind::kMin:
        input.op = AggregateInput::Op::kMin;
        break;
      case AggregateSpec::Kind::kMax:
        input.op = AggregateInput::Op::kMax;
        break;
      default:
        input.op = AggregateInput::Op::kSum;
        break;
    }
    if (spec.kind == AggregateSpec::Kind::kSumExpr) {
      input.is_expr = true;
      input.expr = spec.expr;
      if (input.expr == nullptr) {
        return Status::InvalidArgument("sum-expression aggregate missing expr");
      }
    } else {
      const int idx = table.FindColumn(spec.column);
      const int dedup_key =
          idx < 0 ? -1 : idx * 4 + static_cast<int>(input.op);
      if (dedup_key >= 0 && column_op_to_input[dedup_key] >= 0) {
        spec_to_input_.push_back(column_op_to_input[dedup_key]);
        continue;
      }
      if (dedup_key >= 0) {
        column_op_to_input[dedup_key] = static_cast<int>(inputs_.size());
      }
      if (idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " +
                                       spec.column);
      }
      const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
      if (col.type() != ColumnType::kInt64) {
        return Status::NotSupported("aggregates require integer columns");
      }
      if (col.encoding() == Encoding::kBitPacked) {
        input.column = &col;
        input.column_index = idx;
        input.bit_width = col.bit_width();
        input.base = col.base();
        input.scale = col.scale();
        input.max_offset = col.id_bound() - 1;
        input.compensate = true;
      } else {
        // Dictionary / RLE aggregate inputs go through the expression path
        // (logical decode), matching the §2.2 assumption that raw SUM
        // columns are plain bit-packed. RLE inputs additionally keep their
        // run stream so kRunBased can skip the decode entirely.
        input.is_expr = true;
        input.expr = Expr::Column(idx);
        if (col.encoding() == Encoding::kRle) input.run_column = &col;
      }
    }
    spec_to_input_.push_back(static_cast<int>(inputs_.size()));
    inputs_.push_back(std::move(input));
  }

  // --- overflow proof from metadata (§2.1) ---------------------------------
  const __int128 rows = static_cast<__int128>(segment.num_rows());
  const __int128 int64_max = std::numeric_limits<int64_t>::max();
  bool overflow_risk = false;
  std::vector<ValueBounds> column_bounds(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnMeta& m = segment.column(c).meta();
    column_bounds[c] = {m.min, m.max};
  }
  for (AggregateInput& input : inputs_) {
    if (input.op != AggregateInput::Op::kSum) continue;  // extrema can't
    __int128 max_abs;
    if (input.is_expr) {
      Result<ValueBounds> bounds = input.expr->EvalBounds(column_bounds);
      if (!bounds.ok()) {
        overflow_risk = true;
        continue;
      }
      max_abs = std::max<__int128>(-static_cast<__int128>(bounds.value().min),
                                   bounds.value().max);
    } else {
      max_abs = static_cast<__int128>(input.max_offset) * input.scale +
                (input.base < 0 ? -static_cast<__int128>(input.base)
                                : static_cast<__int128>(input.base));
    }
    if (max_abs * rows > int64_max) overflow_risk = true;
  }

  // --- strategy resolution --------------------------------------------------
  // MIN/MAX inputs run through their own kernels per batch; only SUM inputs
  // participate in the strategy choice and register-fit accounting.
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].op == AggregateInput::Op::kSum) {
      sum_inputs_.push_back(static_cast<int>(i));
    }
  }
  const int num_sums = static_cast<int>(sum_inputs_.size());
  int max_value_bits = 1;
  bool any_expr = false;
  for (int i : sum_inputs_) {
    const AggregateInput& input = inputs_[i];
    if (input.is_expr) {
      any_expr = true;
    } else {
      max_value_bits = std::max(max_value_bits, input.bit_width);
    }
  }
  if (any_expr) max_value_bits = 64;

  // Multi-aggregate register fit: narrow raw inputs (<= 16 bits) take half
  // a 64-bit lane, everything else a full lane.
  int n64 = 0, n32 = 0;
  for (int i : sum_inputs_) {
    const AggregateInput& input = inputs_[i];
    if (!input.is_expr && input.bit_width <= 16) {
      ++n32;
    } else {
      ++n64;
    }
  }
  const bool multi_fits =
      num_sums >= 1 && (n64 + (n32 + 1) / 2) <= 4 && num_groups + 1 <= 256;

  // Deleted rows reach the processor through the selection byte vector
  // exactly like filter rejections, so they count as filtering too.
  const bool filtered = !query.filters.empty() || segment.has_deleted_rows();
  const double expected_selectivity = query.filters.empty() ? 1.0 : 0.5;
  // A spare group id is only reserved when special-group selection can
  // actually be used (not when the caller pinned selection to gather or
  // compaction).
  const bool may_use_special =
      filtered && (!overrides.selection.has_value() ||
                   *overrides.selection == SelectionStrategy::kSpecialGroup);
  const int groups_for_choice = num_groups + (may_use_special ? 1 : 0);
  const bool in_register_feasible = groups_for_choice <= kMaxInRegisterGroups &&
                                    !any_expr && max_value_bits <= 32;

  // Run-level admission (DESIGN.md §11): can this segment be aggregated by
  // (group, row-range) spans instead of rows, and is it worth it?
  RunAdmissionInputs run_in;
  run_in.segment_rows = segment.num_rows();
  run_in.has_deleted_rows = segment.has_deleted_rows();
  run_in.selection_forced = overrides.selection.has_value();
  run_in.groups_are_runs = mapper_.runs_available();
  run_in.estimated_spans = mapper_.run_count_bound();
  run_in.filters_are_runs = true;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) {
      run_in.filters_are_runs = false;  // PlanScan reports the real error
      break;
    }
    const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
    if (pred.MatchesAllRows(col)) continue;  // metadata-satisfied: free
    if (col.encoding() != Encoding::kRle) {
      run_in.filters_are_runs = false;
      break;
    }
    run_in.estimated_spans += col.runs().size();
  }
  run_in.aggregates_are_runs = true;
  for (const AggregateInput& input : inputs_) {
    const bool raw_packed_sum =
        !input.is_expr && input.op == AggregateInput::Op::kSum;
    if (!raw_packed_sum && input.run_column == nullptr) {
      run_in.aggregates_are_runs = false;
      break;
    }
  }

  // Byteslice filter admission (DESIGN.md §16): which filters would the
  // early-pruning plane kernels evaluate, and how selective does metadata
  // say they are? Metadata-decided predicates never reach a kernel and do
  // not count.
  ByteSliceAdmissionInputs bs_in;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) continue;  // PlanScan reports the real error
    const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
    if (col.encoding() != Encoding::kByteSliced) continue;
    if (pred.MatchesAllRows(col) || pred.EliminatesSegment(col)) continue;
    bs_in.any_byteslice_filter = true;
    bs_in.max_planes =
        std::max(bs_in.max_planes, ByteSlicePlanes(col.bit_width()));
    bs_in.estimated_selectivity = std::min(
        bs_in.estimated_selectivity,
        EstimatePredicateSelectivity(pred.op(), pred.literal(),
                                     pred.literal2(), col.meta().min,
                                     col.meta().max));
  }

  // Code-keyed admission (DESIGN.md §20): capable by shape, admitted when
  // it removes a per-row multiply by a key column and each morsel is
  // expected to add enough rows per key to pay for its Finish fold.
  CodeKeyedInputs code_keyed;
  PlanCodeKeyed(table, segment, inputs_, groups_for_choice,
                overrides.code_key_limits, &code_keyed);
  double morsel_selected =
      static_cast<double>(std::min(segment.num_rows(), kDefaultMorselRows));
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) continue;  // PlanScan reports the real error
    const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
    if (col.type() == ColumnType::kString) continue;
    morsel_selected *= EstimatePredicateSelectivity(
        pred.op(), pred.literal(), pred.literal2(), col.meta().min,
        col.meta().max);
  }
  code_keyed.rows_per_key =
      morsel_selected / std::max(code_keyed.num_keys, 1);

  // Record the decision inputs before any feasibility check can reject the
  // plan, so an explain of a forced infeasible plan still shows what drove
  // the rejection.
  PlanDecision& d = decision_;
  d.aggregation_forced = overrides.aggregation.has_value();
  d.forced_selection = overrides.selection;
  d.num_groups = num_groups;
  d.groups_for_choice = groups_for_choice;
  d.num_sums = num_sums;
  d.max_value_bits = max_value_bits;
  d.expected_selectivity = expected_selectivity;
  d.multi_aggregate_fits = multi_fits;
  d.in_register_feasible = in_register_feasible;
  d.any_expr_input = any_expr;
  d.overflow_risk = overflow_risk;
  d.filtered = filtered;
  d.run_inputs = run_in;
  d.run_capable = RunBasedCapable(run_in);
  d.run_admitted = RunBasedAdmitted(run_in);
  d.byteslice_inputs = bs_in;
  d.byteslice_capable = ByteSliceCapable(bs_in);
  d.byteslice_admitted = overrides.byteslice.has_value()
                             ? *overrides.byteslice
                             : ByteSliceAdmitted(bs_in);
  d.forced_byteslice = overrides.byteslice;
  d.code_keyed_capable = code_keyed.incapable.empty();
  d.code_keyed_admitted = d.code_keyed_capable &&
                          code_keyed.multiplies_by_key &&
                          code_keyed.rows_per_key >= kMinCodeKeyRowsPerKey;
  d.code_keyed = std::move(code_keyed);

  if (overrides.byteslice.has_value() && *overrides.byteslice &&
      !d.byteslice_capable) {
    d.byteslice_admitted = false;
    return Status::NotSupported(
        "byteslice kernels infeasible: no filter binds to a byte-sliced "
        "column of this segment");
  }

  AggregationStrategy strategy;
  if (overflow_risk) {
    if (overrides.aggregation.has_value() &&
        *overrides.aggregation != AggregationStrategy::kCheckedScalar) {
      return Status::OverflowRisk(
          "segment metadata cannot prove int64-safe sums; forced strategy "
          "rejected");
    }
    strategy = AggregationStrategy::kCheckedScalar;
  } else if (overrides.aggregation.has_value()) {
    strategy = *overrides.aggregation;
    if (strategy == AggregationStrategy::kRunBased && !d.run_capable) {
      return Status::NotSupported(
          "run-based aggregation infeasible: requires RLE/constant group "
          "columns, run-representable filters and aggregates, no deleted "
          "rows, and no forced selection strategy");
    }
    if (strategy == AggregationStrategy::kInRegister && !in_register_feasible) {
      return Status::NotSupported(
          "in-register aggregation infeasible for this query/segment");
    }
    if (strategy == AggregationStrategy::kMultiAggregate && !multi_fits) {
      return Status::NotSupported(
          "multi-aggregate row does not fit one SIMD register");
    }
    if (strategy == AggregationStrategy::kSortBased && num_sums == 0) {
      return Status::NotSupported("sort-based strategy needs >= 1 sum");
    }
    if (strategy == AggregationStrategy::kCodeKeyed &&
        !d.code_keyed_capable) {
      return Status::NotSupported("code-keyed aggregation infeasible: " +
                                  d.code_keyed.incapable);
    }
  } else if (d.run_admitted) {
    strategy = AggregationStrategy::kRunBased;
  } else if (d.code_keyed_admitted) {
    strategy = AggregationStrategy::kCodeKeyed;
  } else {
    strategy = ChooseAggregationStrategy(groups_for_choice, num_sums,
                                         max_value_bits, expected_selectivity,
                                         multi_fits);
  }
  d.aggregation = strategy;
  d.special_group_available =
      may_use_special && num_groups + 1 <= GroupCapacity(strategy);

  // --- per-strategy input decode widths -------------------------------------
  // Code-keyed plans read every input's logical values too, once, at
  // coefficient time.
  const bool logical_inputs = strategy == AggregationStrategy::kScalar ||
                              strategy == AggregationStrategy::kCheckedScalar ||
                              strategy == AggregationStrategy::kCodeKeyed;
  for (AggregateInput& input : inputs_) {
    const bool wide_minmax = input.op != AggregateInput::Op::kSum &&
                             !input.is_expr && input.bit_width > 32;
    if ((logical_inputs || wide_minmax) && !input.is_expr) {
      // Scalar paths (and extrema over >32-bit offsets) aggregate logical
      // int64 values directly.
      input.is_expr = true;
      input.expr = Expr::Column(input.column_index);
      input.compensate = false;
      input.word_bytes = 8;
      continue;
    }
    if (input.is_expr) {
      input.word_bytes = 8;
      continue;
    }
    if (input.op != AggregateInput::Op::kSum) {
      // Extrema kernels take the smallest word regardless of strategy.
      input.word_bytes = SmallestWordBytes(input.bit_width);
      continue;
    }
    switch (strategy) {
      case AggregationStrategy::kInRegister:
        input.word_bytes = input.bit_width <= 8    ? 1
                           : input.bit_width <= 15 ? 2
                                                   : 4;
        break;
      case AggregationStrategy::kMultiAggregate:
        input.word_bytes = input.bit_width <= 16 ? 4 : 8;
        break;
      default:
        input.word_bytes = SmallestWordBytes(input.bit_width);
        break;
    }
  }

  // The gather/compact crossover depends on the widest stream selection
  // must materialize.
  int max_materialized_bits = 1;
  for (int idx : group_cols) {
    max_materialized_bits =
        std::max(max_materialized_bits, segment.column(idx).bit_width());
  }
  for (const AggregateInput& input : inputs_) {
    if (!input.is_expr) {
      max_materialized_bits = std::max(max_materialized_bits, input.bit_width);
    } else if (input.expr != nullptr) {
      std::vector<int> cols;
      input.expr->CollectColumns(&cols);
      for (int c : cols) {
        max_materialized_bits =
            std::max(max_materialized_bits, segment.column(c).bit_width());
      }
    }
  }
  d.max_materialized_bits = max_materialized_bits;

  // --- expression plan ------------------------------------------------------
  // Every input aggregating logical int64 values reads a plan root:
  // expressions and decoded columns, and — under multi-aggregate — raw
  // 8-byte sums, which then share the decoded slot an expression may read
  // too. The overflow proof above already bounds their logical values by
  // max_offset * scale + |base|, so they need no compensation. Raw inputs
  // kept in the offset domain get a dense value slot of their own.
  for (AggregateInput& input : inputs_) {
    if (input.is_expr) {
      input.node = expr_plan_.Add(*input.expr);
    } else if (strategy == AggregationStrategy::kMultiAggregate &&
               input.op == AggregateInput::Op::kSum &&
               input.word_bytes == 8) {
      input.node = expr_plan_.Add(*Expr::Column(input.column_index));
      input.compensate = false;
    } else {
      input.value_slot = num_value_slots_++;
    }
  }
  expr_plan_.Finalize();
  if (strategy == AggregationStrategy::kCodeKeyed) BuildCodeKeyed();
  return Status::OK();
}

void SegmentPlan::BuildCodeKeyed() {
  const CodeKeyedInputs& in = decision_.code_keyed;
  CodeKeyedLayout& layout = code_keyed_;
  // Mixed-radix tuple index: key column k weighs the product of the
  // domains before it.
  std::vector<ExprPlan::AffineColumn> columns(segment_->num_columns());
  uint32_t tuples = 1;
  for (size_t k = 0; k < in.key_columns.size(); ++k) {
    const EncodedColumn& col = segment_->column(in.key_columns[k]);
    ExprPlan::AffineColumn& key = columns[in.key_columns[k]];
    for (int code = 0; code < in.key_domains[k]; ++code) {
      key.values.push_back(
          static_cast<int64_t>(LogicalValue(col, static_cast<uint64_t>(code))));
    }
    key.stride = tuples;
    if (in.key_domains[k] > 1) layout.keys.push_back({&col, tuples});
    tuples *= static_cast<uint32_t>(in.key_domains[k]);
  }
  layout.tuples = tuples;
  layout.num_keys = static_cast<uint32_t>(in.num_keys);
  for (size_t j = 0; j < in.carrier_columns.size(); ++j) {
    const EncodedColumn& col = segment_->column(in.carrier_columns[j]);
    ExprPlan::AffineColumn& carrier = columns[in.carrier_columns[j]];
    carrier.carrier = static_cast<int>(j);
    carrier.zero = col.base();
    carrier.step = col.scale();
    layout.carriers.push_back(&col);
  }
  std::vector<int> roots;
  for (const int i : sum_inputs_) roots.push_back(inputs_[i].node);
  layout.coefficients = expr_plan_.AffineCoefficients(
      roots, columns, tuples, static_cast<int>(layout.carriers.size()));
}

void FoldFailure(const Status& next, Status* failure) {
  if (next.ok()) return;
  if (failure->ok() || (failure->code() == StatusCode::kNotSupported &&
                        next.code() != StatusCode::kNotSupported)) {
    *failure = next;
  }
}

Result<ScanPlan> PlanScan(const Table& table, const QuerySpec& query,
                          const StrategyOverrides& overrides,
                          bool enable_segment_elimination) {
  ScanPlan plan;
  plan.forced = overrides.any();
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) {
      return Status::InvalidArgument("unknown filter column: " +
                                     pred.column_name());
    }
    BIPIE_RETURN_NOT_OK(pred.CheckColumnType(table.schema()[idx].type));
    plan.filter_cols.push_back(idx);
  }

  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    if (segment.num_rows() == 0) continue;
    int eliminated_by = -1;
    if (enable_segment_elimination) {
      for (size_t f = 0; f < query.filters.size(); ++f) {
        if (query.filters[f].EliminatesSegment(
                segment.column(plan.filter_cols[f]))) {
          eliminated_by = static_cast<int>(f);
          break;
        }
      }
    }
    if (eliminated_by >= 0) {
      ++plan.segments_eliminated;
      plan.segments.emplace_back(table, s, eliminated_by);
      continue;
    }
    ++plan.segments_scanned;
    plan.segments.emplace_back(table, s, query, overrides);
    FoldFailure(plan.segments.back().status(), &plan.failure);
  }
  return plan;
}

}  // namespace bipie
