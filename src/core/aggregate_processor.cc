#include "core/aggregate_processor.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bits.h"
#include "common/memory_tracker.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "encoding/bitpack.h"
#include "encoding/byteslice.h"
#include "vector/agg_inregister.h"
#include "vector/agg_minmax.h"
#include "vector/agg_scalar.h"
#include "vector/compact.h"
#include "vector/gather_select.h"
#include "vector/run_agg.h"
#include "vector/selection_vector.h"
#include "vector/special_group.h"

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

// Rebases a packed stream to a batch window. Batch starts are multiples of
// kBatchRows = 4096, so start * bit_width is always a whole byte count.
const uint8_t* RebasedPacked(const EncodedColumn& col, size_t start) {
  BIPIE_DCHECK(start * static_cast<uint64_t>(col.bit_width()) % 8 == 0);
  return col.packed_data() +
         start * static_cast<uint64_t>(col.bit_width()) / 8;
}

}  // namespace

Status AggregateProcessor::Bind(const Table& table, const Segment& segment,
                                const QuerySpec& query,
                                const StrategyOverrides& overrides) {
  table_ = &table;
  segment_ = &segment;
  query_ = &query;
  overrides_ = overrides;
  selection_stats_ = SelectionStats{};
  multi_agg_ready_ = false;

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
  inputs_.clear();
  spec_to_input_.clear();
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
    AggInput input;
    switch (spec.kind) {
      case AggregateSpec::Kind::kMin:
        input.op = AggInput::Op::kMin;
        break;
      case AggregateSpec::Kind::kMax:
        input.op = AggInput::Op::kMax;
        break;
      default:
        input.op = AggInput::Op::kSum;
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
  for (AggInput& input : inputs_) {
    if (input.op != AggInput::Op::kSum) continue;  // extrema cannot overflow
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
  sum_inputs_.clear();
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].op == AggInput::Op::kSum) {
      sum_inputs_.push_back(static_cast<int>(i));
    }
  }
  const int num_sums = static_cast<int>(sum_inputs_.size());
  int max_value_bits = 1;
  bool any_expr = false;
  for (int i : sum_inputs_) {
    const AggInput& input = inputs_[i];
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
    const AggInput& input = inputs_[i];
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
      run_in.filters_are_runs = false;  // Execute reports the real error
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
  for (const AggInput& input : inputs_) {
    const bool raw_packed_sum =
        !input.is_expr && input.op == AggInput::Op::kSum;
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
    if (idx < 0) continue;  // Execute reports the real error
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

  // Cost model (DESIGN.md §17): score every candidate pipeline from the
  // same metadata under the active calibration profile. Pure arithmetic on
  // segment statistics — decisions under the builtin profile are
  // machine-independent. The legacy heuristics stay authoritative when the
  // mode is kOff (and remain the hedge in kAdaptive).
  const CostModelMode cost_mode = overrides.cost_model;
  const bool model_active = cost_mode != CostModelMode::kOff;
  cost::SegmentCostInputs model_in;
  cost::SegmentCosts model_costs;
  model_gather_crossover_ = -1.0;
  if (model_active) {
    const cost::CostModel model(cost::ActiveProfile());
    model_in.rows = segment.num_rows();
    model_in.filtered = filtered;
    // Unified selectivity (the fix for the old inconsistency: run-based
    // admission used a constant while byteslice admission estimated — now
    // every path sees the same per-predicate product estimate).
    double sel_product = 1.0;
    double filter_decode = 0.0;
    double filter_byteslice = 0.0;
    bool any_byteslice_filter = false;
    for (const ColumnPredicate& pred : query.filters) {
      const int idx = table.FindColumn(pred.column_name());
      if (idx < 0) continue;  // Execute reports the real error
      const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
      if (pred.MatchesAllRows(col)) continue;  // metadata-satisfied: free
      if (pred.EliminatesSegment(col)) {
        sel_product = 0.0;
        continue;
      }
      const double s_f = std::clamp(
          EstimatePredicateSelectivity(pred.op(), pred.literal(),
                                       pred.literal2(), col.meta().min,
                                       col.meta().max),
          0.0, 1.0);
      sel_product *= s_f;
      const size_t col_runs =
          col.encoding() == Encoding::kRle ? col.runs().size() : 1;
      // The byte-sliced fallback is assemble-then-compare: the sequential
      // plane merge runs at bit-unpack throughput, not at the per-plane
      // scan cost, so it is priced as a plain unpack of the same width.
      const double decode_cost =
          (col.encoding() == Encoding::kByteSliced
               ? model.UnpackCyclesPerRow(col.bit_width())
               : model.DecodeCyclesPerRow(col.encoding(), col.bit_width(),
                                          segment.num_rows(), col_runs)) +
          model.CompareCyclesPerRow(col.bit_width());
      filter_decode += decode_cost;
      if (col.encoding() == Encoding::kByteSliced) {
        any_byteslice_filter = true;
        filter_byteslice += model.ByteSliceFilterCyclesPerRow(
            ByteSlicePlanes(col.bit_width()), s_f);
      } else {
        filter_byteslice += decode_cost;
      }
    }
    model_in.selectivity = filtered ? sel_product : 1.0;
    model_in.filter_decode_cpr = filter_decode;
    model_in.byteslice_capable =
        any_byteslice_filter && !overrides.byteslice.has_value();
    model_in.filter_byteslice_cpr =
        any_byteslice_filter ? filter_byteslice : -1.0;
    for (int idx : group_cols) {
      const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
      const size_t col_runs =
          col.encoding() == Encoding::kRle ? col.runs().size() : 1;
      model_in.group_decode_cpr += model.DecodeCyclesPerRow(
          col.encoding(), col.bit_width(), segment.num_rows(), col_runs);
    }
    for (const AggInput& input : inputs_) {
      if (input.run_column != nullptr) {
        const size_t col_runs = input.run_column->runs().size();
        model_in.agg_decode_cpr += model.DecodeCyclesPerRow(
            Encoding::kRle, input.run_column->bit_width(),
            segment.num_rows(), col_runs);
        // Run path: RLE aggregates reduce to run-metadata arithmetic.
        model_in.run_agg_cpr +=
            model.profile().rle_run_cycles *
            (segment.num_rows() == 0
                 ? 0.0
                 : static_cast<double>(std::max<size_t>(col_runs, 1)) /
                       static_cast<double>(segment.num_rows()));
      } else if (input.is_expr) {
        model_in.agg_decode_cpr += model.profile().expr_eval_cycles;
      } else {
        const double unpack = model.UnpackCyclesPerRow(input.bit_width);
        model_in.agg_decode_cpr += unpack;
        // Run path: only surviving spans unpack their rows.
        model_in.run_agg_cpr += model_in.selectivity * unpack;
      }
    }
    model_in.num_sums = num_sums;
    model_in.in_register_feasible =
        groups_for_choice <= kMaxInRegisterGroups && !any_expr &&
        max_value_bits <= 32;
    model_in.multi_fits = multi_fits;
    model_in.sort_feasible = num_sums >= 1;
    model_in.checked_feasible = true;
    model_in.run_capable = RunBasedCapable(run_in);
    model_in.run_spans = run_in.estimated_spans;
    model_in.special_group_available = may_use_special;
    model_costs = model.ScoreSegment(model_in);
  }

  // Record the decision inputs (plain data only — Bind runs per morsel)
  // before any feasibility check can reject the bind, so an explain of a
  // forced infeasible plan still shows what drove the rejection.
  decision_ = PlanDecision{};
  decision_.aggregation_forced = overrides.aggregation.has_value();
  decision_.forced_selection = overrides.selection;
  decision_.num_groups = num_groups;
  decision_.groups_for_choice = groups_for_choice;
  decision_.num_sums = num_sums;
  decision_.max_value_bits = max_value_bits;
  decision_.expected_selectivity = expected_selectivity;
  decision_.multi_aggregate_fits = multi_fits;
  decision_.in_register_feasible = groups_for_choice <= kMaxInRegisterGroups &&
                                   !any_expr && max_value_bits <= 32;
  decision_.any_expr_input = any_expr;
  decision_.overflow_risk = overflow_risk;
  decision_.filtered = filtered;
  decision_.run_inputs = run_in;
  decision_.run_capable = RunBasedCapable(run_in);
  decision_.run_admitted = RunBasedAdmitted(run_in);
  decision_.byteslice_inputs = bs_in;
  decision_.byteslice_capable = ByteSliceCapable(bs_in);
  decision_.byteslice_admitted = overrides.byteslice.has_value()
                                     ? *overrides.byteslice
                                     : ByteSliceAdmitted(bs_in);
  decision_.forced_byteslice = overrides.byteslice;
  decision_.cost_model_mode = cost_mode;
  if (model_active) {
    decision_.cost_model_profile_calibrated =
        cost::ActiveProfile().calibrated != 0;
    decision_.model_selectivity = model_in.selectivity;
    for (int i = 0; i < kNumAggregationStrategies; ++i) {
      decision_.model_total_cpr[i] = model_costs.total_cpr[i];
    }
    for (int i = 0; i < 3; ++i) {
      decision_.model_selection_cpr[i] = model_costs.selection_cpr[i];
    }
    decision_.model_gather_crossover = model_costs.gather_crossover;
    decision_.model_filter_decode_cpr = model_in.filter_decode_cpr;
    decision_.model_filter_byteslice_cpr = model_in.filter_byteslice_cpr;

    // Byteslice admission via predicted filter cost (forced wins below).
    if (!overrides.byteslice.has_value() && decision_.byteslice_capable) {
      const bool heuristic_admits = ByteSliceAdmitted(bs_in);
      bool model_admits = model_costs.use_byteslice;
      if (cost_mode == CostModelMode::kAdaptive &&
          model_admits != heuristic_admits) {
        // Keep the heuristic unless the model's pick is clearly cheaper.
        const double model_side = model_admits
                                      ? model_in.filter_byteslice_cpr
                                      : model_in.filter_decode_cpr;
        const double heuristic_side = model_admits
                                          ? model_in.filter_decode_cpr
                                          : model_in.filter_byteslice_cpr;
        if (!(model_side < kCostModelAdaptiveMargin * heuristic_side)) {
          model_admits = heuristic_admits;
        }
      }
      decision_.byteslice_admitted = model_admits;
    }
  }

  if (overrides.byteslice.has_value() && *overrides.byteslice &&
      !ByteSliceCapable(bs_in)) {
    decision_.byteslice_admitted = false;
    return Status::NotSupported(
        "byteslice kernels infeasible: no filter binds to a byte-sliced "
        "column of this segment");
  }

  if (overflow_risk) {
    if (overrides.aggregation.has_value() &&
        *overrides.aggregation != AggregationStrategy::kCheckedScalar) {
      return Status::OverflowRisk(
          "segment metadata cannot prove int64-safe sums; forced strategy "
          "rejected");
    }
    agg_strategy_ = AggregationStrategy::kCheckedScalar;
  } else if (overrides.aggregation.has_value()) {
    agg_strategy_ = *overrides.aggregation;
    if (agg_strategy_ == AggregationStrategy::kRunBased &&
        !RunBasedCapable(run_in)) {
      return Status::NotSupported(
          "run-based aggregation infeasible: requires RLE/constant group "
          "columns, run-representable filters and aggregates, no deleted "
          "rows, and no forced selection strategy");
    }
    if (agg_strategy_ == AggregationStrategy::kInRegister &&
        (groups_for_choice > kMaxInRegisterGroups || any_expr ||
         max_value_bits > 32)) {
      return Status::NotSupported(
          "in-register aggregation infeasible for this query/segment");
    }
    if (agg_strategy_ == AggregationStrategy::kMultiAggregate &&
        !multi_fits) {
      return Status::NotSupported(
          "multi-aggregate row does not fit one SIMD register");
    }
    if (agg_strategy_ == AggregationStrategy::kSortBased && num_sums == 0) {
      return Status::NotSupported("sort-based strategy needs >= 1 sum");
    }
  } else if (model_active) {
    // What the legacy constants would have picked — the kOff decision, and
    // the kAdaptive hedge the model must clearly beat.
    const AggregationStrategy heuristic =
        RunBasedAdmitted(run_in)
            ? AggregationStrategy::kRunBased
            : ChooseAggregationStrategy(groups_for_choice, num_sums,
                                        max_value_bits, expected_selectivity,
                                        multi_fits);
    AggregationStrategy pick = model_costs.chosen;
    if (cost_mode == CostModelMode::kAdaptive && pick != heuristic) {
      const double pick_cpr =
          model_costs.total_cpr[static_cast<int>(pick)];
      const double heuristic_cpr =
          model_costs.total_cpr[static_cast<int>(heuristic)];
      if (heuristic_cpr >= 0.0 &&
          !(pick_cpr < kCostModelAdaptiveMargin * heuristic_cpr)) {
        pick = heuristic;
      }
    }
    agg_strategy_ = pick;
    decision_.cost_model_overrode = pick != heuristic;
    // run_admitted reports the decision actually taken for this segment.
    decision_.run_admitted =
        agg_strategy_ == AggregationStrategy::kRunBased;
    if (cost_mode == CostModelMode::kOn) {
      // The per-batch selection crossover comes from the model too;
      // kAdaptive keeps the Figure-7 heuristic (conservative hedge).
      model_gather_crossover_ = model_costs.gather_crossover;
    }
  } else if (RunBasedAdmitted(run_in)) {
    agg_strategy_ = AggregationStrategy::kRunBased;
  } else {
    agg_strategy_ = ChooseAggregationStrategy(
        groups_for_choice, num_sums, max_value_bits, expected_selectivity,
        multi_fits);
  }

  special_group_available_ =
      may_use_special && num_groups + 1 <= GroupCapacity(agg_strategy_);

  // --- per-strategy input decode widths -------------------------------------
  const bool scalar_like = agg_strategy_ == AggregationStrategy::kScalar ||
                           agg_strategy_ == AggregationStrategy::kCheckedScalar;
  for (AggInput& input : inputs_) {
    const bool wide_minmax = input.op != AggInput::Op::kSum &&
                             !input.is_expr && input.bit_width > 32;
    if ((scalar_like || wide_minmax) && !input.is_expr) {
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
    if (input.op != AggInput::Op::kSum) {
      // Extrema kernels take the smallest word regardless of strategy.
      input.word_bytes = SmallestWordBytes(input.bit_width);
      continue;
    }
    switch (agg_strategy_) {
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
  max_materialized_bits_ = 1;
  for (int idx : group_cols) {
    max_materialized_bits_ = std::max(
        max_materialized_bits_, segment.column(idx).bit_width());
  }
  for (const AggInput& input : inputs_) {
    if (!input.is_expr) {
      max_materialized_bits_ =
          std::max(max_materialized_bits_, input.bit_width);
    } else if (input.expr != nullptr) {
      std::vector<int> cols;
      input.expr->CollectColumns(&cols);
      for (int c : cols) {
        max_materialized_bits_ = std::max(
            max_materialized_bits_, segment.column(c).bit_width());
      }
    }
  }

  decision_.aggregation = agg_strategy_;
  decision_.special_group_available = special_group_available_;
  decision_.max_materialized_bits = max_materialized_bits_;

  // --- expression plan ------------------------------------------------------
  // Every input aggregating logical int64 values reads a plan root:
  // expressions and decoded columns, and — under multi-aggregate — raw
  // 8-byte sums, which then share the decoded slot an expression may read
  // too. The overflow proof above already bounds their logical values by
  // max_offset * scale + |base|, so they need no compensation. Raw inputs
  // kept in the offset domain get a dense value slot of their own.
  plan_.Clear();
  num_value_slots_ = 0;
  for (AggInput& input : inputs_) {
    input.node = -1;
    input.value_slot = -1;
    if (input.is_expr) {
      input.node = plan_.Add(*input.expr);
    } else if (agg_strategy_ == AggregationStrategy::kMultiAggregate &&
               input.op == AggInput::Op::kSum && input.word_bytes == 8) {
      input.node = plan_.Add(*Expr::Column(input.column_index));
      input.compensate = false;
    } else {
      input.value_slot = num_value_slots_++;
    }
  }
  plan_.Finalize();

  // --- accumulators & engines -----------------------------------------------
  counts_.assign(static_cast<size_t>(num_groups) + 1, 0);
  sums_.assign(inputs_.size() * (static_cast<size_t>(num_groups) + 1), 0);
  minmax_.assign(inputs_.size() * (static_cast<size_t>(num_groups) + 1), 0);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& input = inputs_[i];
    if (input.op == AggInput::Op::kSum) continue;
    uint64_t sentinel;
    if (input.is_expr) {
      sentinel = input.op == AggInput::Op::kMin
                     ? static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::max())
                     : static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::min());
    } else {
      sentinel = input.op == AggInput::Op::kMin ? ~uint64_t{0} : 0;
    }
    std::fill_n(minmax_.begin() +
                    i * (static_cast<size_t>(num_groups) + 1),
                static_cast<size_t>(num_groups) + 1, sentinel);
  }
  run_cursors_.assign(inputs_.size(), RunCursor{});

  if (agg_strategy_ == AggregationStrategy::kMultiAggregate) {
    std::vector<MultiAggregator::ColumnDesc> descs;
    for (int i : sum_inputs_) {
      descs.push_back({inputs_[i].word_bytes == 4 ? 4 : 8});
    }
    const int geff = num_groups + (special_group_available_ ? 1 : 0);
    BIPIE_RETURN_NOT_OK(
        multi_agg_.Configure(descs, geff, &scratch_->accumulators));
    multi_agg_ready_ = true;
  }
  return Status::OK();
}

AggregateProcessor::BatchMode AggregateProcessor::PickBatchMode(
    size_t n, size_t selected, const uint8_t* sel) {
  if (sel == nullptr) return BatchMode::kFull;
  if (overrides_.selection.has_value()) {
    switch (*overrides_.selection) {
      case SelectionStrategy::kGather:
        return BatchMode::kGather;
      case SelectionStrategy::kCompact:
        return BatchMode::kCompact;
      case SelectionStrategy::kSpecialGroup:
        return special_group_available_ ? BatchMode::kSpecialGroup
                                        : BatchMode::kCompact;
    }
  }
  const double selectivity =
      static_cast<double>(selected) / static_cast<double>(n);
  if (model_gather_crossover_ >= 0.0) {
    // cost_model=on: the crossover was bisected from calibrated
    // throughputs at Bind; the per-batch decision stays one comparison.
    if (selectivity <= model_gather_crossover_) return BatchMode::kGather;
    return special_group_available_ ? BatchMode::kSpecialGroup
                                    : BatchMode::kCompact;
  }
  switch (ChooseSelectionStrategy(selectivity, max_materialized_bits_,
                                  special_group_available_)) {
    case SelectionStrategy::kGather:
      return BatchMode::kGather;
    case SelectionStrategy::kSpecialGroup:
      return BatchMode::kSpecialGroup;
    case SelectionStrategy::kCompact:
      return BatchMode::kCompact;
  }
  return BatchMode::kCompact;
}

void AggregateScratch::RegisterWithThread() {
  for (AlignedBuffer* buffer :
       {&groups, &indices, &compact, &slots, &accumulators, &group_ids}) {
    RegisterThreadScratchBuffer(buffer);
  }
}

void AggregateProcessor::PrepareSlots(size_t n) {
  // Rounded to whole 64-byte lines; plan kernels run to a multiple of 4.
  slot_stride_ = (n + 7) & ~size_t{7};
  const size_t slots =
      plan_.num_slots() + static_cast<size_t>(num_value_slots_);
  scratch_->slots.Resize(slots * slot_stride_ * sizeof(int64_t));
  plan_.SetStorage(scratch_->slots.data_as<int64_t>(), slot_stride_);
}

void AggregateProcessor::EvaluatePlan(size_t start, size_t n,
                                      const uint8_t* sel,
                                      const uint32_t* indices, size_t m,
                                      BatchMode mode) {
  if (plan_.num_slots() == 0) return;
  const std::vector<int>& columns = plan_.columns();
  for (size_t k = 0; k < columns.size(); ++k) {
    const EncodedColumn& col = segment_->column(columns[k]);
    int64_t* dst = plan_.column_values(k);
    switch (mode) {
      case BatchMode::kFull:
      case BatchMode::kSpecialGroup:
        col.DecodeInt64(start, n, dst);
        continue;
      case BatchMode::kGather:
        if (col.encoding() == Encoding::kBitPacked) {
          GatherSelect(RebasedPacked(col, start), col.bit_width(), indices, m,
                       dst, 8);
          const uint64_t base = static_cast<uint64_t>(col.base());
          const uint64_t scale = col.scale();
          if (base != 0 || scale != 1) {
            for (size_t r = 0; r < m; ++r) {
              dst[r] = static_cast<int64_t>(
                  base + scale * static_cast<uint64_t>(dst[r]));
            }
          }
          continue;
        }
        break;
      case BatchMode::kCompact:
        break;
    }
    // Post-filter processing: decode the window once and compact it, so
    // the plan touches only the m surviving rows (the §6.2 trade).
    scratch_->compact.Resize(n * sizeof(int64_t));
    col.DecodeInt64(start, n, scratch_->compact.data_as<int64_t>());
    CompactValues(sel, scratch_->compact.data(), n, 8, dst);
  }
  plan_.Run(m);
}

size_t AggregateProcessor::BuildDenseBatch(size_t start, size_t n,
                                           const uint8_t* sel,
                                           BatchMode mode) {
  const int num_groups = mapper_.num_groups();
  scratch_->groups.Resize(n);
  uint8_t* groups = scratch_->groups.data();

  size_t m = n;
  const uint32_t* indices = nullptr;
  if (mode == BatchMode::kGather) {
    scratch_->indices.Resize((n + 8) * sizeof(uint32_t));
    m = CompactToIndexVector(sel, n, scratch_->indices.data_as<uint32_t>());
    indices = scratch_->indices.data_as<uint32_t>();
    mapper_.MapSelected(start, indices, m, groups);
  } else {
    mapper_.MapBatch(start, n, groups);
    if (mode == BatchMode::kSpecialGroup) {
      ApplySpecialGroup(groups, sel, n,
                        static_cast<uint8_t>(num_groups), groups);
    } else if (mode == BatchMode::kCompact) {
      scratch_->compact.Resize(n);
      m = CompactValues(sel, groups, n, 1, scratch_->compact.data());
      std::memcpy(groups, scratch_->compact.data(), m);
    }
  }

  PrepareSlots(n);
  EvaluatePlan(start, n, sel, indices, m, mode);
  for (const AggInput& input : inputs_) {
    if (input.value_slot < 0) continue;
    // Raw bit-packed input, in the offset domain.
    const int word = input.word_bytes;
    uint8_t* values = ValueSlot(input);
    switch (mode) {
      case BatchMode::kFull:
      case BatchMode::kSpecialGroup:
        input.column->UnpackIds(start, n, values, word);
        break;
      case BatchMode::kGather:
        GatherSelect(RebasedPacked(*input.column, start), input.bit_width,
                     indices, m, values, word);
        break;
      case BatchMode::kCompact:
        scratch_->compact.Resize(n * static_cast<size_t>(word));
        input.column->UnpackIds(start, n, scratch_->compact.data(), word);
        CompactValues(sel, scratch_->compact.data(), n, word, values);
        break;
    }
  }
  return m;
}

Status AggregateProcessor::ProcessBatch(size_t start, size_t n,
                                        const uint8_t* sel, size_t selected) {
  BIPIE_DCHECK(start % kBatchRows == 0);
  BIPIE_DCHECK(selected == (sel != nullptr ? CountSelected(sel, n) : n));
  if (n == 0 || selected == 0) return Status::OK();
  if (selected == n) sel = nullptr;  // filter passed everything
  const BatchMode mode = PickBatchMode(n, selected, sel);
  switch (mode) {
    case BatchMode::kFull:
      ++selection_stats_.unfiltered;
      break;
    case BatchMode::kGather:
      ++selection_stats_.gather;
      break;
    case BatchMode::kCompact:
      ++selection_stats_.compact;
      break;
    case BatchMode::kSpecialGroup:
      ++selection_stats_.special_group;
      break;
  }
  switch (agg_strategy_) {
    case AggregationStrategy::kInRegister:
      return ProcessInRegister(start, n, sel, mode);
    case AggregationStrategy::kMultiAggregate:
      return ProcessMultiAggregate(start, n, sel, mode);
    case AggregationStrategy::kSortBased:
      return ProcessSortBased(start, n, sel, mode);
    case AggregationStrategy::kScalar:
      return ProcessScalar(start, n, sel, mode, /*checked=*/false);
    case AggregationStrategy::kCheckedScalar:
      return ProcessScalar(start, n, sel, mode, /*checked=*/true);
    case AggregationStrategy::kRunBased:
      // The run pipeline drives ProcessRunSpan directly; the batch entry
      // point has no row-level configuration to fall back on.
      return Status::Internal(
          "ProcessBatch called on a run-based-bound processor");
  }
  return Status::Internal("unknown aggregation strategy");
}

Status AggregateProcessor::ProcessRunSpan(uint8_t group, size_t start,
                                          size_t len) {
  BIPIE_DCHECK(agg_strategy_ == AggregationStrategy::kRunBased);
  BIPIE_DCHECK(group < counts_.size());
  if (len == 0) return Status::OK();
  counts_[group] += len;
  const size_t stride = static_cast<size_t>(mapper_.num_groups()) + 1;
  const size_t end = start + len;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& input = inputs_[i];
    if (input.run_column != nullptr) {
      // RLE aggregate input: pure run-metadata arithmetic, zero decode.
      // The overflow proof bounds |value| * len by max_abs * segment_rows,
      // so the multiplications below cannot wrap.
      const std::vector<RleRun>& runs = input.run_column->runs();
      RunCursor& cur = run_cursors_[i];
      while (cur.run_idx < runs.size() &&
             cur.run_start + runs[cur.run_idx].count <= start) {
        cur.run_start += runs[cur.run_idx].count;
        ++cur.run_idx;
      }
      int64_t* sums = sums_.data() + i * stride;
      auto* extrema = reinterpret_cast<int64_t*>(minmax_.data() + i * stride);
      size_t pos = start;
      size_t idx = cur.run_idx;
      size_t run_start = cur.run_start;
      while (pos < end) {
        BIPIE_DCHECK(idx < runs.size());
        const size_t run_end = run_start + runs[idx].count;
        const size_t hi = run_end < end ? run_end : end;
        const auto value = static_cast<int64_t>(runs[idx].value);
        switch (input.op) {
          case AggInput::Op::kSum:
            sums[group] += value * static_cast<int64_t>(hi - pos);
            break;
          case AggInput::Op::kMin:
            extrema[group] = std::min(extrema[group], value);
            break;
          case AggInput::Op::kMax:
            extrema[group] = std::max(extrema[group], value);
            break;
        }
        pos = hi;
        if (pos >= run_end) {
          run_start = run_end;
          ++idx;
        }
      }
      continue;
    }
    if (input.is_expr || input.op != AggInput::Op::kSum) {
      return Status::Internal("run span over a non-run-representable input");
    }
    // Raw bit-packed SUM: fused span sum over the packed bytes, in the
    // offset domain (Finish compensates: scale * sum + base * count).
    reinterpret_cast<uint64_t*>(sums_.data() + i * stride)[group] +=
        SumBitPackedRange(input.column->packed_data(), start, len,
                          input.bit_width);
  }
  return Status::OK();
}

Status AggregateProcessor::ProcessInRegister(size_t start, size_t n,
                                             const uint8_t* sel,
                                             BatchMode mode) {
  const int num_groups = mapper_.num_groups();
  const size_t m = BuildDenseBatch(start, n, sel, mode);
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = scratch_->groups.data();
  InRegisterCount(groups, m, geff, counts_.data());
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : sum_inputs_) {
    const AggInput& input = inputs_[i];
    auto* sums = reinterpret_cast<uint64_t*>(sums_.data() + i * stride);
    const uint8_t* values = ValueSlot(input);
    switch (input.word_bytes) {
      case 1:
        InRegisterSum8(groups, values, m, geff, sums);
        break;
      case 2:
        InRegisterSum16(groups, reinterpret_cast<const uint16_t*>(values), m,
                        geff, sums);
        break;
      case 4:
        InRegisterSum32(groups, reinterpret_cast<const uint32_t*>(values), m,
                        geff, input.max_offset, sums);
        break;
      default:
        return Status::Internal("bad in-register word");
    }
  }
  ProcessMinMaxDense(mode, m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessMultiAggregate(size_t start, size_t n,
                                                 const uint8_t* sel,
                                                 BatchMode mode) {
  const int num_groups = mapper_.num_groups();
  const size_t m = BuildDenseBatch(start, n, sel, mode);
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = scratch_->groups.data();
  if (geff <= kMaxInRegisterGroups) {
    InRegisterCount(groups, m, geff, counts_.data());
  } else {
    ScalarCountMultiArray(groups, m, geff, counts_.data());
  }
  // A fitting row holds at most four qwords or eight paired halves.
  const void* ptrs[8];
  BIPIE_DCHECK(sum_inputs_.size() <= 8);
  for (size_t k = 0; k < sum_inputs_.size(); ++k) {
    const AggInput& input = inputs_[sum_inputs_[k]];
    ptrs[k] = input.node >= 0 ? static_cast<const void*>(PlanValues(input))
                              : static_cast<const void*>(ValueSlot(input));
  }
  multi_agg_.Process(groups, ptrs, m);
  ProcessMinMaxDense(mode, m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessSortBased(size_t start, size_t n,
                                            const uint8_t* sel,
                                            BatchMode mode) {
  const int num_groups = mapper_.num_groups();
  scratch_->groups.Resize(n);
  uint8_t* groups = scratch_->groups.data();
  int geff = num_groups;
  size_t m = n;
  const uint32_t* indices = nullptr;

  if (mode == BatchMode::kSpecialGroup) {
    mapper_.MapBatch(start, n, groups);
    ApplySpecialGroup(groups, sel, n, static_cast<uint8_t>(num_groups),
                      groups);
    geff = num_groups + 1;
  } else if (mode == BatchMode::kFull) {
    mapper_.MapBatch(start, n, groups);
  } else {
    // Gather and compaction selection both reduce to sorting a selection
    // index vector (§5.2: rows are excluded before sorting).
    mapper_.MapBatch(start, n, groups);
    scratch_->indices.Resize((n + 8) * sizeof(uint32_t));
    m = CompactToIndexVector(sel, n, scratch_->indices.data_as<uint32_t>());
    indices = scratch_->indices.data_as<uint32_t>();
  }
  sorted_batch_.Sort(groups, indices, m, geff);
  // Sorted index ranges address the whole window: evaluate it unselected.
  PrepareSlots(n);
  EvaluatePlan(start, n, nullptr, nullptr, n, BatchMode::kFull);

  for (int g = 0; g < geff; ++g) {
    counts_[g] += sorted_batch_.count(g);
  }
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : sum_inputs_) {
    const AggInput& input = inputs_[i];
    int64_t* sums = sums_.data() + i * stride;
    if (input.node >= 0) {
      SortedSumDecoded(PlanValues(input), sorted_batch_, sums);
    } else {
      SortedGatherSum(RebasedPacked(*input.column, start), input.bit_width,
                      sorted_batch_, reinterpret_cast<uint64_t*>(sums));
    }
  }
  return ProcessMinMaxSorted(start, n, geff);
}

Status AggregateProcessor::ProcessScalar(size_t start, size_t n,
                                         const uint8_t* sel, BatchMode mode,
                                         bool checked) {
  const int num_groups = mapper_.num_groups();
  const size_t m = BuildDenseBatch(start, n, sel, mode);
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = scratch_->groups.data();
  ScalarCountMultiArray(groups, m, geff, counts_.data());
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : sum_inputs_) {
    const int64_t* values = PlanValues(inputs_[i]);
    int64_t* sums = sums_.data() + i * stride;
    if (checked) {
      for (size_t r = 0; r < m; ++r) {
        if (__builtin_add_overflow(sums[groups[r]], values[r],
                                   &sums[groups[r]])) {
          return Status::OverflowRisk("int64 sum overflow during scan");
        }
      }
    } else {
      ScalarSumMultiArray(groups, values, m, geff, sums);
    }
  }
  ProcessMinMaxDense(mode, m, geff);
  return Status::OK();
}

void AggregateProcessor::ProcessMinMaxDense(BatchMode mode, size_t m,
                                            int geff) {
  (void)mode;
  const size_t stride = static_cast<size_t>(mapper_.num_groups()) + 1;
  const uint8_t* groups = scratch_->groups.data();
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& input = inputs_[i];
    if (input.op == AggInput::Op::kSum) continue;
    uint64_t* extrema = minmax_.data() + i * stride;
    if (input.node >= 0) {
      const int64_t* values = PlanValues(input);
      if (input.op == AggInput::Op::kMin) {
        GroupedMinI64(groups, values, m, geff,
                      reinterpret_cast<int64_t*>(extrema));
      } else {
        GroupedMaxI64(groups, values, m, geff,
                      reinterpret_cast<int64_t*>(extrema));
      }
    } else {
      if (input.op == AggInput::Op::kMin) {
        GroupedMinU(groups, ValueSlot(input), input.word_bytes, m, geff,
                    extrema);
      } else {
        GroupedMaxU(groups, ValueSlot(input), input.word_bytes, m, geff,
                    extrema);
      }
    }
  }
}

Status AggregateProcessor::ProcessMinMaxSorted(size_t start, size_t n,
                                               int geff) {
  const size_t stride = static_cast<size_t>(mapper_.num_groups()) + 1;
  const uint32_t* idx = sorted_batch_.indices();
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& input = inputs_[i];
    if (input.op == AggInput::Op::kSum) continue;
    uint64_t* extrema = minmax_.data() + i * stride;
    if (input.node >= 0) {
      const int64_t* values = PlanValues(input);
      auto* typed = reinterpret_cast<int64_t*>(extrema);
      for (int g = 0; g < geff; ++g) {
        int64_t e = typed[g];
        for (uint32_t k = sorted_batch_.offset(g);
             k < sorted_batch_.offset(g + 1); ++k) {
          const int64_t v = values[idx[k]];
          e = input.op == AggInput::Op::kMin ? std::min(e, v)
                                             : std::max(e, v);
        }
        typed[g] = e;
      }
    } else {
      // Decode the full window once at the input's word width, then walk
      // the sorted index ranges.
      uint8_t* values = ValueSlot(input);
      input.column->UnpackIds(start, n, values, input.word_bytes);
      for (int g = 0; g < geff; ++g) {
        uint64_t e = extrema[g];
        for (uint32_t k = sorted_batch_.offset(g);
             k < sorted_batch_.offset(g + 1); ++k) {
          uint64_t v = 0;
          std::memcpy(&v,
                      values + static_cast<size_t>(idx[k]) * input.word_bytes,
                      input.word_bytes);
          if (input.op == AggInput::Op::kMin ? v < e : v > e) e = v;
        }
        extrema[g] = e;
      }
    }
  }
  return Status::OK();
}

Status AggregateProcessor::Finish(SegmentResult* out) {
  const int num_groups = mapper_.num_groups();
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  if (agg_strategy_ == AggregationStrategy::kMultiAggregate &&
      multi_agg_ready_) {
    // MultiAggregator keeps sums in [group][column] layout; fold into the
    // [input][group] accumulators (special slot included when present).
    const int geff = multi_agg_.num_groups();
    const size_t ncols = sum_inputs_.size();
    std::vector<int64_t> flat(static_cast<size_t>(geff) * ncols, 0);
    multi_agg_.Flush(flat.data());
    for (int g = 0; g < geff; ++g) {
      for (size_t k = 0; k < ncols; ++k) {
        sums_[static_cast<size_t>(sum_inputs_[k]) * stride + g] +=
            flat[g * ncols + k];
      }
    }
  }
  out->num_groups = num_groups;
  out->mapper = &mapper_;
  out->counts.assign(counts_.begin(), counts_.begin() + num_groups);
  out->values.assign(static_cast<size_t>(num_groups) *
                         query_->aggregates.size(),
                     0);
  for (int g = 0; g < num_groups; ++g) {
    const uint64_t count = counts_[g];
    for (size_t s = 0; s < query_->aggregates.size(); ++s) {
      int64_t value;
      const int input_idx = spec_to_input_[s];
      if (input_idx < 0) {
        value = static_cast<int64_t>(count);
      } else {
        const AggInput& input = inputs_[input_idx];
        // Offset-domain results map back through v = base + scale * o:
        // a sum of count offsets gains base * count, an extremum is
        // rebased once (the map is monotonic). Unsigned arithmetic: the
        // overflow proof bounds the true result, not the empty groups'
        // extremum sentinels.
        const auto base = static_cast<uint64_t>(input.base);
        if (input.op == AggInput::Op::kSum) {
          value = sums_[static_cast<size_t>(input_idx) * stride + g];
          if (input.compensate) {
            value = static_cast<int64_t>(
                input.scale * static_cast<uint64_t>(value) + base * count);
          }
        } else {
          const uint64_t raw =
              minmax_[static_cast<size_t>(input_idx) * stride + g];
          value = static_cast<int64_t>(input.compensate
                                           ? base + input.scale * raw
                                           : raw);
        }
      }
      out->values[static_cast<size_t>(g) * query_->aggregates.size() + s] =
          value;
    }
  }
  return Status::OK();
}

}  // namespace bipie
