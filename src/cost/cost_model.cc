#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "encoding/byteslice.h"

namespace bipie::cost {

namespace {

double RunsPerRow(size_t rows, size_t runs) {
  if (rows == 0) return 0.0;
  return static_cast<double>(std::max<size_t>(runs, 1)) /
         static_cast<double>(rows);
}

}  // namespace

double CostModel::UnpackCyclesPerRow(int bit_width) const {
  return p_.unpack_cycles[WidthBucket(bit_width)];
}

double CostModel::CompareCyclesPerRow(int bit_width) const {
  return p_.compare_cycles[WidthBucket(bit_width)];
}

double CostModel::DecodeCyclesPerRow(Encoding encoding, int bit_width,
                                     size_t rows, size_t runs) const {
  switch (encoding) {
    case Encoding::kBitPacked:
      return UnpackCyclesPerRow(bit_width);
    case Encoding::kDictionary:
      // Unpack the ids, then one table lookup per row (modelled by the
      // special-group remap primitive: it is the same indexed byte fetch).
      return UnpackCyclesPerRow(bit_width) + p_.special_group_row_cycles;
    case Encoding::kRle:
      return p_.rle_run_cycles * RunsPerRow(rows, runs) +
             p_.rle_expand_cycles;
    case Encoding::kDelta:
      // Sequential prefix reconstruction: unpack the deltas plus the carry
      // chain (serial adds cost about one expanded write per row).
      return UnpackCyclesPerRow(bit_width) + p_.rle_expand_cycles;
    case Encoding::kByteSliced:
      // Assembling full words reads every plane.
      return p_.byteslice_plane_cycles * ByteSlicePlanes(bit_width);
  }
  return UnpackCyclesPerRow(bit_width);
}

double CostModel::ByteSliceFilterCyclesPerRow(int planes,
                                              double selectivity) const {
  const double s = std::clamp(selectivity, 0.0, 1.0);
  const int np = std::max(planes, 1);
  // Plane 0 is always read; the early exit revisits lanes still undecided,
  // for which s is the metadata proxy (see header).
  return p_.byteslice_plane_cycles * (1.0 + (np - 1) * s);
}

double CostModel::AggregationKernelCyclesPerRow(AggregationStrategy strategy,
                                                int num_sums) const {
  // COUNT-only plans still update one accumulator per row.
  const double accumulators = static_cast<double>(std::max(num_sums, 1));
  switch (strategy) {
    case AggregationStrategy::kScalar:
      return accumulators * p_.agg_scalar_cycles;
    case AggregationStrategy::kInRegister:
      return accumulators * p_.agg_inregister_cycles;
    case AggregationStrategy::kSortBased:
      return p_.agg_sort_cycles + num_sums * p_.agg_sort_per_sum_cycles;
    case AggregationStrategy::kMultiAggregate:
      // Horizontal SIMD: one expanded-row update regardless of sum count.
      return p_.agg_multi_cycles;
    case AggregationStrategy::kCheckedScalar:
      return accumulators * p_.agg_checked_cycles;
    case AggregationStrategy::kRunBased:
      return 0.0;  // run path costs are span-structured, not per-row
    case AggregationStrategy::kCodeKeyed:
      break;  // infeasible in the model
  }
  return accumulators * p_.agg_scalar_cycles;
}

double CostModel::ScanCyclesPerRow(Encoding encoding, int bit_width,
                                   size_t rows, size_t runs,
                                   size_t encoded_bytes) const {
  const double compute = DecodeCyclesPerRow(encoding, bit_width, rows, runs);
  const double bytes_per_row =
      rows == 0 ? 0.0
                : static_cast<double>(encoded_bytes) / static_cast<double>(rows);
  const double bandwidth_floor = bytes_per_row / p_.mem_bytes_per_cycle;
  return std::max(compute, bandwidth_floor);
}

double CostModel::RowPipelineCpr(const SegmentCostInputs& in,
                                 double filter_cpr,
                                 AggregationStrategy strategy,
                                 SelectionStrategy* best_selection) const {
  const double s = std::clamp(in.selectivity, 0.0, 1.0);
  const double kernel = AggregationKernelCyclesPerRow(strategy, in.num_sums);
  const double downstream = in.agg_decode_cpr + kernel;
  if (best_selection != nullptr) *best_selection = SelectionStrategy::kGather;
  if (!in.filtered) {
    return in.group_decode_cpr + downstream;
  }
  if (strategy == AggregationStrategy::kSortBased) {
    // The bucket sort partitions selected rows directly off the selection
    // vector: no separate selection operator runs.
    return filter_cpr + s * (in.group_decode_cpr + downstream);
  }
  const double gather =
      s * (in.group_decode_cpr + p_.gather_row_cycles + downstream);
  const double compact =
      in.group_decode_cpr + p_.compact_row_cycles + s * downstream;
  const double special =
      in.group_decode_cpr + p_.special_group_row_cycles + downstream;
  double best = gather;
  SelectionStrategy pick = SelectionStrategy::kGather;
  if (in.special_group_available && special < best) {
    best = special;
    pick = SelectionStrategy::kSpecialGroup;
  }
  if (compact < best) {
    best = compact;
    pick = SelectionStrategy::kCompact;
  }
  if (best_selection != nullptr) *best_selection = pick;
  return filter_cpr + best;
}

SegmentCosts CostModel::ScoreSegment(const SegmentCostInputs& in) const {
  SegmentCosts out;
  const double s = std::clamp(in.selectivity, 0.0, 1.0);

  // Filter path: plane kernels vs decode-and-compare, whichever the model
  // predicts cheaper (callers can still force either via overrides).
  out.filter_cpr = std::max(in.filter_decode_cpr, 0.0);
  if (in.byteslice_capable && in.filter_byteslice_cpr >= 0.0 &&
      in.filter_byteslice_cpr < in.filter_decode_cpr) {
    out.use_byteslice = true;
    out.filter_cpr = in.filter_byteslice_cpr;
  }

  // Selection overhead components (for explain; the totals below fold the
  // full downstream interaction in).
  if (in.filtered) {
    out.selection_cpr[static_cast<int>(SelectionStrategy::kGather)] =
        s * (in.group_decode_cpr + p_.gather_row_cycles);
    out.selection_cpr[static_cast<int>(SelectionStrategy::kCompact)] =
        in.group_decode_cpr + p_.compact_row_cycles;
    out.selection_cpr[static_cast<int>(SelectionStrategy::kSpecialGroup)] =
        in.special_group_available
            ? in.group_decode_cpr + p_.special_group_row_cycles
            : -1.0;
  }

  // Row-pipeline totals per feasible aggregation strategy.
  const bool feasible[kNumAggregationStrategies] = {
      /*kScalar=*/true,
      /*kInRegister=*/in.in_register_feasible,
      /*kSortBased=*/in.sort_feasible,
      /*kMultiAggregate=*/in.multi_fits,
      /*kCheckedScalar=*/in.checked_feasible,
      /*kRunBased=*/in.run_capable,
      // The model has no law for code-keyed aggregation (DESIGN.md §20).
      /*kCodeKeyed=*/false,
  };
  SelectionStrategy chosen_selection = SelectionStrategy::kGather;
  double best = -1.0;
  for (int i = 0; i < kNumAggregationStrategies; ++i) {
    if (!feasible[i]) continue;
    const auto strategy = static_cast<AggregationStrategy>(i);
    double total;
    SelectionStrategy sel = SelectionStrategy::kGather;
    if (strategy == AggregationStrategy::kRunBased) {
      const double spans_per_row =
          in.rows == 0 ? 1.0
                       : static_cast<double>(std::max<size_t>(in.run_spans, 1)) /
                             static_cast<double>(in.rows);
      total = p_.run_span_cycles * spans_per_row + in.run_agg_cpr;
    } else {
      total = RowPipelineCpr(in, out.filter_cpr, strategy, &sel);
    }
    out.total_cpr[i] = total;
    // Strict less-than: ties keep the earlier enum value, deterministically.
    if (best < 0.0 || total < best) {
      best = total;
      out.chosen = strategy;
      chosen_selection = sel;
    }
  }
  out.predicted_selection = in.filtered ? chosen_selection
                                        : SelectionStrategy::kGather;

  // Gather crossover under the chosen strategy's downstream cost: the
  // smallest selectivity where gather stops beating the cheaper of compact
  // and special-group. gather(s) grows faster in s than either rival, so
  // the boundary is unique and bisectable.
  {
    const AggregationStrategy agg_for_sel =
        out.chosen == AggregationStrategy::kRunBased
            ? AggregationStrategy::kScalar
            : out.chosen;
    const double kernel =
        AggregationKernelCyclesPerRow(agg_for_sel, in.num_sums);
    const double downstream = in.agg_decode_cpr + kernel;
    const double g = in.group_decode_cpr;
    auto gather_wins = [&](double sel) {
      const double gather = sel * (g + p_.gather_row_cycles + downstream);
      const double compact =
          g + p_.compact_row_cycles + sel * downstream;
      const double special = in.special_group_available
                                 ? g + p_.special_group_row_cycles + downstream
                                 : compact;
      return gather <= std::min(compact, special);
    };
    double lo = 0.0, hi = 1.0;
    if (gather_wins(1.0)) {
      lo = 1.0;
    } else {
      for (int iter = 0; iter < 32; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (gather_wins(mid) ? lo : hi) = mid;
      }
    }
    out.gather_crossover = lo;
  }
  return out;
}

}  // namespace bipie::cost
