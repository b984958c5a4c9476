#include "core/aggregate_processor.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/memory_tracker.h"
#include "encoding/bitpack.h"
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

// Rebases a packed stream to a batch window. Batch starts are multiples of
// kBatchRows = 4096, so start * bit_width is always a whole byte count.
const uint8_t* RebasedPacked(const EncodedColumn& col, size_t start) {
  BIPIE_DCHECK(start * static_cast<uint64_t>(col.bit_width()) % 8 == 0);
  return col.packed_data() +
         start * static_cast<uint64_t>(col.bit_width()) / 8;
}

}  // namespace

Status AggregateProcessor::Bind(const SegmentPlan& plan) {
  BIPIE_RETURN_NOT_OK(plan.status());
  plan_ = &plan;
  selection_stats_ = SelectionStats{};
  multi_agg_ready_ = false;

  const std::vector<AggregateInput>& inputs = plan.inputs();
  const size_t stride = static_cast<size_t>(mapper().num_groups()) + 1;
  counts_.assign(stride, 0);
  sums_.assign(inputs.size() * stride, 0);
  minmax_.assign(inputs.size() * stride, 0);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const AggregateInput& input = inputs[i];
    if (input.op == AggregateInput::Op::kSum) continue;
    uint64_t sentinel;
    if (input.is_expr) {
      sentinel = input.op == AggregateInput::Op::kMin
                     ? static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::max())
                     : static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::min());
    } else {
      sentinel = input.op == AggregateInput::Op::kMin ? ~uint64_t{0} : 0;
    }
    std::fill_n(minmax_.begin() + i * stride, stride, sentinel);
  }
  run_cursors_.assign(inputs.size(), RunCursor{});

  if (plan.aggregation() == AggregationStrategy::kMultiAggregate) {
    std::vector<MultiAggregator::ColumnDesc> descs;
    for (int i : plan.sum_inputs()) {
      descs.push_back({inputs[i].word_bytes == 4 ? 4 : 8});
    }
    const int geff = mapper().num_groups() +
                     (plan.decision().special_group_available ? 1 : 0);
    BIPIE_RETURN_NOT_OK(
        multi_agg_.Configure(descs, geff, &scratch_->accumulators));
    multi_agg_ready_ = true;
  }
  code_acc_ = nullptr;
  if (plan.aggregation() == AggregationStrategy::kCodeKeyed) {
    scratch_->accumulators.Resize(size_t{4} * plan.code_keyed().num_keys *
                                  sizeof(uint64_t));
    scratch_->accumulators.ZeroFill();
    code_acc_ = scratch_->accumulators.data_as<uint64_t>();
  }
  return Status::OK();
}

AggregateProcessor::BatchMode AggregateProcessor::PickBatchMode(
    size_t n, size_t selected, const uint8_t* sel) {
  if (sel == nullptr) return BatchMode::kFull;
  const PlanDecision& d = plan_->decision();
  if (d.forced_selection.has_value()) {
    switch (*d.forced_selection) {
      case SelectionStrategy::kGather:
        return BatchMode::kGather;
      case SelectionStrategy::kCompact:
        return BatchMode::kCompact;
      case SelectionStrategy::kSpecialGroup:
        return d.special_group_available ? BatchMode::kSpecialGroup
                                         : BatchMode::kCompact;
    }
  }
  const double selectivity =
      static_cast<double>(selected) / static_cast<double>(n);
  switch (ChooseSelectionStrategy(selectivity, d.max_materialized_bits,
                                  d.special_group_available)) {
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
  slots_.stride = (n + 7) & ~size_t{7};
  const size_t slots = plan_->expr_plan().num_slots() +
                       static_cast<size_t>(plan_->num_value_slots());
  scratch_->slots.Resize(slots * slots_.stride * sizeof(int64_t));
  slots_.base = scratch_->slots.data_as<int64_t>();
}

void AggregateProcessor::EvaluatePlan(size_t start, size_t n,
                                      const uint8_t* sel,
                                      const uint32_t* indices, size_t m,
                                      BatchMode mode) {
  const ExprPlan& expr_plan = plan_->expr_plan();
  if (expr_plan.num_slots() == 0) return;
  const std::vector<int>& columns = expr_plan.columns();
  for (size_t k = 0; k < columns.size(); ++k) {
    const EncodedColumn& col = plan_->segment().column(columns[k]);
    int64_t* dst = ExprPlan::column_values(slots_, k);
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
  expr_plan.Run(slots_, m);
}

size_t AggregateProcessor::MapGroups(size_t start, size_t n,
                                     const uint8_t* sel, BatchMode mode,
                                     const uint32_t** indices) {
  const int num_groups = mapper().num_groups();
  scratch_->groups.Resize(n);
  uint8_t* groups = scratch_->groups.data();
  *indices = nullptr;
  if (mode == BatchMode::kGather) {
    scratch_->indices.Resize((n + 8) * sizeof(uint32_t));
    const size_t m =
        CompactToIndexVector(sel, n, scratch_->indices.data_as<uint32_t>());
    *indices = scratch_->indices.data_as<uint32_t>();
    mapper().MapSelected(start, *indices, m, groups, &scratch_->group_ids);
    return m;
  }
  mapper().MapBatch(start, n, groups, &scratch_->group_ids);
  if (mode == BatchMode::kSpecialGroup) {
    ApplySpecialGroup(groups, sel, n, static_cast<uint8_t>(num_groups),
                      groups);
  } else if (mode == BatchMode::kCompact) {
    scratch_->compact.Resize(n);
    const size_t m = CompactValues(sel, groups, n, 1, scratch_->compact.data());
    std::memcpy(groups, scratch_->compact.data(), m);
    return m;
  }
  return n;
}

void AggregateProcessor::SelectIds(const EncodedColumn& col, size_t start,
                                   size_t n, const uint8_t* sel,
                                   const uint32_t* indices, size_t m,
                                   BatchMode mode, int word, void* dst) {
  switch (mode) {
    case BatchMode::kFull:
    case BatchMode::kSpecialGroup:
      col.UnpackIds(start, n, dst, word);
      break;
    case BatchMode::kGather:
      GatherSelect(RebasedPacked(col, start), col.bit_width(), indices, m,
                   dst, word);
      break;
    case BatchMode::kCompact:
      scratch_->compact.Resize(n * static_cast<size_t>(word));
      col.UnpackIds(start, n, scratch_->compact.data(), word);
      CompactValues(sel, scratch_->compact.data(), n, word, dst);
      break;
  }
}

size_t AggregateProcessor::BuildDenseBatch(size_t start, size_t n,
                                           const uint8_t* sel,
                                           BatchMode mode) {
  const uint32_t* indices = nullptr;
  const size_t m = MapGroups(start, n, sel, mode, &indices);
  PrepareSlots(n);
  EvaluatePlan(start, n, sel, indices, m, mode);
  for (const AggregateInput& input : plan_->inputs()) {
    if (input.value_slot < 0) continue;
    // Raw bit-packed input, in the offset domain.
    SelectIds(*input.column, start, n, sel, indices, m, mode,
              input.word_bytes, ValueSlot(input));
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
  switch (plan_->aggregation()) {
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
    case AggregationStrategy::kCodeKeyed:
      return ProcessCodeKeyed(start, n, sel, mode);
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
  BIPIE_DCHECK(plan_->aggregation() == AggregationStrategy::kRunBased);
  BIPIE_DCHECK(group < counts_.size());
  if (len == 0) return Status::OK();
  counts_[group] += len;
  const size_t stride = static_cast<size_t>(mapper().num_groups()) + 1;
  const size_t end = start + len;
  const std::vector<AggregateInput>& inputs = plan_->inputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const AggregateInput& input = inputs[i];
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
          case AggregateInput::Op::kSum:
            sums[group] += value * static_cast<int64_t>(hi - pos);
            break;
          case AggregateInput::Op::kMin:
            extrema[group] = std::min(extrema[group], value);
            break;
          case AggregateInput::Op::kMax:
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
    if (input.is_expr || input.op != AggregateInput::Op::kSum) {
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
  const int num_groups = mapper().num_groups();
  const size_t m = BuildDenseBatch(start, n, sel, mode);
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = scratch_->groups.data();
  InRegisterCount(groups, m, geff, counts_.data());
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : plan_->sum_inputs()) {
    const AggregateInput& input = plan_->inputs()[i];
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
  ProcessMinMaxDense(m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessMultiAggregate(size_t start, size_t n,
                                                 const uint8_t* sel,
                                                 BatchMode mode) {
  const int num_groups = mapper().num_groups();
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
  const std::vector<int>& sum_inputs = plan_->sum_inputs();
  BIPIE_DCHECK(sum_inputs.size() <= 8);
  for (size_t k = 0; k < sum_inputs.size(); ++k) {
    const AggregateInput& input = plan_->inputs()[sum_inputs[k]];
    ptrs[k] = input.node >= 0 ? static_cast<const void*>(PlanValues(input))
                              : static_cast<const void*>(ValueSlot(input));
  }
  multi_agg_.Process(groups, ptrs, m);
  ProcessMinMaxDense(m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessSortBased(size_t start, size_t n,
                                            const uint8_t* sel,
                                            BatchMode mode) {
  const int num_groups = mapper().num_groups();
  scratch_->groups.Resize(n);
  uint8_t* groups = scratch_->groups.data();
  int geff = num_groups;
  size_t m = n;
  const uint32_t* indices = nullptr;

  if (mode == BatchMode::kSpecialGroup) {
    mapper().MapBatch(start, n, groups, &scratch_->group_ids);
    ApplySpecialGroup(groups, sel, n, static_cast<uint8_t>(num_groups),
                      groups);
    geff = num_groups + 1;
  } else if (mode == BatchMode::kFull) {
    mapper().MapBatch(start, n, groups, &scratch_->group_ids);
  } else {
    // Gather and compaction selection both reduce to sorting a selection
    // index vector (§5.2: rows are excluded before sorting).
    mapper().MapBatch(start, n, groups, &scratch_->group_ids);
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
  for (int i : plan_->sum_inputs()) {
    const AggregateInput& input = plan_->inputs()[i];
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
  const int num_groups = mapper().num_groups();
  const size_t m = BuildDenseBatch(start, n, sel, mode);
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = scratch_->groups.data();
  ScalarCountMultiArray(groups, m, geff, counts_.data());
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : plan_->sum_inputs()) {
    const int64_t* values = PlanValues(plan_->inputs()[i]);
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
  ProcessMinMaxDense(m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessCodeKeyed(size_t start, size_t n,
                                            const uint8_t* sel,
                                            BatchMode mode) {
  const CodeKeyedLayout& layout = plan_->code_keyed();
  const uint32_t* indices = nullptr;
  const size_t m = MapGroups(start, n, sel, mode, &indices);
  // Batch layout in the slot scratch: carrier offsets (4 bytes), key codes
  // (1 byte), then the 16-bit keys, each array padded to whole lines.
  const size_t rows = (n + 63) & ~size_t{63};
  const size_t num_carriers = layout.carriers.size();
  const size_t num_codes = layout.keys.size();
  scratch_->slots.Resize(rows * (4 * num_carriers + num_codes + 2));
  uint8_t* next = scratch_->slots.data();
  const uint32_t* carriers[kMaxCodeKeyCarriers];
  for (size_t j = 0; j < num_carriers; ++j) {
    SelectIds(*layout.carriers[j], start, n, sel, indices, m, mode, 4, next);
    carriers[j] = reinterpret_cast<const uint32_t*>(next);
    next += 4 * rows;
  }
  // Keys fit 16 bits, so at most 16 columns have two or more codes.
  const uint8_t* codes[16];
  uint32_t strides[16];
  BIPIE_DCHECK(num_codes <= 16);
  for (size_t k = 0; k < num_codes; ++k) {
    SelectIds(*layout.keys[k].column, start, n, sel, indices, m, mode, 1,
              next);
    codes[k] = next;
    strides[k] = layout.keys[k].stride;
    next += rows;
  }
  auto* keys = reinterpret_cast<uint16_t*>(next);
  FormCodeKeys(scratch_->groups.data(), layout.tuples, codes, strides,
               static_cast<int>(num_codes), m, keys);
  KeyedRowSum(keys, carriers, static_cast<int>(num_carriers), m, code_acc_);
  return Status::OK();
}

void AggregateProcessor::FinishCodeKeyed() {
  // Every sum is the fold of its coefficients over the group's tuples:
  // sum = sum_c B(c) * N(c) + sum_j A_j(c) * S_j(c), exact modulo 2^64, and
  // so exact outright under the segment's overflow proof.
  const CodeKeyedLayout& layout = plan_->code_keyed();
  const int num_groups = mapper().num_groups();
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  const size_t lanes = 1 + layout.carriers.size();
  const std::vector<int>& sum_inputs = plan_->sum_inputs();
  for (int g = 0; g < num_groups; ++g) {
    for (uint32_t c = 0; c < layout.tuples; ++c) {
      const uint64_t* acc =
          code_acc_ + 4 * (static_cast<size_t>(g) * layout.tuples + c);
      if (acc[0] == 0) continue;
      counts_[g] += acc[0];
      for (size_t k = 0; k < sum_inputs.size(); ++k) {
        const uint64_t* coef = layout.coefficients.data() +
                               (k * layout.tuples + c) * lanes;
        uint64_t sum = 0;
        for (size_t j = 0; j < lanes; ++j) sum += coef[j] * acc[j];
        auto& total = reinterpret_cast<uint64_t&>(
            sums_[static_cast<size_t>(sum_inputs[k]) * stride + g]);
        total += sum;
      }
    }
  }
}

void AggregateProcessor::ProcessMinMaxDense(size_t m, int geff) {
  const size_t stride = static_cast<size_t>(mapper().num_groups()) + 1;
  const uint8_t* groups = scratch_->groups.data();
  const std::vector<AggregateInput>& inputs = plan_->inputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const AggregateInput& input = inputs[i];
    if (input.op == AggregateInput::Op::kSum) continue;
    uint64_t* extrema = minmax_.data() + i * stride;
    if (input.node >= 0) {
      const int64_t* values = PlanValues(input);
      if (input.op == AggregateInput::Op::kMin) {
        GroupedMinI64(groups, values, m, geff,
                      reinterpret_cast<int64_t*>(extrema));
      } else {
        GroupedMaxI64(groups, values, m, geff,
                      reinterpret_cast<int64_t*>(extrema));
      }
    } else {
      if (input.op == AggregateInput::Op::kMin) {
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
  const size_t stride = static_cast<size_t>(mapper().num_groups()) + 1;
  const uint32_t* idx = sorted_batch_.indices();
  const std::vector<AggregateInput>& inputs = plan_->inputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    const AggregateInput& input = inputs[i];
    if (input.op == AggregateInput::Op::kSum) continue;
    uint64_t* extrema = minmax_.data() + i * stride;
    if (input.node >= 0) {
      const int64_t* values = PlanValues(input);
      auto* typed = reinterpret_cast<int64_t*>(extrema);
      for (int g = 0; g < geff; ++g) {
        int64_t e = typed[g];
        for (uint32_t k = sorted_batch_.offset(g);
             k < sorted_batch_.offset(g + 1); ++k) {
          const int64_t v = values[idx[k]];
          e = input.op == AggregateInput::Op::kMin ? std::min(e, v)
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
          if (input.op == AggregateInput::Op::kMin ? v < e : v > e) e = v;
        }
        extrema[g] = e;
      }
    }
  }
  return Status::OK();
}

Status AggregateProcessor::Finish(SegmentResult* out) {
  const int num_groups = mapper().num_groups();
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  const std::vector<int>& sum_inputs = plan_->sum_inputs();
  if (multi_agg_ready_) {
    // MultiAggregator keeps sums in [group][column] layout; fold into the
    // [input][group] accumulators (special slot included when present).
    const int geff = multi_agg_.num_groups();
    const size_t ncols = sum_inputs.size();
    std::vector<int64_t> flat(static_cast<size_t>(geff) * ncols, 0);
    multi_agg_.Flush(flat.data());
    for (int g = 0; g < geff; ++g) {
      for (size_t k = 0; k < ncols; ++k) {
        sums_[static_cast<size_t>(sum_inputs[k]) * stride + g] +=
            flat[g * ncols + k];
      }
    }
  }
  if (code_acc_ != nullptr) FinishCodeKeyed();
  const std::vector<int>& spec_to_input = plan_->spec_to_input();
  const size_t num_specs = spec_to_input.size();
  out->num_groups = num_groups;
  out->mapper = &mapper();
  out->counts.assign(counts_.begin(), counts_.begin() + num_groups);
  out->values.assign(static_cast<size_t>(num_groups) * num_specs, 0);
  for (int g = 0; g < num_groups; ++g) {
    const uint64_t count = counts_[g];
    for (size_t s = 0; s < num_specs; ++s) {
      int64_t value;
      const int input_idx = spec_to_input[s];
      if (input_idx < 0) {
        value = static_cast<int64_t>(count);
      } else {
        const AggregateInput& input = plan_->inputs()[input_idx];
        // Offset-domain results map back through v = base + scale * o:
        // a sum of count offsets gains base * count, an extremum is
        // rebased once (the map is monotonic). Unsigned arithmetic: the
        // overflow proof bounds the true result, not the empty groups'
        // extremum sentinels.
        const auto base = static_cast<uint64_t>(input.base);
        if (input.op == AggregateInput::Op::kSum) {
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
      out->values[static_cast<size_t>(g) * num_specs + s] = value;
    }
  }
  return Status::OK();
}

}  // namespace bipie
