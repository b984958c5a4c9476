// Multi-Aggregate SUM aggregation (§5.4).
//
// Uses data-level parallelism *horizontally*: the values of several
// aggregate columns for the same row are transposed into one 256-bit
// register, so a single load-add-store updates every sum for that row.
//
// Packing rules follow the paper: inputs of 1–2 bytes are expanded to
// 32-bit slots, anything larger to 64-bit slots; 32-bit slots are paired
// into aligned 64-bit lanes. The whole packed row is accumulated with one
// 64-bit SIMD addition — a 32-bit lane holding sums of values < 2^16 cannot
// carry into its neighbor within 65536 rows, which is the flush cadence.
//
// Column-major inputs become row-major via a 4x4 64-bit SIMD transpose
// (pairs of 32-bit columns are first interleaved into pseudo-64-bit
// columns with PUNPCKL/HDQ, the paper's Figure 6 layout).
//
// With few groups, consecutive rows often hit the same group, and each
// load-add-store then waits for the previous one's store to forward. So up
// to kCopyGroups groups get kCopies accumulator copies each: row i adds
// into copy i mod kCopies, and the copies are summed at drain — §5.1's
// multi-array count trick applied to the multi-aggregate row. Each copy
// drains its 32-bit halves on its own, so the no-carry guarantee holds
// per copy exactly as for a single accumulator.
//
// Copies pay off when nearby rows share a group, and cost when groups are
// uniform. Measured on cache-resident batches (EXPERIMENTS.md, Table 4):
// with half the rows in one group, copies ran 18-48% faster (medians) at
// every group count from 4 to 256; with uniform groups, 2-12% slower at
// 16-64 groups and 32-41% slower at 128-256, where 8 copies per group no
// longer fit L1. The cut-off keeps the copies within 4 KB, and the
// uniform 32-group paper cells of Table 4 on one accumulator.
#ifndef BIPIE_VECTOR_AGG_MULTI_H_
#define BIPIE_VECTOR_AGG_MULTI_H_

#include <immintrin.h>

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"

namespace bipie {

class MultiAggregator {
 public:
  // One aggregate input column.
  struct ColumnDesc {
    // Width of the *decoded* input array elements: 4 => uint32_t values
    // strictly below 2^16 (expanded from 1–2 byte inputs); 8 => int64
    // values (4–8 byte inputs and expression results).
    int input_bytes = 8;
  };

  static constexpr int kMaxGroups = 256;
  // Accumulator copies per group when num_groups <= kCopyGroups.
  static constexpr int kCopies = 8;
  static constexpr int kCopyGroups = 16;

  MultiAggregator() = default;

  // Plans the register layout. Fails with OverflowRisk-free NotSupported if
  // the expanded row does not fit a 256-bit register (more than four 64-bit
  // lanes). The accumulators live in `storage` when given (a caller reusing
  // one buffer across configurations), else in a buffer the aggregator owns.
  Status Configure(const std::vector<ColumnDesc>& columns, int num_groups,
                   AlignedBuffer* storage = nullptr);

  // Accumulates n rows. groups[i] < num_groups. col_data[c] must point to
  // the decoded array for column c with the configured element width, with
  // 32 bytes of read slack past the end.
  void Process(const uint8_t* groups, const void* const* col_data, size_t n);

  // Adds the accumulated per-group per-column sums into
  // sums[g * num_columns + c] and resets the accumulators.
  void Flush(int64_t* sums);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int num_groups() const { return num_groups_; }
  // Accumulator copies per group (1, or kCopies for few groups).
  int copies() const { return copies_; }
  // Bytes of one packed row after expansion (diagnostics / tests).
  int packed_row_bytes() const { return 8 * (num_qword_slots_ + num_pairs_); }

 private:
  struct Pair {
    int col_a = -1;
    int col_b = -1;  // -1: dummy half (duplicates col_a, discarded at flush)
  };

  void DrainSimdAccumulators();

  std::vector<ColumnDesc> columns_;
  int num_groups_ = 0;
  int copies_ = 1;
  std::vector<int> qword_cols_;  // columns owning full 64-bit lanes
  std::vector<Pair> pairs_;      // paired 32-bit lanes
  int num_qword_slots_ = 0;
  int num_pairs_ = 0;

  // Storage: [group][copy] __m256i accumulators, then the [group][column]
  // int64 drained sums.
  AlignedBuffer own_storage_;
  __m256i* acc_ = nullptr;
  int64_t* partials_ = nullptr;
  size_t rows_since_drain_ = 0;
};

// --- code-keyed row sums (DESIGN.md §20) ------------------------------------
//
// The uint16-keyed, single-copy sibling of the load-add-store above. Each
// key owns four uint64 lanes at acc[4 * key]: the row count, then one
// offset sum per carrier column. Row i adds (1, carriers[0][i], ...,
// carriers[num_carriers - 1][i]) into its key's lanes with one 256-bit
// load-add-store, the carriers transposed in registers as in Process.
// The lanes wrap modulo 2^64, which the coefficient fold tolerates (it is
// ring arithmetic mod 2^64 throughout), so unlike the 32-bit pairs there is
// nothing to drain. acc must be 32-byte aligned; num_carriers <= 3.
void KeyedRowSum(const uint16_t* keys, const uint32_t* const* carriers,
                 int num_carriers, size_t n, uint64_t* acc);

// Forms the accumulator keys of n rows:
// keys[i] = groups[i] * group_stride + sum_k codes[k][i] * strides[k].
// The caller guarantees every key fits 16 bits.
void FormCodeKeys(const uint8_t* groups, uint32_t group_stride,
                  const uint8_t* const* codes, const uint32_t* strides,
                  int num_codes, size_t n, uint16_t* keys);

}  // namespace bipie

#endif  // BIPIE_VECTOR_AGG_MULTI_H_
