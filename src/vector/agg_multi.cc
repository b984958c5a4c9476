#include "vector/agg_multi.h"

#include <algorithm>
#include <cstring>

#include "common/cpu.h"
#include "common/macros.h"

namespace bipie {

namespace {

// SIMD accumulator lanes holding sums of values < 2^16 wrap only after
// 65536 additions; drain at that cadence (§5.4's 65536-row guarantee).
constexpr size_t kDrainRows = 65536;

// Accumulates `n` rows (n % 4 == 0, base % 4 == 0) with N64 full qword
// columns and NP 32-bit pairs. acc holds K 256-bit accumulators per group;
// row r adds into copy r mod K.
template <int N64, int NP, int K>
void ProcessChunk(const int64_t* const* cols64, const uint32_t* const* pair_a,
                  const uint32_t* const* pair_b, const uint8_t* groups,
                  size_t base, size_t n, __m256i* acc) {
  // Local copies of the column pointers: an accumulator store may alias
  // anything as far as the compiler knows (__m256i is may_alias), so
  // reading them through the caller's arrays would reload every pointer
  // after every row quad.
  const int64_t* c64[N64 > 0 ? N64 : 1];
  const uint32_t* pa[NP > 0 ? NP : 1];
  const uint32_t* pb[NP > 0 ? NP : 1];
  for (int j = 0; j < N64; ++j) c64[j] = cols64[j];
  for (int j = 0; j < NP; ++j) {
    pa[j] = pair_a[j];
    pb[j] = pair_b[j];
  }
  for (size_t i = base; i + 4 <= base + n; i += 4) {
    __m256i q[4];
    int s = 0;
    for (int j = 0; j < N64; ++j, ++s) {
      q[s] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c64[j] + i));
    }
    for (int j = 0; j < NP; ++j, ++s) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa[j] + i));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb[j] + i));
      // Interleave the two 32-bit columns into one pseudo-64-bit column.
      const __m128i lo = _mm_unpacklo_epi32(a, b);
      const __m128i hi = _mm_unpackhi_epi32(a, b);
      q[s] = _mm256_set_m128i(hi, lo);
    }
    for (; s < 4; ++s) q[s] = _mm256_setzero_si256();

    // 4x4 qword transpose: q[s] lane r -> row r lane s.
    const __m256i t0 = _mm256_unpacklo_epi64(q[0], q[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(q[0], q[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(q[2], q[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(q[2], q[3]);
    const __m256i r0 = _mm256_permute2x128_si256(t0, t2, 0x20);
    const __m256i r1 = _mm256_permute2x128_si256(t1, t3, 0x20);
    const __m256i r2 = _mm256_permute2x128_si256(t0, t2, 0x31);
    const __m256i r3 = _mm256_permute2x128_si256(t1, t3, 0x31);

    // One load-add-store per row updates every sum (the paper's pitch).
    static_assert(K == 1 || K == 8);
    __m256i* copy = acc + (K == 8 ? (i & 4) : 0);
    constexpr int kStep = K == 1 ? 0 : 1;
    __m256i* a0 = copy + groups[i] * K;
    *a0 = _mm256_add_epi64(*a0, r0);
    __m256i* a1 = copy + groups[i + 1] * K + kStep;
    *a1 = _mm256_add_epi64(*a1, r1);
    __m256i* a2 = copy + groups[i + 2] * K + 2 * kStep;
    *a2 = _mm256_add_epi64(*a2, r2);
    __m256i* a3 = copy + groups[i + 3] * K + 3 * kStep;
    *a3 = _mm256_add_epi64(*a3, r3);
  }
}

using ChunkFn = void (*)(const int64_t* const*, const uint32_t* const*,
                         const uint32_t* const*, const uint8_t*, size_t,
                         size_t, __m256i*);

template <int K>
ChunkFn ResolveChunkFn(int n64, int np) {
  switch (n64 * 8 + np) {
    case 0 * 8 + 1: return &ProcessChunk<0, 1, K>;
    case 0 * 8 + 2: return &ProcessChunk<0, 2, K>;
    case 0 * 8 + 3: return &ProcessChunk<0, 3, K>;
    case 0 * 8 + 4: return &ProcessChunk<0, 4, K>;
    case 1 * 8 + 0: return &ProcessChunk<1, 0, K>;
    case 1 * 8 + 1: return &ProcessChunk<1, 1, K>;
    case 1 * 8 + 2: return &ProcessChunk<1, 2, K>;
    case 1 * 8 + 3: return &ProcessChunk<1, 3, K>;
    case 2 * 8 + 0: return &ProcessChunk<2, 0, K>;
    case 2 * 8 + 1: return &ProcessChunk<2, 1, K>;
    case 2 * 8 + 2: return &ProcessChunk<2, 2, K>;
    case 3 * 8 + 0: return &ProcessChunk<3, 0, K>;
    case 3 * 8 + 1: return &ProcessChunk<3, 1, K>;
    case 4 * 8 + 0: return &ProcessChunk<4, 0, K>;
    default:
      BIPIE_DCHECK(false);
      return nullptr;
  }
}

// KeyedRowSum body for J carriers (J <= 3): lane 0 counts, lane j + 1 sums
// carrier j.
template <int J>
void KeyedRowSumAvx2(const uint16_t* keys, const uint32_t* const* carriers,
                     size_t n, uint64_t* acc_lanes) {
  __m256i* acc = reinterpret_cast<__m256i*>(acc_lanes);
  const uint32_t* c[J > 0 ? J : 1];
  for (int j = 0; j < J; ++j) c[j] = carriers[j];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i q[4] = {_mm256_set1_epi64x(1), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (int j = 0; j < J; ++j) {
      q[j + 1] = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c[j] + i)));
    }
    const __m256i t0 = _mm256_unpacklo_epi64(q[0], q[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(q[0], q[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(q[2], q[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(q[2], q[3]);
    __m256i* a0 = acc + keys[i];
    *a0 = _mm256_add_epi64(*a0, _mm256_permute2x128_si256(t0, t2, 0x20));
    __m256i* a1 = acc + keys[i + 1];
    *a1 = _mm256_add_epi64(*a1, _mm256_permute2x128_si256(t1, t3, 0x20));
    __m256i* a2 = acc + keys[i + 2];
    *a2 = _mm256_add_epi64(*a2, _mm256_permute2x128_si256(t0, t2, 0x31));
    __m256i* a3 = acc + keys[i + 3];
    *a3 = _mm256_add_epi64(*a3, _mm256_permute2x128_si256(t1, t3, 0x31));
  }
  for (; i < n; ++i) {
    uint64_t* lanes = acc_lanes + 4 * static_cast<size_t>(keys[i]);
    ++lanes[0];
    for (int j = 0; j < J; ++j) lanes[j + 1] += c[j][i];
  }
}

}  // namespace

void KeyedRowSum(const uint16_t* keys, const uint32_t* const* carriers,
                 int num_carriers, size_t n, uint64_t* acc) {
  BIPIE_DCHECK(num_carriers >= 0 && num_carriers <= 3);
  if (CurrentIsaTier() < IsaTier::kAvx2) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t* lanes = acc + 4 * static_cast<size_t>(keys[i]);
      ++lanes[0];
      for (int j = 0; j < num_carriers; ++j) lanes[j + 1] += carriers[j][i];
    }
    return;
  }
  switch (num_carriers) {
    case 0:
      return KeyedRowSumAvx2<0>(keys, carriers, n, acc);
    case 1:
      return KeyedRowSumAvx2<1>(keys, carriers, n, acc);
    case 2:
      return KeyedRowSumAvx2<2>(keys, carriers, n, acc);
    default:
      return KeyedRowSumAvx2<3>(keys, carriers, n, acc);
  }
}

void FormCodeKeys(const uint8_t* BIPIE_RESTRICT groups, uint32_t group_stride,
                  const uint8_t* const* codes, const uint32_t* strides,
                  int num_codes, size_t n, uint16_t* BIPIE_RESTRICT keys) {
  const auto gs = static_cast<uint16_t>(group_stride);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<uint16_t>(groups[i] * gs);
  }
  for (int k = 0; k < num_codes; ++k) {
    const uint8_t* BIPIE_RESTRICT code = codes[k];
    const auto stride = static_cast<uint16_t>(strides[k]);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<uint16_t>(keys[i] + code[i] * stride);
    }
  }
}

Status MultiAggregator::Configure(const std::vector<ColumnDesc>& columns,
                                  int num_groups, AlignedBuffer* storage) {
  if (columns.empty()) {
    return Status::InvalidArgument("multi-aggregate needs >= 1 column");
  }
  if (num_groups < 1 || num_groups > kMaxGroups) {
    return Status::InvalidArgument("multi-aggregate group count out of range");
  }
  columns_ = columns;
  num_groups_ = num_groups;
  qword_cols_.clear();
  pairs_.clear();

  std::vector<int> narrow_cols;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].input_bytes == 8) {
      qword_cols_.push_back(static_cast<int>(c));
    } else if (columns[c].input_bytes == 4) {
      narrow_cols.push_back(static_cast<int>(c));
    } else {
      return Status::InvalidArgument(
          "multi-aggregate input arrays must be 4 or 8 bytes per element");
    }
  }
  for (size_t i = 0; i < narrow_cols.size(); i += 2) {
    Pair p;
    p.col_a = narrow_cols[i];
    p.col_b = i + 1 < narrow_cols.size() ? narrow_cols[i + 1] : -1;
    pairs_.push_back(p);
  }
  num_qword_slots_ = static_cast<int>(qword_cols_.size());
  num_pairs_ = static_cast<int>(pairs_.size());
  if (num_qword_slots_ + num_pairs_ > 4) {
    return Status::NotSupported(
        "expanded aggregate row exceeds one 256-bit register");
  }

  copies_ = num_groups_ <= kCopyGroups ? kCopies : 1;
  const size_t acc_bytes =
      static_cast<size_t>(num_groups_) * copies_ * sizeof(__m256i);
  if (storage == nullptr) storage = &own_storage_;
  storage->Resize(acc_bytes + static_cast<size_t>(num_groups_) *
                                  columns_.size() * sizeof(int64_t));
  storage->ZeroFill();
  acc_ = storage->data_as<__m256i>();
  partials_ = reinterpret_cast<int64_t*>(storage->data() + acc_bytes);
  rows_since_drain_ = 0;
  return Status::OK();
}

void MultiAggregator::Process(const uint8_t* groups,
                              const void* const* col_data, size_t n) {
  const size_t ncols = columns_.size();
  if (CurrentIsaTier() < IsaTier::kAvx2) {
    for (size_t i = 0; i < n; ++i) {
      int64_t* row = partials_ + groups[i] * ncols;
      for (size_t c = 0; c < ncols; ++c) {
        row[c] += columns_[c].input_bytes == 8
                      ? static_cast<const int64_t*>(col_data[c])[i]
                      : static_cast<const uint32_t*>(col_data[c])[i];
      }
    }
    return;
  }

  // Resolve typed pointer arrays once per call.
  const int64_t* cols64[4];
  const uint32_t* pair_a[4];
  const uint32_t* pair_b[4];
  for (int j = 0; j < num_qword_slots_; ++j) {
    cols64[j] = static_cast<const int64_t*>(col_data[qword_cols_[j]]);
  }
  for (int j = 0; j < num_pairs_; ++j) {
    pair_a[j] = static_cast<const uint32_t*>(col_data[pairs_[j].col_a]);
    // A dummy half duplicates col_a; its lane is discarded at drain time.
    pair_b[j] = pairs_[j].col_b >= 0
                    ? static_cast<const uint32_t*>(col_data[pairs_[j].col_b])
                    : pair_a[j];
  }
  const ChunkFn chunk_fn =
      copies_ == kCopies ? ResolveChunkFn<kCopies>(num_qword_slots_, num_pairs_)
                         : ResolveChunkFn<1>(num_qword_slots_, num_pairs_);

  size_t i = 0;
  while (i + 4 <= n) {
    const size_t room = kDrainRows - rows_since_drain_;
    const size_t m = std::min((n - i) & ~size_t{3}, room);
    chunk_fn(cols64, pair_a, pair_b, groups, i, m, acc_);
    i += m;
    rows_since_drain_ += m;
    if (rows_since_drain_ >= kDrainRows) DrainSimdAccumulators();
  }
  // Scalar tail goes straight to the 64-bit partials.
  for (; i < n; ++i) {
    int64_t* row = partials_ + groups[i] * ncols;
    for (size_t c = 0; c < ncols; ++c) {
      row[c] += columns_[c].input_bytes == 8
                    ? static_cast<const int64_t*>(col_data[c])[i]
                    : static_cast<const uint32_t*>(col_data[c])[i];
    }
  }
}

void MultiAggregator::DrainSimdAccumulators() {
  const size_t ncols = columns_.size();
  for (int g = 0; g < num_groups_; ++g) {
    int64_t* row = partials_ + static_cast<size_t>(g) * ncols;
    for (int k = 0; k < copies_; ++k) {
      __m256i& acc = acc_[g * copies_ + k];
      alignas(32) uint64_t lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      acc = _mm256_setzero_si256();
      for (int j = 0; j < num_qword_slots_; ++j) {
        row[qword_cols_[j]] += static_cast<int64_t>(lanes[j]);
      }
      // Split each copy's halves separately: summing copies first could
      // carry one 32-bit half into its neighbor.
      for (int j = 0; j < num_pairs_; ++j) {
        const uint64_t lane = lanes[num_qword_slots_ + j];
        row[pairs_[j].col_a] += static_cast<int64_t>(lane & 0xFFFFFFFFULL);
        if (pairs_[j].col_b >= 0) {
          row[pairs_[j].col_b] += static_cast<int64_t>(lane >> 32);
        }
      }
    }
  }
  rows_since_drain_ = 0;
}

void MultiAggregator::Flush(int64_t* sums) {
  if (CurrentIsaTier() >= IsaTier::kAvx2) DrainSimdAccumulators();
  const size_t total = static_cast<size_t>(num_groups_) * columns_.size();
  for (size_t i = 0; i < total; ++i) {
    sums[i] += partials_[i];
    partials_[i] = 0;
  }
}

}  // namespace bipie
