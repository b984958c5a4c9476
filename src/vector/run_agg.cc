#include "vector/run_agg.h"

#include <immintrin.h>

#include <algorithm>

#include "common/cpu.h"
#include "common/macros.h"
#include "encoding/bitpack.h"

namespace bipie {

namespace internal {

uint64_t HorizontalSumWordsScalar(const void* values, size_t n,
                                  int word_bytes) {
  uint64_t total = 0;
  switch (word_bytes) {
    case 1: {
      const auto* v = static_cast<const uint8_t*>(values);
      for (size_t i = 0; i < n; ++i) total += v[i];
      return total;
    }
    case 2: {
      const auto* v = static_cast<const uint16_t*>(values);
      for (size_t i = 0; i < n; ++i) total += v[i];
      return total;
    }
    case 4: {
      const auto* v = static_cast<const uint32_t*>(values);
      for (size_t i = 0; i < n; ++i) total += v[i];
      return total;
    }
    case 8: {
      const auto* v = static_cast<const uint64_t*>(values);
      for (size_t i = 0; i < n; ++i) total += v[i];
      return total;
    }
    default:
      BIPIE_DCHECK(false);
      return 0;
  }
}

uint64_t SumBitPackedRangeScalar(const uint8_t* packed, size_t start,
                                 size_t n, int bit_width) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += BitUnpackOne(packed, start + i, bit_width);
  }
  return total;
}

}  // namespace internal

namespace {

BIPIE_ALWAYS_INLINE uint64_t HSum64(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

uint64_t SumU8Avx2(const uint8_t* v, size_t n) {
  // SAD against zero folds 32 bytes into 4 u64 lanes per instruction; the
  // u64 accumulator cannot overflow before ~2^56 input bytes.
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(x, zero));
  }
  uint64_t total = HSum64(acc);
  for (; i < n; ++i) total += v[i];
  return total;
}

uint64_t SumU16Avx2(const uint16_t* v, size_t n) {
  // Each 256-bit vector is summed as 8 u32 lanes (low half + high half of
  // each dword), adding at most 2 * 0xFFFF per lane per iteration; flushing
  // the u32 accumulator to u64 lanes every kBlockIters keeps it exact.
  constexpr size_t kBlockIters = 32000;  // < 0xFFFFFFFF / (2 * 0xFFFF)
  const __m256i lo_mask = _mm256_set1_epi32(0xFFFF);
  __m256i acc64 = _mm256_setzero_si256();
  size_t i = 0;
  while (i + 16 <= n) {
    __m256i acc32 = _mm256_setzero_si256();
    const size_t block_end = std::min(n, i + 16 * kBlockIters);
    for (; i + 16 <= block_end; i += 16) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
      acc32 = _mm256_add_epi32(
          acc32, _mm256_add_epi32(_mm256_and_si256(x, lo_mask),
                                  _mm256_srli_epi32(x, 16)));
    }
    acc64 = _mm256_add_epi64(
        acc64, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(acc32)));
    acc64 = _mm256_add_epi64(
        acc64, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(acc32, 1)));
  }
  uint64_t total = HSum64(acc64);
  for (; i < n; ++i) total += v[i];
  return total;
}

uint64_t SumU32Avx2(const uint32_t* v, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_add_epi64(acc,
                           _mm256_cvtepu32_epi64(_mm256_castsi256_si128(x)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(x, 1)));
  }
  uint64_t total = HSum64(acc);
  for (; i < n; ++i) total += v[i];
  return total;
}

uint64_t SumU64Avx2(const uint64_t* v, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)));
  }
  uint64_t total = HSum64(acc);
  for (; i < n; ++i) total += v[i];
  return total;
}

}  // namespace

uint64_t HorizontalSumWords(const void* values, size_t n, int word_bytes) {
  if (n == 0) return 0;
  if (CurrentIsaTier() >= IsaTier::kAvx2) {
    switch (word_bytes) {
      case 1:
        return SumU8Avx2(static_cast<const uint8_t*>(values), n);
      case 2:
        return SumU16Avx2(static_cast<const uint16_t*>(values), n);
      case 4:
        return SumU32Avx2(static_cast<const uint32_t*>(values), n);
      case 8:
        return SumU64Avx2(static_cast<const uint64_t*>(values), n);
      default:
        break;
    }
  }
  return internal::HorizontalSumWordsScalar(values, n, word_bytes);
}

uint64_t SumBitPackedRange(const uint8_t* packed, size_t start, size_t n,
                           int bit_width) {
  if (n == 0) return 0;
  if (bit_width <= 25 && CurrentIsaTier() >= IsaTier::kAvx512 &&
      internal::VbmiAvailable()) {
    return internal::SumBitPackedAvx512(packed, start, n, bit_width);
  }
  // Unpack in L1-resident chunks at the smallest word width and reduce each
  // chunk; both halves dispatch to their own best tier internally. The
  // extra 64 trailing bytes absorb any vector-lane store rounding.
  const int word = SmallestWordBytes(bit_width);
  constexpr size_t kChunkBytes = size_t{16} << 10;
  alignas(64) uint8_t buf[kChunkBytes + 64];
  const size_t chunk = kChunkBytes / static_cast<size_t>(word);
  uint64_t total = 0;
  for (size_t pos = 0; pos < n;) {
    const size_t m = std::min(chunk, n - pos);
    BitUnpackToWord(packed, start + pos, m, bit_width, buf, word);
    total += HorizontalSumWords(buf, m, word);
    pos += m;
  }
  return total;
}

}  // namespace bipie
