// AVX-512 VBMI tier of the run-span SUM kernel.
//
// A horizontal sum never needs the values in row order or in memory, so
// this tier fuses the unpack tier's VBMI window placement
// (encoding/bitpack_vbmi.h) with accumulation in registers:
//
//   w <= 8:  byte fields (VPERMB + VPMULTISHIFTQB) yield 64 values per
//            load, and VPSADBW folds the 64 bytes into u64 lanes.
//   w <= 25: dword windows (VPERMB + VPSRLVD + mask) yield 16 values per
//            load. u32 lanes accumulate and flush to u64 every 64
//            iterations, which cannot overflow (64 * (2^25 - 1) < 2^31).
//
// VBMI is probed at runtime (internal::VbmiAvailable()), like the unpack
// kernels.
#include <immintrin.h>

#include <algorithm>

#include "common/macros.h"
#include "encoding/bitpack.h"
#include "encoding/bitpack_vbmi.h"
#include "vector/run_agg.h"

namespace bipie::internal {

namespace {

uint64_t SumScalarTail(const uint8_t* src, size_t start, size_t n, int w) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += BitUnpackOne(src, start + i, w);
  return total;
}

#if defined(__AVX512VBMI__)

// src points at the byte of value 0, which starts on a byte boundary
// (SplitAtByteBoundary). Widths 1..8.
uint64_t SumNarrowVbmi(const uint8_t* src, size_t n, int w) {
  const VbmiWindows win = MakeVbmiByteFields(w);
  const __m512i mask =
      _mm512_set1_epi8(static_cast<char>(LowBitsMask(w) & 0xFF));
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i vals =
        DecodeVbmiBytes(src + i * static_cast<size_t>(w) / 8, win, mask);
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(vals, zero));
  }
  return _mm512_reduce_add_epi64(acc) + SumScalarTail(src, i, n - i, w);
}

// Widths 9..25; same pre-alignment contract as SumNarrowVbmi.
uint64_t SumMidVbmi(const uint8_t* src, size_t n, int w) {
  const VbmiWindows win = MakeVbmiWindows<4>(w);
  const __m512i mask =
      _mm512_set1_epi32(static_cast<int>(LowBitsMask(w)));
  __m512i acc64 = _mm512_setzero_si512();
  size_t i = 0;
  const size_t vectorized = n & ~size_t{15};
  while (i < vectorized) {
    constexpr size_t kFlushIters = 64;  // 64 * (2^25 - 1) < 2^31: exact
    const size_t block_end = std::min(vectorized, i + 16 * kFlushIters);
    __m512i acc32 = _mm512_setzero_si512();
    for (; i < block_end; i += 16) {
      acc32 = _mm512_add_epi32(
          acc32,
          DecodeVbmiDwords(src + i * static_cast<size_t>(w) / 8, win, mask));
    }
    acc64 = _mm512_add_epi64(
        acc64, _mm512_cvtepu32_epi64(_mm512_castsi512_si256(acc32)));
    acc64 = _mm512_add_epi64(
        acc64, _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(acc32, 1)));
  }
  return _mm512_reduce_add_epi64(acc64) + SumScalarTail(src, i, n - i, w);
}

#endif  // __AVX512VBMI__

}  // namespace

uint64_t SumBitPackedAvx512(const uint8_t* packed, size_t start, size_t n,
                            int bit_width) {
#if defined(__AVX512VBMI__)
  BIPIE_DCHECK(bit_width <= 25);
  uint64_t total = 0;
  SplitAtByteBoundary(
      packed, start, n, bit_width,
      [&](const uint8_t* p, size_t, size_t count) {
        total += bit_width <= 8 ? SumNarrowVbmi(p, count, bit_width)
                                : SumMidVbmi(p, count, bit_width);
        return count;  // the kernels sum their own tails
      },
      [&](size_t offset, size_t count) {
        total += SumScalarTail(packed, start + offset, count, bit_width);
      });
  return total;
#else
  BIPIE_DCHECK(false);  // dispatcher checks VbmiAvailable()
  return SumScalarTail(packed, start, n, bit_width);
#endif
}

}  // namespace bipie::internal
