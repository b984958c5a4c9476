// Run-span aggregation kernels (run-level execution, DESIGN.md §11).
//
// The run pipeline aggregates contiguous (group, row-range) spans instead
// of per-row (group, value) pairs, so its SUM kernel is a plain horizontal
// reduction: unpack the span's bit-packed offsets at the smallest word
// width, then sum them with the widest horizontal-add the ISA offers
// (_mm256_sad_epu8 for bytes, widening adds above). No group indirection,
// no selection bytes — the span boundaries already encode both.
//
// Sums are computed in the unsigned offset domain and compensated by the
// caller (sum + base * count), exactly like the per-row strategies.
#ifndef BIPIE_VECTOR_RUN_AGG_H_
#define BIPIE_VECTOR_RUN_AGG_H_

#include <cstddef>
#include <cstdint>

namespace bipie {

// Sum of n unsigned words of `word_bytes` in {1, 2, 4, 8}. The result is
// exact whenever it fits uint64 (the scan's overflow proof guarantees the
// offset-domain total does); otherwise it wraps mod 2^64 like any uint64
// accumulation. Dispatches to the best ISA tier at runtime.
uint64_t HorizontalSumWords(const void* values, size_t n, int word_bytes);

// Sum of packed values [start, start + n) of a bit-packed stream, in the
// unsigned offset domain, without materializing the unpacked words when the
// ISA allows it. On AVX-512 VBMI hardware, widths <= 25 use a fused
// shuffle-extract-accumulate kernel (the unpack tier's VPERMB window
// placement, accumulated in registers); other tiers and widths unpack in
// L1-resident chunks and reduce with HorizontalSumWords. The packed buffer
// must carry AlignedBuffer::kPaddingBytes of readable padding.
uint64_t SumBitPackedRange(const uint8_t* packed, size_t start, size_t n,
                           int bit_width);

namespace internal {

// Portable reference implementations (always available; also the dispatch
// target on the scalar tier). Exposed for differential kernel tests.
uint64_t HorizontalSumWordsScalar(const void* values, size_t n,
                                  int word_bytes);
uint64_t SumBitPackedRangeScalar(const uint8_t* packed, size_t start,
                                 size_t n, int bit_width);

// AVX-512 VBMI tier, defined in run_agg_avx512.cc. Requires
// bit_width <= 25 and internal::VbmiAvailable() (encoding/bitpack.h).
uint64_t SumBitPackedAvx512(const uint8_t* packed, size_t start, size_t n,
                            int bit_width);

}  // namespace internal

}  // namespace bipie

#endif  // BIPIE_VECTOR_RUN_AGG_H_
