// Integer bit-packing codec (§2.1).
//
// Bit packing represents every value of a sequence with the same fixed
// number of bits, concatenated LSB-first into one gap-free bit vector inside
// little-endian bytes. Value i occupies bits [i*w, (i+1)*w) of the stream.
//
// Unpacking always emits elements of the smallest power-of-two byte width
// (1, 2, 4 or 8) that fits the bit width — the "smallest word" rule of §2.2.
//
// The SIMD kernels load whole 16- or 64-byte blocks that start at a packed
// value's first byte, so they may read up to 63 bytes past the last packed
// byte; packed buffers must provide AlignedBuffer::kPaddingBytes (64) of
// readable padding.
#ifndef BIPIE_ENCODING_BITPACK_H_
#define BIPIE_ENCODING_BITPACK_H_

#include <cstddef>
#include <cstdint>

#include "common/bits.h"
#include "common/macros.h"

namespace bipie {

// Bytes needed to hold `n` packed values of `bit_width` bits (excluding any
// safety padding).
inline size_t BitPackedBytes(size_t n, int bit_width) {
  return static_cast<size_t>(CeilDiv(n * static_cast<uint64_t>(bit_width), 8));
}

// Packs n values into dst. Each value must fit in bit_width bits
// (checked). dst must hold BitPackedBytes(n, bit_width) + 8 writable bytes.
void BitPack(const uint64_t* values, size_t n, int bit_width, uint8_t* dst);

// Reads the single packed value at `index`. Scalar; used by gather kernels'
// fallbacks and by tests.
BIPIE_ALWAYS_INLINE uint64_t BitUnpackOne(const uint8_t* src, size_t index,
                                          int bit_width) {
  const uint64_t bit_off = index * static_cast<uint64_t>(bit_width);
  const uint8_t* p = src + (bit_off >> 3);
  const int shift = static_cast<int>(bit_off & 7);
  // A value of width <= 57 plus a shift of <= 7 fits one unaligned u64 load.
  if (bit_width + shift <= 64) {
    uint64_t word;
    __builtin_memcpy(&word, p, sizeof(word));
    return (word >> shift) & LowBitsMask(bit_width);
  }
  // Widths 58..64 can straddle 9 bytes.
  uint64_t lo;
  __builtin_memcpy(&lo, p, sizeof(lo));
  const uint64_t hi = p[8];
  const uint64_t value = (lo >> shift) | (hi << (64 - shift));
  return value & LowBitsMask(bit_width);
}

// Unpacks values [start, start + n) of the stream into `out`, whose element
// type is the smallest power-of-two word for bit_width (uint8_t for w<=8,
// uint16_t for w<=16, uint32_t for w<=32, uint64_t otherwise). Dispatches to
// the best ISA tier at runtime.
void BitUnpack(const uint8_t* src, size_t start, size_t n, int bit_width,
               void* out);

// As BitUnpack but into a caller-chosen word width (must be >= the smallest
// word for bit_width). Used when a consumer wants pre-widened values, e.g.
// multi-aggregate slots.
void BitUnpackToWord(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes);

// An inclusive range of packed values, optionally negated: v passes when
// (lo <= v && v <= hi) != negate. Every comparison a filter can make on an
// unsigned offset (=, <>, <, <=, >, >=, BETWEEN) is one such range.
// Requires lo <= hi <= LowBitsMask(bit_width).
struct PackedRange {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool negate = false;
};

// Filters values [start, start + n) of a packed stream against `range`
// without materializing them: each group of values is unpacked, compared
// and turned into selection bytes in registers. Writes sel[i] = 0xFF for a
// passing value and 0x00 otherwise; with `and_into`, ANDs that verdict into
// the canonical byte already in sel[i] instead. Dispatches like BitUnpack.
void BitPackedSelect(const uint8_t* src, size_t start, size_t n,
                     int bit_width, const PackedRange& range, bool and_into,
                     uint8_t* sel);

namespace internal {

// Portable reference implementations (always available; also the dispatch
// target on the scalar tier and the SIMD tiers' head and tail handling).
template <typename Word>
void BitUnpackScalar(const uint8_t* src, size_t start, size_t n,
                     int bit_width, Word* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<Word>(BitUnpackOne(src, start + i, bit_width));
  }
}
void BitUnpackScalarToWord(const uint8_t* src, size_t start, size_t n,
                           int bit_width, void* out, int word_bytes);
void BitPackedSelectScalar(const uint8_t* src, size_t start, size_t n,
                           int bit_width, const PackedRange& range,
                           bool and_into, uint8_t* sel);

// Splits [start, start + n) so the SIMD body starts at an index divisible
// by 8, which puts its first value on a byte boundary for every width;
// from there each group of values advances the packed pointer by whole
// bytes. body(p, offset, count) receives that first byte and the body's
// offset and length relative to `start`, and returns how many values it
// handled; scalar(offset, count) covers the head and the remaining tail.
template <typename Body, typename Scalar>
BIPIE_ALWAYS_INLINE void SplitAtByteBoundary(const uint8_t* src, size_t start,
                                             size_t n, int bit_width,
                                             Body&& body, Scalar&& scalar) {
  size_t head = (8 - (start & 7)) & 7;
  if (head > n) head = n;
  if (head > 0) scalar(size_t{0}, head);
  const uint8_t* p =
      src + (start + head) * static_cast<uint64_t>(bit_width) / 8;
  const size_t done = head + body(p, head, n - head);
  if (done < n) scalar(done, n - done);
}

// AVX2 tier: PSHUFB byte-shuffle kernels, defined in bitpack_avx2.cc.
// word_bytes in {1,2,4,8}.
void BitUnpackAvx2(const uint8_t* src, size_t start, size_t n, int bit_width,
                   void* out, int word_bytes);
void BitPackedSelectAvx2(const uint8_t* src, size_t start, size_t n,
                         int bit_width, const PackedRange& range,
                         bool and_into, uint8_t* sel);

// AVX-512 tier: VBMI (VPERMB/VPMULTISHIFTQB) kernels, defined in
// bitpack_avx512.cc. VBMI is not part of the kAvx512 tier contract, so
// without it (CPU or compiler) these fall through to the AVX2 kernels.
bool VbmiAvailable();
void BitUnpackAvx512(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes);
void BitPackedSelectAvx512(const uint8_t* src, size_t start, size_t n,
                           int bit_width, const PackedRange& range,
                           bool and_into, uint8_t* sel);

}  // namespace internal

}  // namespace bipie

#endif  // BIPIE_ENCODING_BITPACK_H_
