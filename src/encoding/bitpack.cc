#include "encoding/bitpack.h"

#include <cstring>

#include "common/cpu.h"

namespace bipie {

void BitPack(const uint64_t* values, size_t n, int bit_width, uint8_t* dst) {
  BIPIE_DCHECK(bit_width >= 1 && bit_width <= 64);
  const uint64_t mask = LowBitsMask(bit_width);
  std::memset(dst, 0, BitPackedBytes(n, bit_width) + 8);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    BIPIE_DCHECK((v & ~mask) == 0);
    const uint64_t bit_off = i * static_cast<uint64_t>(bit_width);
    uint8_t* p = dst + (bit_off >> 3);
    const int shift = static_cast<int>(bit_off & 7);
    if (bit_width + shift <= 64) {
      uint64_t word;
      __builtin_memcpy(&word, p, sizeof(word));
      word |= v << shift;
      __builtin_memcpy(p, &word, sizeof(word));
    } else {
      uint64_t lo;
      __builtin_memcpy(&lo, p, sizeof(lo));
      lo |= v << shift;
      __builtin_memcpy(p, &lo, sizeof(lo));
      p[8] = static_cast<uint8_t>(p[8] | (v >> (64 - shift)));
    }
  }
}

void BitUnpack(const uint8_t* src, size_t start, size_t n, int bit_width,
               void* out) {
  BitUnpackToWord(src, start, n, bit_width, out,
                  SmallestWordBytes(bit_width));
}

void BitUnpackToWord(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes) {
  BIPIE_DCHECK(word_bytes >= SmallestWordBytes(bit_width));
  if (n == 0) return;
  const IsaTier tier = CurrentIsaTier();
  if (tier >= IsaTier::kAvx512) {
    internal::BitUnpackAvx512(src, start, n, bit_width, out, word_bytes);
  } else if (tier >= IsaTier::kAvx2) {
    internal::BitUnpackAvx2(src, start, n, bit_width, out, word_bytes);
  } else {
    internal::BitUnpackScalarToWord(src, start, n, bit_width, out,
                                    word_bytes);
  }
}

void BitUnpackAffine(const uint8_t* src, size_t start, size_t n,
                     int bit_width, int64_t base, uint64_t scale,
                     int64_t* out) {
  if (n == 0) return;
  const IsaTier tier = CurrentIsaTier();
  if (tier >= IsaTier::kAvx512) {
    internal::BitUnpackAffineAvx512(src, start, n, bit_width, base, scale,
                                    out);
  } else if (tier >= IsaTier::kAvx2) {
    internal::BitUnpackAffineAvx2(src, start, n, bit_width, base, scale, out);
  } else {
    internal::BitUnpackAffineScalar(src, start, n, bit_width, base, scale,
                                    out);
  }
}

void BitPackedSelect(const uint8_t* src, size_t start, size_t n,
                     int bit_width, const PackedRange& range, bool and_into,
                     uint8_t* sel) {
  BIPIE_DCHECK(range.lo <= range.hi && range.hi <= LowBitsMask(bit_width));
  if (n == 0) return;
  const IsaTier tier = CurrentIsaTier();
  if (tier >= IsaTier::kAvx512) {
    internal::BitPackedSelectAvx512(src, start, n, bit_width, range,
                                    and_into, sel);
  } else if (tier >= IsaTier::kAvx2) {
    internal::BitPackedSelectAvx2(src, start, n, bit_width, range, and_into,
                                  sel);
  } else {
    internal::BitPackedSelectScalar(src, start, n, bit_width, range,
                                    and_into, sel);
  }
}

namespace internal {

void BitUnpackScalarToWord(const uint8_t* src, size_t start, size_t n,
                           int bit_width, void* out, int word_bytes) {
  switch (word_bytes) {
    case 1:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint8_t*>(out));
      break;
    case 2:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint16_t*>(out));
      break;
    case 4:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint32_t*>(out));
      break;
    case 8:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint64_t*>(out));
      break;
    default:
      BIPIE_DCHECK(false);
  }
}

void BitPackedSelectScalar(const uint8_t* src, size_t start, size_t n,
                           int bit_width, const PackedRange& range,
                           bool and_into, uint8_t* sel) {
  // lo <= v <= hi  <=>  v - lo <= hi - lo in wrapping unsigned arithmetic.
  const uint64_t span = range.hi - range.lo;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = BitUnpackOne(src, start + i, bit_width);
    const uint8_t verdict = ((v - range.lo <= span) != range.negate) ? 0xFF
                                                                     : 0x00;
    sel[i] = and_into ? static_cast<uint8_t>(sel[i] & verdict) : verdict;
  }
}

}  // namespace internal

}  // namespace bipie
