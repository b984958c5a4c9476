#include "encoding/delta.h"

#include <algorithm>
#include <vector>

#include "common/bits.h"
#include "common/macros.h"
#include "encoding/bitpack.h"

namespace bipie {

ForEncoded ForEncode(const int64_t* values, size_t n) {
  ForEncoded enc;
  enc.num_values = n;
  if (n == 0) {
    enc.packed.Resize(0);
    return enc;
  }
  const auto [min_it, max_it] = std::minmax_element(values, values + n);
  enc.base = *min_it;
  // Offsets are non-negative; the spread determines the bit width. A spread
  // that does not fit in uint64 (min<0 and max huge) cannot occur for int64
  // inputs because max - min of two int64s fits in uint64 arithmetic.
  const uint64_t spread =
      static_cast<uint64_t>(*max_it) - static_cast<uint64_t>(enc.base);
  enc.bit_width = BitsRequired(spread);
  std::vector<uint64_t> offsets(n);
  for (size_t i = 0; i < n; ++i) {
    offsets[i] =
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(enc.base);
  }
  enc.packed.Resize(BitPackedBytes(n, enc.bit_width) + 8);
  BitPack(offsets.data(), n, enc.bit_width, enc.packed.data());
  return enc;
}

void ForDecode(const ForEncoded& enc, size_t start, size_t n, int64_t* out) {
  BIPIE_DCHECK(start + n <= enc.num_values);
  std::vector<uint64_t> offsets(n);
  BitUnpackToWord(enc.packed.data(), start, n, enc.bit_width, offsets.data(),
                  8);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(enc.base) +
                                  offsets[i]);
  }
}

DeltaEncoded DeltaEncode(const int64_t* values, size_t n) {
  BIPIE_DCHECK(n >= 1);
  DeltaEncoded enc;
  enc.num_values = n;
  enc.first = values[0];
  if (n == 1) {
    enc.packed.Resize(0);
    return enc;
  }
  std::vector<int64_t> deltas(n - 1);
  for (size_t i = 1; i < n; ++i) deltas[i - 1] = values[i] - values[i - 1];
  const auto [min_it, max_it] =
      std::minmax_element(deltas.begin(), deltas.end());
  enc.min_delta = *min_it;
  const uint64_t spread =
      static_cast<uint64_t>(*max_it) - static_cast<uint64_t>(enc.min_delta);
  enc.bit_width = BitsRequired(spread);
  std::vector<uint64_t> offsets(n - 1);
  for (size_t i = 0; i < n - 1; ++i) {
    offsets[i] = static_cast<uint64_t>(deltas[i]) -
                 static_cast<uint64_t>(enc.min_delta);
  }
  enc.packed.Resize(BitPackedBytes(n - 1, enc.bit_width) + 8);
  BitPack(offsets.data(), n - 1, enc.bit_width, enc.packed.data());
  return enc;
}

void DeltaDecode(const DeltaEncoded& enc, int64_t* out) {
  out[0] = enc.first;
  if (enc.num_values == 1) return;
  const size_t n = enc.num_values - 1;
  std::vector<uint64_t> offsets(n);
  BitUnpackToWord(enc.packed.data(), 0, n, enc.bit_width, offsets.data(), 8);
  // Wrapping arithmetic: offset + min_delta is the exact delta modulo 2^64
  // even when the delta spread exceeds 2^63.
  for (size_t i = 0; i < n; ++i) {
    out[i + 1] = static_cast<int64_t>(static_cast<uint64_t>(out[i]) +
                                      static_cast<uint64_t>(enc.min_delta) +
                                      offsets[i]);
  }
}

}  // namespace bipie
