// AVX-512 VBMI window placement shared by the bit-unpack kernels
// (bitpack_avx512.cc) and the fused run-span SUM kernel
// (vector/run_agg_avx512.cc).
//
// A group of consecutive packed values that starts on a byte boundary fits
// one 64-byte load. VPERMB then moves each value's bytes into its own lane:
//
//   byte fields (w <= 8):  qword q receives the w bytes holding values
//                          [8q, 8q + 8); VPMULTISHIFTQB pulls value 8q + j
//                          out of bit j*w into byte j. 64 values per load.
//   dword windows (w <= 25): lane l receives the 4 bytes starting at value
//                          l's first byte; VPSRLVD by its bit offset within
//                          that byte. 16 values per load (<= 50 bytes).
//   qword windows (w <= 57): as dword windows with 8-byte windows and
//                          VPSRLVQ. 8 values per load (<= 58 bytes).
//
// The tables depend only on the width, so kernels build them once per call.
// Only translation units compiled with -mavx512vbmi see these helpers.
#ifndef BIPIE_ENCODING_BITPACK_VBMI_H_
#define BIPIE_ENCODING_BITPACK_VBMI_H_

#include <immintrin.h>

#include <cstdint>

#include "common/bits.h"
#include "common/macros.h"

#if defined(__AVX512VBMI__)

namespace bipie::internal {

// VPERMB control plus the per-lane shift (byte fields: the VPMULTISHIFTQB
// control) for one width.
struct VbmiWindows {
  __m512i idx;
  __m512i shift;
};

inline VbmiWindows MakeVbmiByteFields(int w) {
  alignas(64) uint8_t idx[64];
  alignas(64) uint8_t ctl[64];
  for (int q = 0; q < 8; ++q) {
    for (int j = 0; j < 8; ++j) {
      idx[q * 8 + j] = static_cast<uint8_t>(q * w + j);
      ctl[q * 8 + j] = static_cast<uint8_t>(j * w);  // <= 56
    }
  }
  return {_mm512_load_si512(idx), _mm512_load_si512(ctl)};
}

// kLaneBytes = 4 (dword windows) or 8 (qword windows).
template <int kLaneBytes>
VbmiWindows MakeVbmiWindows(int w) {
  alignas(64) uint8_t idx[64];
  alignas(64) uint8_t shift[64] = {};  // little-endian lane = low byte
  for (int l = 0; l < 64 / kLaneBytes; ++l) {
    const int bit = l * w;
    for (int j = 0; j < kLaneBytes; ++j) {
      idx[l * kLaneBytes + j] = static_cast<uint8_t>((bit >> 3) + j);
    }
    shift[l * kLaneBytes] = static_cast<uint8_t>(bit & 7);
  }
  return {_mm512_load_si512(idx), _mm512_load_si512(shift)};
}

// 64 values starting at byte p, one per byte lane. mask = low w bits of
// every byte.
BIPIE_ALWAYS_INLINE __m512i DecodeVbmiBytes(const uint8_t* p,
                                            const VbmiWindows& win,
                                            __m512i mask) {
  const __m512i grouped =
      _mm512_permutexvar_epi8(win.idx, _mm512_loadu_si512(p));
  return _mm512_and_si512(_mm512_multishift_epi64_epi8(win.shift, grouped),
                          mask);
}

// 16 values starting at byte p, one per dword lane.
BIPIE_ALWAYS_INLINE __m512i DecodeVbmiDwords(const uint8_t* p,
                                             const VbmiWindows& win,
                                             __m512i mask) {
  const __m512i windows =
      _mm512_permutexvar_epi8(win.idx, _mm512_loadu_si512(p));
  return _mm512_and_si512(_mm512_srlv_epi32(windows, win.shift), mask);
}

// 8 values starting at byte p, one per qword lane.
BIPIE_ALWAYS_INLINE __m512i DecodeVbmiQwords(const uint8_t* p,
                                             const VbmiWindows& win,
                                             __m512i mask) {
  const __m512i windows =
      _mm512_permutexvar_epi8(win.idx, _mm512_loadu_si512(p));
  return _mm512_and_si512(_mm512_srlv_epi64(windows, win.shift), mask);
}

}  // namespace bipie::internal

#endif  // __AVX512VBMI__

#endif  // BIPIE_ENCODING_BITPACK_VBMI_H_
