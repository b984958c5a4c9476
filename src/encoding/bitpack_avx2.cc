// AVX2 tier of the bit-unpacking and fused filter kernels.
//
// Byte-shuffle strategy, no gathers: a value of width w starts somewhere in
// its first byte, so it lies inside the 4 bytes from there when w <= 25 and
// inside the 8 bytes from there when w <= 57. PSHUFB moves each value's
// 4-byte window into a dword lane (or its 8-byte window into a qword lane)
// and a per-lane VPSRLV plus a mask finish the extraction. PSHUFB shuffles
// within 128-bit halves, so each half gets its own 16-byte load: 4 values
// per half for dword windows, 2 for qword windows. Groups start on byte
// boundaries (SplitAtByteBoundary), so the shuffle controls are fixed per
// width and the packed pointer advances by whole bytes: 8 values = w bytes.
// Widths 58..64 can straddle 9 bytes and stay scalar.
//
// The kernels are written once per window shape and parameterized by a
// sink: UnpackSink stores the lanes as words (8-byte words optionally
// mapped to base + scale * v, the one-pass logical decode), SelectSink
// compares them against a PackedRange and stores selection bytes.
#include <immintrin.h>

#include <cstring>

#include "encoding/bitpack.h"

namespace bipie::internal {

namespace {

// Shuffle control and shifts for one __m256i of windows. Half k loads 16
// bytes starting at packed byte load[k] of the group.
struct Windows {
  __m256i ctl;
  __m256i shift;
  int load[2];
};

// Windows for the values [first, first + 32 / kLaneBytes) of a group that
// starts at bit 0. kLaneBytes = 4 (dword) or 8 (qword).
template <int kLaneBytes>
Windows MakeWindows(int w, int first) {
  constexpr int kPerHalf = 16 / kLaneBytes;
  alignas(32) uint8_t ctl[32];
  alignas(32) uint8_t shift[32] = {};  // little-endian lane = low byte
  Windows win;
  for (int k = 0; k < 2; ++k) {
    const int half_bit = (first + k * kPerHalf) * w;
    win.load[k] = half_bit >> 3;
    for (int l = 0; l < kPerHalf; ++l) {
      // Bit offset within the half's load: <= 7 + 3 * 25 for dwords and
      // <= 7 + 57 for qwords, so every window ends inside the 16 bytes.
      const int bit = (half_bit & 7) + l * w;
      const int lane = k * kPerHalf + l;
      for (int j = 0; j < kLaneBytes; ++j) {
        ctl[lane * kLaneBytes + j] = static_cast<uint8_t>((bit >> 3) + j);
      }
      shift[lane * kLaneBytes] = static_cast<uint8_t>(bit & 7);
    }
  }
  win.ctl = _mm256_load_si256(reinterpret_cast<const __m256i*>(ctl));
  win.shift = _mm256_load_si256(reinterpret_cast<const __m256i*>(shift));
  return win;
}

template <int kLaneBytes>
BIPIE_ALWAYS_INLINE __m256i Decode(const uint8_t* p, const Windows& win,
                                   __m256i mask) {
  const __m256i raw = _mm256_inserti128_si256(
      _mm256_castsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(p + win.load[0]))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + win.load[1])), 1);
  const __m256i windows = _mm256_shuffle_epi8(raw, win.ctl);
  const __m256i v = kLaneBytes == 4 ? _mm256_srlv_epi32(windows, win.shift)
                                    : _mm256_srlv_epi64(windows, win.shift);
  return _mm256_and_si256(v, mask);
}

// Feeds every full group of [0, n) values starting at byte p to the sink:
// Dwords(i, v[4]) gets values i..i+31 (w <= 25), Qwords(i, a, b) values
// i..i+7 (w <= 57). Returns the number of values handled.
template <typename Sink>
size_t Body(const uint8_t* p, size_t n, int w, Sink sink) {
  size_t i = 0;
  if (w <= 25) {
    const Windows win = MakeWindows<4>(w, 0);
    const __m256i mask = _mm256_set1_epi32(static_cast<int>(LowBitsMask(w)));
    for (; i + 32 <= n; i += 32, p += 4 * w) {
      __m256i v[4];
      for (int g = 0; g < 4; ++g) v[g] = Decode<4>(p + g * w, win, mask);
      sink.Dwords(i, v);
    }
  } else {
    const Windows lo = MakeWindows<8>(w, 0);
    const Windows hi = MakeWindows<8>(w, 4);
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<long long>(LowBitsMask(w)));
    for (; i + 8 <= n; i += 8, p += w) {
      sink.Qwords(i, Decode<8>(p, lo, mask), Decode<8>(p, hi, mask));
    }
  }
  return i;
}

// Packs four vectors of 8 dwords (each 0..255, or 0 / -1 masks) into 32
// bytes in lane order.
BIPIE_ALWAYS_INLINE __m256i PackDwordsToBytes(const __m256i v[4],
                                              bool is_mask) {
  const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256i p01 = is_mask ? _mm256_packs_epi32(v[0], v[1])
                              : _mm256_packus_epi32(v[0], v[1]);
  const __m256i p23 = is_mask ? _mm256_packs_epi32(v[2], v[3])
                              : _mm256_packus_epi32(v[2], v[3]);
  const __m256i bytes = is_mask ? _mm256_packs_epi16(p01, p23)
                                : _mm256_packus_epi16(p01, p23);
  return _mm256_permutevar8x32_epi32(bytes, fix);
}

// The word-storing sink's default: 8-byte lanes are stored as unpacked.
struct StoreAsIs {
  BIPIE_ALWAYS_INLINE __m256i operator()(__m256i v) const { return v; }
};

// base + scale * v per 8-byte lane (scaled frame-of-reference decode);
// kScaled = false skips the multiply when the scale is 1. AVX2 has no
// 64-bit multiply: the low half of v * s is
// lo(v) lo(s) + ((hi(v) lo(s) + lo(v) hi(s)) << 32).
template <bool kScaled>
struct AffineMap {
  __m256i base;
  __m256i scale;
  __m256i scale_hi;  // scale >> 32

  BIPIE_ALWAYS_INLINE __m256i operator()(__m256i v) const {
    if constexpr (kScaled) {
      const __m256i cross =
          _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(v, 32), scale),
                           _mm256_mul_epu32(v, scale_hi));
      v = _mm256_add_epi64(_mm256_mul_epu32(v, scale),
                           _mm256_slli_epi64(cross, 32));
    }
    return _mm256_add_epi64(v, base);
  }
};

// Stores lanes as kWord-byte words; 8-byte words pass through `map` first.
template <int kWord, typename Map = StoreAsIs>
struct UnpackSink {
  uint8_t* out;  // word 0 of the body
  Map map{};

  BIPIE_ALWAYS_INLINE void Dwords(size_t i, const __m256i v[4]) {
    uint8_t* dst = out + i * kWord;
    if constexpr (kWord == 1) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                          PackDwordsToBytes(v, false));
    } else if constexpr (kWord == 2) {
      for (int h = 0; h < 2; ++h) {
        const __m256i words = _mm256_permute4x64_epi64(
            _mm256_packus_epi32(v[2 * h], v[2 * h + 1]), 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32 * h), words);
      }
    } else if constexpr (kWord == 4) {
      for (int g = 0; g < 4; ++g) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32 * g), v[g]);
      }
    } else {
      for (int g = 0; g < 4; ++g) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + 64 * g),
            map(_mm256_cvtepu32_epi64(_mm256_castsi256_si128(v[g]))));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + 64 * g + 32),
            map(_mm256_cvtepu32_epi64(_mm256_extracti128_si256(v[g], 1))));
      }
    }
  }

  BIPIE_ALWAYS_INLINE void Qwords(size_t i, __m256i a, __m256i b) {
    uint8_t* dst = out + i * kWord;
    if constexpr (kWord == 4) {
      const __m256i evens = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
      const __m256i lo = _mm256_permutevar8x32_epi32(a, evens);
      const __m256i hi = _mm256_permutevar8x32_epi32(b, evens);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                          _mm256_blend_epi32(lo, hi, 0xF0));
    } else if constexpr (kWord == 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), map(a));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), map(b));
    } else {
      BIPIE_DCHECK(false);  // widths above 25 need at least 4-byte words
    }
  }
};

template <bool kAndInto>
struct SelectSink {
  SelectSink(const PackedRange& range, uint8_t* out) : sel(out) {
    const uint64_t span = range.hi - range.lo;
    lo32 = _mm256_set1_epi32(static_cast<int>(range.lo));
    span32 = _mm256_set1_epi32(static_cast<int>(span));
    lo64 = _mm256_set1_epi64x(static_cast<long long>(range.lo));
    span64_biased = _mm256_set1_epi64x(
        static_cast<long long>(span ^ 0x8000000000000000ULL));
    flip = range.negate ? _mm256_set1_epi8(-1) : _mm256_setzero_si256();
    flip8 = range.negate ? 0xFF : 0x00;
  }

  // lo <= v <= hi  <=>  v - lo <= hi - lo in wrapping unsigned arithmetic;
  // AVX2 has min_epu32 but no unsigned 64-bit compare (sign-bias instead).
  BIPIE_ALWAYS_INLINE void Dwords(size_t i, const __m256i v[4]) {
    __m256i pass[4];
    for (int g = 0; g < 4; ++g) {
      const __m256i y = _mm256_sub_epi32(v[g], lo32);
      pass[g] = _mm256_cmpeq_epi32(_mm256_min_epu32(y, span32), y);
    }
    __m256i bytes = _mm256_xor_si256(PackDwordsToBytes(pass, true), flip);
    if constexpr (kAndInto) {
      bytes = _mm256_and_si256(
          bytes, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + i), bytes);
  }

  BIPIE_ALWAYS_INLINE void Qwords(size_t i, __m256i a, __m256i b) {
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    const __m256i fail_a = _mm256_cmpgt_epi64(
        _mm256_xor_si256(_mm256_sub_epi64(a, lo64), bias), span64_biased);
    const __m256i fail_b = _mm256_cmpgt_epi64(
        _mm256_xor_si256(_mm256_sub_epi64(b, lo64), bias), span64_biased);
    const unsigned fail =
        static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(fail_a))) |
        static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(fail_b))) << 4;
    const unsigned pass = (~fail & 0xFFu) ^ flip8;
    uint64_t bytes = _pdep_u64(pass, 0x0101010101010101ULL) * 0xFF;
    if constexpr (kAndInto) {
      uint64_t old;
      std::memcpy(&old, sel + i, sizeof(old));
      bytes &= old;
    }
    std::memcpy(sel + i, &bytes, sizeof(bytes));
  }

  uint8_t* sel;  // selection byte 0 of the body
  __m256i lo32, span32, lo64, span64_biased, flip;
  unsigned flip8;
};

}  // namespace

void BitUnpackAvx2(const uint8_t* src, size_t start, size_t n, int bit_width,
                   void* out, int word_bytes) {
  auto* dst = static_cast<uint8_t*>(out);
  if (bit_width > 57) {
    BitUnpackScalarToWord(src, start, n, bit_width, dst, word_bytes);
    return;
  }
  SplitAtByteBoundary(
      src, start, n, bit_width,
      [&](const uint8_t* p, size_t offset, size_t count) -> size_t {
        uint8_t* o = dst + offset * word_bytes;
        switch (word_bytes) {
          case 1: return Body(p, count, bit_width, UnpackSink<1>{o});
          case 2: return Body(p, count, bit_width, UnpackSink<2>{o});
          case 4: return Body(p, count, bit_width, UnpackSink<4>{o});
          default: return Body(p, count, bit_width, UnpackSink<8>{o});
        }
      },
      [&](size_t offset, size_t count) {
        BitUnpackScalarToWord(src, start + offset, count, bit_width,
                              dst + offset * word_bytes, word_bytes);
      });
}

void BitUnpackAffineAvx2(const uint8_t* src, size_t start, size_t n,
                         int bit_width, int64_t base, uint64_t scale,
                         int64_t* out) {
  if (bit_width > 57) {
    BitUnpackAffineScalar(src, start, n, bit_width, base, scale, out);
    return;
  }
  const __m256i vbase = _mm256_set1_epi64x(base);
  const __m256i vscale = _mm256_set1_epi64x(static_cast<long long>(scale));
  const __m256i vscale_hi =
      _mm256_set1_epi64x(static_cast<long long>(scale >> 32));
  SplitAtByteBoundary(
      src, start, n, bit_width,
      [&](const uint8_t* p, size_t offset, size_t count) -> size_t {
        auto* o = reinterpret_cast<uint8_t*>(out + offset);
        return scale == 1
                   ? Body(p, count, bit_width,
                          UnpackSink<8, AffineMap<false>>{
                              o, {vbase, vscale, vscale_hi}})
                   : Body(p, count, bit_width,
                          UnpackSink<8, AffineMap<true>>{
                              o, {vbase, vscale, vscale_hi}});
      },
      [&](size_t offset, size_t count) {
        BitUnpackAffineScalar(src, start + offset, count, bit_width, base,
                              scale, out + offset);
      });
}

void BitPackedSelectAvx2(const uint8_t* src, size_t start, size_t n,
                         int bit_width, const PackedRange& range,
                         bool and_into, uint8_t* sel) {
  if (bit_width > 57) {
    BitPackedSelectScalar(src, start, n, bit_width, range, and_into, sel);
    return;
  }
  SplitAtByteBoundary(
      src, start, n, bit_width,
      [&](const uint8_t* p, size_t offset, size_t count) -> size_t {
        return and_into
                   ? Body(p, count, bit_width,
                          SelectSink<true>(range, sel + offset))
                   : Body(p, count, bit_width,
                          SelectSink<false>(range, sel + offset));
      },
      [&](size_t offset, size_t count) {
        BitPackedSelectScalar(src, start + offset, count, bit_width, range,
                              and_into, sel + offset);
      });
}

}  // namespace bipie::internal
