// AVX-512 tier of the bit-unpacking and fused filter kernels.
//
// One 64-byte load covers a whole group of values and a VBMI permute
// places them into lanes (encoding/bitpack_vbmi.h): 64 byte fields for
// w <= 8, 16 dword windows for w <= 25, 8 qword windows for w <= 57. As in
// the AVX2 tier, groups start on byte boundaries, so the tables are fixed
// per width and the packed pointer advances by whole bytes, and the loops
// are shared by a word-storing sink and a range-compare sink. The word
// sink can map 8-byte lanes to base + scale * v before the store: the
// one-pass logical decode of a frame-of-reference column. The compare sink
// turns its lane mask into selection bytes with VPMOVM2B, or keeps the
// existing bytes under the mask (VMOVDQU8 zero-masking) when ANDing into a
// selection.
//
// VBMI is not part of the toolbox's kAvx512 tier contract (F+DQ+BW+VL):
// it is probed at runtime, and without it (CPU or compiler) this tier runs
// the AVX2 kernels. Widths 58..64 stay scalar.
#include <immintrin.h>

#include "encoding/bitpack.h"
#include "encoding/bitpack_vbmi.h"

namespace bipie::internal {

#if defined(__AVX512VBMI__)

namespace {

// Feeds every full group of [0, n) values starting at byte p to the sink:
// Bytes(i, v) values i..i+63 (w <= 8), Dwords(i, v) values i..i+15
// (w <= 25), Qwords(i, v) values i..i+7 (w <= 57). Returns the number of
// values handled.
template <typename Sink>
size_t Body(const uint8_t* p, size_t n, int w, Sink sink) {
  size_t i = 0;
  if (w <= 8) {
    const VbmiWindows win = MakeVbmiByteFields(w);
    const __m512i mask =
        _mm512_set1_epi8(static_cast<char>(LowBitsMask(w)));
    for (; i + 64 <= n; i += 64, p += 8 * w) {
      sink.Bytes(i, DecodeVbmiBytes(p, win, mask));
    }
  } else if (w <= 25) {
    const VbmiWindows win = MakeVbmiWindows<4>(w);
    const __m512i mask = _mm512_set1_epi32(static_cast<int>(LowBitsMask(w)));
    for (; i + 16 <= n; i += 16, p += 2 * w) {
      sink.Dwords(i, DecodeVbmiDwords(p, win, mask));
    }
  } else {
    const VbmiWindows win = MakeVbmiWindows<8>(w);
    const __m512i mask =
        _mm512_set1_epi64(static_cast<long long>(LowBitsMask(w)));
    for (; i + 8 <= n; i += 8, p += w) {
      sink.Qwords(i, DecodeVbmiQwords(p, win, mask));
    }
  }
  return i;
}

// The word-storing sink's default: 8-byte lanes are stored as unpacked.
struct StoreAsIs {
  BIPIE_ALWAYS_INLINE __m512i operator()(__m512i v) const { return v; }
};

// base + scale * v per 8-byte lane (scaled frame-of-reference decode);
// kScaled = false skips the multiply when the scale is 1.
template <bool kScaled>
struct AffineMap {
  __m512i base;
  __m512i scale;

  BIPIE_ALWAYS_INLINE __m512i operator()(__m512i v) const {
    if constexpr (kScaled) v = _mm512_mullo_epi64(v, scale);
    return _mm512_add_epi64(v, base);
  }
};

// Stores lanes as kWord-byte words; 8-byte words pass through `map` first.
template <int kWord, typename Map = StoreAsIs>
struct UnpackSink {
  uint8_t* out;  // word 0 of the body
  Map map{};

  BIPIE_ALWAYS_INLINE void Bytes(size_t i, __m512i v) {
    uint8_t* dst = out + i * kWord;
    if constexpr (kWord == 1) {
      _mm512_storeu_si512(dst, v);
    } else if constexpr (kWord == 2) {
      _mm512_storeu_si512(dst,
                          _mm512_cvtepu8_epi16(_mm512_castsi512_si256(v)));
      _mm512_storeu_si512(dst + 64,
                          _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(v, 1)));
    } else {
      const __m128i quarters[4] = {_mm512_castsi512_si128(v),
                                   _mm512_extracti32x4_epi32(v, 1),
                                   _mm512_extracti32x4_epi32(v, 2),
                                   _mm512_extracti32x4_epi32(v, 3)};
      for (int q = 0; q < 4; ++q) {
        const __m128i x = quarters[q];
        if constexpr (kWord == 4) {
          _mm512_storeu_si512(dst + 64 * q, _mm512_cvtepu8_epi32(x));
        } else {
          _mm512_storeu_si512(dst + 128 * q, map(_mm512_cvtepu8_epi64(x)));
          _mm512_storeu_si512(
              dst + 128 * q + 64,
              map(_mm512_cvtepu8_epi64(_mm_unpackhi_epi64(x, x))));
        }
      }
    }
  }

  BIPIE_ALWAYS_INLINE void Dwords(size_t i, __m512i v) {
    uint8_t* dst = out + i * kWord;
    if constexpr (kWord == 2) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                          _mm512_cvtepi32_epi16(v));
    } else if constexpr (kWord == 4) {
      _mm512_storeu_si512(dst, v);
    } else if constexpr (kWord == 8) {
      _mm512_storeu_si512(
          dst, map(_mm512_cvtepu32_epi64(_mm512_castsi512_si256(v))));
      _mm512_storeu_si512(
          dst + 64,
          map(_mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(v, 1))));
    } else {
      BIPIE_DCHECK(false);  // widths above 8 need at least 2-byte words
    }
  }

  BIPIE_ALWAYS_INLINE void Qwords(size_t i, __m512i v) {
    uint8_t* dst = out + i * kWord;
    if constexpr (kWord == 4) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                          _mm512_cvtepi64_epi32(v));
    } else if constexpr (kWord == 8) {
      _mm512_storeu_si512(dst, map(v));
    } else {
      BIPIE_DCHECK(false);  // widths above 25 need at least 4-byte words
    }
  }
};

// lo <= v <= hi  <=>  v - lo <= hi - lo in wrapping unsigned arithmetic at
// the lane width (every value and bound fits the lane).
template <bool kAndInto>
struct SelectSink {
  SelectSink(const PackedRange& range, uint8_t* out)
      : sel(out),
        lo(range.lo),
        span(range.hi - range.lo),
        flip(range.negate ? ~uint64_t{0} : 0) {}

  BIPIE_ALWAYS_INLINE void Bytes(size_t i, __m512i v) {
    const __mmask64 pass =
        _mm512_cmple_epu8_mask(
            _mm512_sub_epi8(v, _mm512_set1_epi8(static_cast<char>(lo))),
            _mm512_set1_epi8(static_cast<char>(span))) ^
        static_cast<__mmask64>(flip);
    const __m512i bytes =
        kAndInto ? _mm512_maskz_mov_epi8(pass, _mm512_loadu_si512(sel + i))
                 : _mm512_movm_epi8(pass);
    _mm512_storeu_si512(sel + i, bytes);
  }

  BIPIE_ALWAYS_INLINE void Dwords(size_t i, __m512i v) {
    const __mmask16 pass = static_cast<__mmask16>(
        _mm512_cmple_epu32_mask(
            _mm512_sub_epi32(v, _mm512_set1_epi32(static_cast<int>(lo))),
            _mm512_set1_epi32(static_cast<int>(span))) ^
        static_cast<__mmask16>(flip));
    const __m128i bytes =
        kAndInto ? _mm_maskz_mov_epi8(
                       pass, _mm_loadu_si128(
                                 reinterpret_cast<const __m128i*>(sel + i)))
                 : _mm_movm_epi8(pass);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + i), bytes);
  }

  BIPIE_ALWAYS_INLINE void Qwords(size_t i, __m512i v) {
    const __mmask8 pass = static_cast<__mmask8>(
        _mm512_cmple_epu64_mask(
            _mm512_sub_epi64(v, _mm512_set1_epi64(static_cast<long long>(lo))),
            _mm512_set1_epi64(static_cast<long long>(span))) ^
        static_cast<__mmask8>(flip));
    const __m128i bytes =
        kAndInto ? _mm_maskz_mov_epi8(
                       pass, _mm_loadl_epi64(
                                 reinterpret_cast<const __m128i*>(sel + i)))
                 : _mm_movm_epi8(pass);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(sel + i), bytes);
  }

  uint8_t* sel;  // selection byte 0 of the body
  uint64_t lo;
  uint64_t span;
  uint64_t flip;
};

}  // namespace

#endif  // __AVX512VBMI__

bool VbmiAvailable() {
#if defined(__AVX512VBMI__)
  static const bool ok = __builtin_cpu_supports("avx512vbmi") > 0;
  return ok;
#else
  return false;
#endif
}

void BitUnpackAvx512(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes) {
#if defined(__AVX512VBMI__)
  if (VbmiAvailable() && bit_width <= 57) {
    auto* dst = static_cast<uint8_t*>(out);
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
    return;
  }
#endif
  BitUnpackAvx2(src, start, n, bit_width, out, word_bytes);
}

void BitUnpackAffineAvx512(const uint8_t* src, size_t start, size_t n,
                           int bit_width, int64_t base, uint64_t scale,
                           int64_t* out) {
#if defined(__AVX512VBMI__)
  if (VbmiAvailable() && bit_width <= 57) {
    const __m512i vbase = _mm512_set1_epi64(base);
    const __m512i vscale = _mm512_set1_epi64(static_cast<long long>(scale));
    SplitAtByteBoundary(
        src, start, n, bit_width,
        [&](const uint8_t* p, size_t offset, size_t count) -> size_t {
          auto* o = reinterpret_cast<uint8_t*>(out + offset);
          return scale == 1
                     ? Body(p, count, bit_width,
                            UnpackSink<8, AffineMap<false>>{
                                o, {vbase, vscale}})
                     : Body(p, count, bit_width,
                            UnpackSink<8, AffineMap<true>>{
                                o, {vbase, vscale}});
        },
        [&](size_t offset, size_t count) {
          BitUnpackAffineScalar(src, start + offset, count, bit_width, base,
                                scale, out + offset);
        });
    return;
  }
#endif
  BitUnpackAffineAvx2(src, start, n, bit_width, base, scale, out);
}

void BitPackedSelectAvx512(const uint8_t* src, size_t start, size_t n,
                           int bit_width, const PackedRange& range,
                           bool and_into, uint8_t* sel) {
#if defined(__AVX512VBMI__)
  if (VbmiAvailable() && bit_width <= 57) {
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
    return;
  }
#endif
  BitPackedSelectAvx2(src, start, n, bit_width, range, and_into, sel);
}

}  // namespace bipie::internal
