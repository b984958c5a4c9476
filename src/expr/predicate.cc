#include "expr/predicate.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/bits.h"
#include "common/failpoint.h"
#include "common/memory_tracker.h"
#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "encoding/byteslice.h"
#include "vector/byteslice_scan.h"
#include "vector/selection_vector.h"

namespace bipie {

bool CompareInt64(int64_t value, CompareOp op, int64_t literal,
                  int64_t literal2) {
  switch (op) {
    case CompareOp::kBetween:
      return value >= literal && value <= literal2;
    case CompareOp::kEq:
      return value == literal;
    case CompareOp::kNe:
      return value != literal;
    case CompareOp::kLt:
      return value < literal;
    case CompareOp::kLe:
      return value <= literal;
    case CompareOp::kGt:
      return value > literal;
    case CompareOp::kGe:
      return value >= literal;
  }
  return false;
}

namespace internal {

namespace {

template <typename T>
void SelectScalar(const T* values, size_t n, const PackedRange& range,
                  uint8_t* sel) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    sel[i] = ((v >= range.lo && v <= range.hi) != range.negate)
                 ? kRowSelected
                 : kRowRejected;
  }
}

}  // namespace

void SelectWordsInRange(const void* values, size_t n, int word_bytes,
                        const PackedRange& range, uint8_t* sel_out) {
  // x in [lo, hi] <=> max(min(x, hi), lo) == x: a clamp and a compare per
  // vector, all unsigned, on the AVX2 tier; 8-byte words stay scalar.
  const bool avx2 = CurrentIsaTier() >= IsaTier::kAvx2;
  const __m256i flip =
      range.negate ? _mm256_set1_epi8(-1) : _mm256_setzero_si256();
  size_t i = 0;
  switch (word_bytes) {
    case 1: {
      const auto* v = static_cast<const uint8_t*>(values);
      if (avx2 && range.hi <= 0xFF) {
        const __m256i vlo = _mm256_set1_epi8(static_cast<char>(range.lo));
        const __m256i vhi = _mm256_set1_epi8(static_cast<char>(range.hi));
        for (; i + 32 <= n; i += 32) {
          const __m256i x = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(v + i));
          const __m256i clamped =
              _mm256_max_epu8(_mm256_min_epu8(x, vhi), vlo);
          _mm256_storeu_si256(
              reinterpret_cast<__m256i*>(sel_out + i),
              _mm256_xor_si256(_mm256_cmpeq_epi8(clamped, x), flip));
        }
      }
      SelectScalar(v + i, n - i, range, sel_out + i);
      return;
    }
    case 2: {
      const auto* v = static_cast<const uint16_t*>(values);
      if (avx2 && range.hi <= 0xFFFF) {
        const __m256i vlo = _mm256_set1_epi16(static_cast<short>(range.lo));
        const __m256i vhi = _mm256_set1_epi16(static_cast<short>(range.hi));
        for (; i + 32 <= n; i += 32) {
          __m256i m[2];
          for (int k = 0; k < 2; ++k) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(v + i + 16 * k));
            const __m256i clamped =
                _mm256_max_epu16(_mm256_min_epu16(x, vhi), vlo);
            m[k] = _mm256_cmpeq_epi16(clamped, x);
          }
          // packs keeps 0x0000/0xFFFF masks intact as 0x00/0xFF bytes.
          const __m256i bytes =
              _mm256_permute4x64_epi64(_mm256_packs_epi16(m[0], m[1]), 0xD8);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel_out + i),
                              _mm256_xor_si256(bytes, flip));
        }
      }
      SelectScalar(v + i, n - i, range, sel_out + i);
      return;
    }
    case 4: {
      const auto* v = static_cast<const uint32_t*>(values);
      if (avx2 && range.hi <= 0xFFFFFFFFULL) {
        const __m256i vlo = _mm256_set1_epi32(static_cast<int>(range.lo));
        const __m256i vhi = _mm256_set1_epi32(static_cast<int>(range.hi));
        const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        for (; i + 32 <= n; i += 32) {
          __m256i m[4];
          for (int k = 0; k < 4; ++k) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(v + i + 8 * k));
            const __m256i clamped =
                _mm256_max_epu32(_mm256_min_epu32(x, vhi), vlo);
            m[k] = _mm256_cmpeq_epi32(clamped, x);
          }
          const __m256i p01 = _mm256_packs_epi32(m[0], m[1]);
          const __m256i p23 = _mm256_packs_epi32(m[2], m[3]);
          const __m256i bytes =
              _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), fix);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel_out + i),
                              _mm256_xor_si256(bytes, flip));
        }
      }
      SelectScalar(v + i, n - i, range, sel_out + i);
      return;
    }
    case 8:
      SelectScalar(static_cast<const uint64_t*>(values), n, range, sel_out);
      return;
    default:
      BIPIE_DCHECK(false);
  }
}

}  // namespace internal

namespace {

// Outcome of rebasing a literal into a column's unsigned offset domain.
enum class RebasedVerdict { kAllRows, kNoRows, kCompare };

RebasedVerdict RebaseLiteral(CompareOp op, int64_t literal, int64_t base,
                             int64_t max, uint64_t* rebased) {
  // Offsets span [0, max - base].
  if (literal < base) {
    switch (op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
      case CompareOp::kEq:
        return RebasedVerdict::kNoRows;
      default:
        return RebasedVerdict::kAllRows;
    }
  }
  if (literal > max) {
    switch (op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
        return RebasedVerdict::kAllRows;
      case CompareOp::kNe:
        return RebasedVerdict::kAllRows;
      default:
        return RebasedVerdict::kNoRows;
    }
  }
  *rebased = static_cast<uint64_t>(literal) - static_cast<uint64_t>(base);
  return RebasedVerdict::kCompare;
}

// BETWEEN lo AND hi intersected with the column domain [min, max] and
// rebased to inclusive offsets.
RebasedVerdict RebaseBetween(int64_t lo, int64_t hi, const EncodedColumn& col,
                             uint64_t* lo_off, uint64_t* hi_off) {
  if (hi < col.meta().min || lo > col.meta().max || lo > hi) {
    return RebasedVerdict::kNoRows;
  }
  if (lo <= col.meta().min && hi >= col.meta().max) {
    return RebasedVerdict::kAllRows;
  }
  const uint64_t base = static_cast<uint64_t>(col.base());
  *lo_off = static_cast<uint64_t>(std::max(lo, col.meta().min)) - base;
  *hi_off = static_cast<uint64_t>(std::min(hi, col.meta().max)) - base;
  return RebasedVerdict::kCompare;
}

// The predicate as one inclusive range of a column's unsigned offsets
// (PackedRange), clipped to the offsets its bit width can hold: bit-packed
// columns filter on it in registers, byte-sliced ones after assembling.
RebasedVerdict RebaseToPackedRange(CompareOp op, int64_t literal,
                                   int64_t literal2, const EncodedColumn& col,
                                   PackedRange* range) {
  const uint64_t top = LowBitsMask(col.bit_width());
  if (op == CompareOp::kBetween) {
    const RebasedVerdict v =
        RebaseBetween(literal, literal2, col, &range->lo, &range->hi);
    if (v != RebasedVerdict::kCompare) return v;
    if (range->lo > top) return RebasedVerdict::kNoRows;
    range->hi = std::min(range->hi, top);
    return RebasedVerdict::kCompare;
  }
  uint64_t r = 0;
  const RebasedVerdict v =
      RebaseLiteral(op, literal, col.base(), col.meta().max, &r);
  if (v != RebasedVerdict::kCompare) return v;
  if (r > top) {  // above every offset the stream can hold
    return op == CompareOp::kNe || op == CompareOp::kLt ||
                   op == CompareOp::kLe
               ? RebasedVerdict::kAllRows
               : RebasedVerdict::kNoRows;
  }
  switch (op) {
    case CompareOp::kEq:
      *range = {r, r, false};
      break;
    case CompareOp::kNe:
      *range = {r, r, true};
      break;
    case CompareOp::kLt:
      if (r == 0) return RebasedVerdict::kNoRows;
      *range = {0, r - 1, false};
      break;
    case CompareOp::kLe:
      *range = {0, r, false};
      break;
    case CompareOp::kGt:
      if (r == top) return RebasedVerdict::kNoRows;
      *range = {r + 1, top, false};
      break;
    case CompareOp::kGe:
      *range = {r, top, false};
      break;
    case CompareOp::kBetween:
      break;  // handled above
  }
  return RebasedVerdict::kCompare;
}

// Per-thread scratch buffers, registered with the tracker re-home list:
// they outlive any one query, so a query tracker scope exiting must be able
// to move their retained charge back to the process root.
AlignedBuffer& RegisteredScratch(AlignedBuffer* buffer) {
  RegisterThreadScratchBuffer(buffer);
  return *buffer;
}

// Unpacked ids/offsets for the decode-then-compare paths.
AlignedBuffer& UnpackScratch() {
  thread_local AlignedBuffer scratch;
  thread_local AlignedBuffer& registered = RegisteredScratch(&scratch);
  return registered;
}

// Verdicts of an AND-into evaluation on encodings that write whole bytes.
AlignedBuffer& VerdictScratch() {
  thread_local AlignedBuffer scratch;
  thread_local AlignedBuffer& registered = RegisteredScratch(&scratch);
  return registered;
}

}  // namespace

Status ColumnPredicate::Evaluate(const EncodedColumn& col, size_t start,
                                 size_t n, uint8_t* sel_out,
                                 bool use_byteslice_kernel,
                                 SelectionWrite write) const {
  const bool and_into = write == SelectionWrite::kAndInto;
  if (col.encoding() == Encoding::kBitPacked) {
    PackedRange range;
    switch (RebaseToPackedRange(op_, literal_, literal2_, col, &range)) {
      case RebasedVerdict::kAllRows:
        if (!and_into) std::memset(sel_out, kRowSelected, n);
        return Status::OK();
      case RebasedVerdict::kNoRows:
        std::memset(sel_out, kRowRejected, n);
        return Status::OK();
      case RebasedVerdict::kCompare:
        break;
    }
    BitPackedSelect(col.packed_data(), start, n, col.bit_width(), range,
                    and_into, sel_out);
    return Status::OK();
  }
  if (!and_into) {
    return EvaluateEncoded(col, start, n, sel_out, use_byteslice_kernel);
  }
  AlignedBuffer& verdicts = VerdictScratch();
  verdicts.Resize(n);
  BIPIE_RETURN_NOT_OK(
      EvaluateEncoded(col, start, n, verdicts.data(), use_byteslice_kernel));
  AndSelection(sel_out, verdicts.data(), n, sel_out);
  return Status::OK();
}

Status ColumnPredicate::EvaluateEncoded(const EncodedColumn& col,
                                        size_t start, size_t n,
                                        uint8_t* sel_out,
                                        bool use_byteslice_kernel) const {
  switch (col.encoding()) {
    case Encoding::kByteSliced: {
      const int w = col.bit_width();
      if (use_byteslice_kernel) {
        // Plane kernels work on the stored planes directly: no scratch, no
        // decode.
        const int np = ByteSlicePlanes(w);
        uint64_t lo = 0, hi = 0;
        const RebasedVerdict verdict =
            op_ == CompareOp::kBetween
                ? RebaseBetween(literal_, literal2_, col, &lo, &hi)
                : RebaseLiteral(op_, literal_, col.base(), col.meta().max,
                                &lo);
        if (verdict != RebasedVerdict::kCompare) {
          std::memset(sel_out,
                      verdict == RebasedVerdict::kAllRows ? kRowSelected
                                                          : kRowRejected,
                      n);
          return Status::OK();
        }
        ByteSliceCompare(col.packed_data(), col.num_rows(), np, start, n,
                         op_, ByteSliceShift(lo, w),
                         op_ == CompareOp::kBetween ? ByteSliceShift(hi, w)
                                                    : 0,
                         sel_out);
        return Status::OK();
      }
      // Assemble-then-compare: the same offset range as bit-packed columns.
      PackedRange range;
      const RebasedVerdict verdict =
          RebaseToPackedRange(op_, literal_, literal2_, col, &range);
      if (verdict != RebasedVerdict::kCompare) {
        std::memset(sel_out,
                    verdict == RebasedVerdict::kAllRows ? kRowSelected
                                                        : kRowRejected,
                    n);
        return Status::OK();
      }
      const int word = SmallestWordBytes(w);
      if (BIPIE_FAILPOINT("scan/byteslice_scratch_alloc") ||
          !UnpackScratch().TryResize(n * static_cast<size_t>(word))) {
        return Status::ResourceExhausted(
            "byteslice decode scratch allocation failed");
      }
      col.UnpackIds(start, n, UnpackScratch().data(), word);
      internal::SelectWordsInRange(UnpackScratch().data(), n, word, range,
                                   sel_out);
      return Status::OK();
    }
    case Encoding::kBitPacked:
      return Status::Internal("bit-packed columns take the fused path");
    case Encoding::kDictionary: {
      // Verdict table over dictionary ids, rebuilt per evaluation window
      // (cheap relative to batch work: <= dictionary size byte writes).
      const size_t dict_size = col.id_bound();
      std::vector<uint8_t> verdict(dict_size);
      if (col.type() == ColumnType::kString) {
        const StringDictionary& dict = *col.string_dictionary();
        for (size_t id = 0; id < dict_size; ++id) {
          bool hit;
          const std::string& v = dict.value(static_cast<uint32_t>(id));
          const int cmp = v.compare(string_literal_);
          switch (op_) {
            case CompareOp::kEq: hit = cmp == 0; break;
            case CompareOp::kNe: hit = cmp != 0; break;
            case CompareOp::kLt: hit = cmp < 0; break;
            case CompareOp::kLe: hit = cmp <= 0; break;
            case CompareOp::kGt: hit = cmp > 0; break;
            case CompareOp::kGe: hit = cmp >= 0; break;
            case CompareOp::kBetween:
              return Status::NotSupported(
                  "BETWEEN on string columns is not supported");
          }
          verdict[id] = hit ? kRowSelected : kRowRejected;
        }
      } else {
        const IntDictionary& dict = *col.int_dictionary();
        for (size_t id = 0; id < dict_size; ++id) {
          verdict[id] = CompareInt64(dict.value(static_cast<uint32_t>(id)),
                                     op_, literal_, literal2_)
                            ? kRowSelected
                            : kRowRejected;
        }
      }
      const int word = SmallestWordBytes(col.bit_width());
      UnpackScratch().Resize(n * word);
      col.UnpackIds(start, n, UnpackScratch().data(), word);
      if (word == 1) {
        const uint8_t* ids = UnpackScratch().data();
        for (size_t i = 0; i < n; ++i) sel_out[i] = verdict[ids[i]];
      } else {
        BIPIE_DCHECK(word == 2);  // dictionaries are capped at 2^16 entries
        const uint16_t* ids = UnpackScratch().data_as<uint16_t>();
        for (size_t i = 0; i < n; ++i) sel_out[i] = verdict[ids[i]];
      }
      return Status::OK();
    }
    case Encoding::kDelta: {
      // Sequential representation: decode the window to int64, compare
      // directly in the logical domain.
      static thread_local std::vector<int64_t> decoded;
      decoded.resize(n);
      col.DecodeInt64(start, n, decoded.data());
      for (size_t i = 0; i < n; ++i) {
        sel_out[i] = CompareInt64(decoded[i], op_, literal_, literal2_)
                         ? kRowSelected
                         : kRowRejected;
      }
      return Status::OK();
    }
    case Encoding::kRle: {
      // One verdict per run; memset the covered stretch.
      size_t pos = 0;
      size_t covered = 0;
      for (const RleRun& run : col.runs()) {
        const size_t run_begin = pos;
        const size_t run_end = pos + run.count;
        pos = run_end;
        if (run_end <= start) continue;
        if (run_begin >= start + n) break;
        const size_t lo = run_begin < start ? start : run_begin;
        const size_t hi = run_end > start + n ? start + n : run_end;
        const bool hit = CompareInt64(static_cast<int64_t>(run.value), op_,
                                      literal_, literal2_);
        std::memset(sel_out + (lo - start),
                    hit ? kRowSelected : kRowRejected, hi - lo);
        covered += hi - lo;
      }
      BIPIE_DCHECK(covered == n);
      return Status::OK();
    }
  }
  return Status::Internal("unknown encoding");
}

bool ColumnPredicate::MatchesAllRows(const EncodedColumn& col) const {
  if (is_string_) return false;  // id-space metadata is not value-ordered
  const int64_t min = col.meta().min;
  const int64_t max = col.meta().max;
  switch (op_) {
    case CompareOp::kBetween:
      return min >= literal_ && max <= literal2_;
    case CompareOp::kEq:
      return min == max && min == literal_;
    case CompareOp::kLt:
      return max < literal_;
    case CompareOp::kLe:
      return max <= literal_;
    case CompareOp::kGt:
      return min > literal_;
    case CompareOp::kGe:
      return min >= literal_;
    case CompareOp::kNe:
      return literal_ < min || literal_ > max;
  }
  return false;
}

Status ColumnPredicate::EvaluateRuns(const EncodedColumn& col, size_t start,
                                     size_t n,
                                     std::vector<SelInterval>* out) const {
  if (col.encoding() != Encoding::kRle) {
    return Status::NotSupported("run verdicts require an RLE column");
  }
  if (is_string_) {
    return Status::NotSupported("run verdicts require an integer literal");
  }
  size_t pos = 0;
  for (const RleRun& run : col.runs()) {
    const size_t run_begin = pos;
    const size_t run_end = pos + run.count;
    pos = run_end;
    if (run_end <= start) continue;
    if (run_begin >= start + n) break;
    if (!CompareInt64(static_cast<int64_t>(run.value), op_, literal_,
                      literal2_)) {
      continue;
    }
    const size_t lo = run_begin < start ? start : run_begin;
    const size_t hi = run_end > start + n ? start + n : run_end;
    if (!out->empty() && out->back().start + out->back().len == lo) {
      out->back().len += hi - lo;  // adjacent selected runs merge
    } else {
      out->push_back({lo, hi - lo});
    }
  }
  return Status::OK();
}

bool ColumnPredicate::EliminatesSegment(const EncodedColumn& col) const {
  if (is_string_) return false;  // id-space metadata is not value-ordered
  const int64_t min = col.meta().min;
  const int64_t max = col.meta().max;
  switch (op_) {
    case CompareOp::kBetween:
      return literal2_ < min || literal_ > max || literal_ > literal2_;
    case CompareOp::kEq:
      return literal_ < min || literal_ > max;
    case CompareOp::kLt:
      return min >= literal_;
    case CompareOp::kLe:
      return min > literal_;
    case CompareOp::kGt:
      return max <= literal_;
    case CompareOp::kGe:
      return max < literal_;
    case CompareOp::kNe:
      return min == max && min == literal_;
  }
  return false;
}

}  // namespace bipie
