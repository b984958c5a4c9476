// An immutable, encoded column of one segment.
//
// All three MemSQL encodings from §2.1 are supported. Integer columns use
// frame-of-reference bit packing, optionally behind a dictionary; string
// columns are always dictionary encoded. A frame-of-reference value is
// v = base + scale * offset: base is the segment minimum and scale the
// greatest common divisor of the offsets v - base (1 when they share none),
// so values on a coarser grid — prices in cents that are whole dollars,
// quantities stored as hundredths — pack at the width of their distinct
// steps (DESIGN.md §19). Every column carries min/max metadata used for
// segment elimination and overflow proofs (§2.1). kByteSliced (DESIGN.md
// §16) stores the same frame-of-reference offsets as ceil(bit_width/8)
// byte planes inside packed_ (plane-major, stride = num_rows, MSB plane
// first) so predicates can evaluate plane-at-a-time with early exit.
#ifndef BIPIE_STORAGE_ENCODED_COLUMN_H_
#define BIPIE_STORAGE_ENCODED_COLUMN_H_

#include <memory>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "encoding/dictionary.h"
#include "encoding/rle.h"
#include "storage/types.h"

namespace bipie {

struct ColumnMeta {
  int64_t min = 0;  // logical minimum value (dictionary columns: over values)
  int64_t max = 0;
  size_t num_rows = 0;
};

class EncodedColumn {
 public:
  EncodedColumn() = default;
  EncodedColumn(EncodedColumn&&) = default;
  EncodedColumn& operator=(EncodedColumn&&) = default;
  BIPIE_DISALLOW_COPY_AND_ASSIGN(EncodedColumn);

  ColumnType type() const { return type_; }
  Encoding encoding() const { return encoding_; }
  const ColumnMeta& meta() const { return meta_; }
  size_t num_rows() const { return meta_.num_rows; }

  // --- Encoded-domain access (kBitPacked / kDictionary) ------------------

  // Width of each packed id/offset in bits.
  int bit_width() const { return bit_width_; }
  // Frame-of-reference map of kBitPacked / kByteSliced: the logical value
  // of offset o is base() + scale() * o. scale() is 1 for every other
  // encoding.
  int64_t base() const { return base_; }
  uint64_t scale() const { return scale_; }
  // The raw packed stream. Padded per AlignedBuffer rules.
  const uint8_t* packed_data() const { return packed_.data(); }

  // Exclusive upper bound on packed ids/offsets, from metadata
  // ((max - base) / scale + 1 for frame-of-reference columns). For a
  // dictionary column this is the dictionary size — the group-count bound
  // the Aggregate Processor uses (§3).
  uint64_t id_bound() const;

  // Unpacks packed ids/offsets [start, start+n) into `out` at `word_bytes`
  // per element (>= smallest word for bit_width). kRle columns are not
  // id-addressable; callers must check encoding() first.
  void UnpackIds(size_t start, size_t n, void* out, int word_bytes) const;

  // --- Logical-domain access (any encoding) -------------------------------

  // Decodes logical int64 values for rows [start, start+n). For string
  // columns this yields dictionary ids widened to int64.
  void DecodeInt64(size_t start, size_t n, int64_t* out) const;

  // Dictionaries (null when not dictionary encoded / not that type).
  const IntDictionary* int_dictionary() const { return int_dict_.get(); }
  const StringDictionary* string_dictionary() const { return str_dict_.get(); }

  const std::vector<RleRun>& runs() const { return runs_; }

  // Encoded size in bytes (compression diagnostics).
  size_t encoded_bytes() const;

  // Deep decode validation: verifies every invariant the kernels trust
  // before touching this column — enum discriminants in range, bit_width in
  // [1, 64], packed_ sized for num_rows values plus AlignedBuffer padding,
  // a frame-of-reference scale >= 1 that divides the metadata spread with
  // every scale * offset <= max - base (scale 1 on other encodings), every
  // dictionary code < dictionary size, dictionary values within the
  // [min, max] metadata (which drives segment elimination and overflow
  // proofs), RLE run counts summing to num_rows without overflow, and the
  // delta stream rolling forward to exactly the stored checkpoints with no
  // signed overflow. O(num_rows) for the code/offset scans (vectorized
  // unpack); every failure is a structured kDataLoss Status, never a crash.
  //
  // A column that passes Validate() can be decoded by any kernel with no
  // out-of-bounds access and no undefined behaviour, whatever the source of
  // its bytes.
  Status Validate() const;

  // Re-homes the packed stream's memory charge to `to` (see
  // Segment::MoveMemoryChargesTo).
  void MoveMemoryChargesTo(MemoryTracker& to) { packed_.MoveChargeTo(to); }

  // kDelta internals (diagnostics / serialization).
  int64_t delta_min() const { return delta_min_; }
  const std::vector<int64_t>& delta_checkpoints() const {
    return checkpoints_;
  }

 private:
  friend class ColumnBuilder;
  friend struct ColumnSerde;  // storage/table_io.cc

  ColumnType type_ = ColumnType::kInt64;
  Encoding encoding_ = Encoding::kBitPacked;
  ColumnMeta meta_;

  int64_t base_ = 0;
  uint64_t scale_ = 1;
  int bit_width_ = 1;
  AlignedBuffer packed_;

  std::shared_ptr<IntDictionary> int_dict_;
  std::shared_ptr<StringDictionary> str_dict_;
  std::vector<RleRun> runs_;

  // kDelta: packed_ holds (delta - delta_min_) for rows 1..n-1 at
  // bit_width_ bits; checkpoints_[k] is the absolute value at row
  // k * kDeltaCheckpointRows, so windowed decode never replays the whole
  // stream.
  int64_t delta_min_ = 0;
  std::vector<int64_t> checkpoints_;
};

// Delta checkpoint spacing. Aligned with kBatchRows so batch windows start
// exactly at a checkpoint.
inline constexpr size_t kDeltaCheckpointRows = 4096;

}  // namespace bipie

#endif  // BIPIE_STORAGE_ENCODED_COLUMN_H_
