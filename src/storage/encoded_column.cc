#include "storage/encoded_column.h"

#include <algorithm>
#include <string>

#include "common/bits.h"
#include "encoding/bitpack.h"
#include "encoding/byteslice.h"

namespace bipie {

namespace {

template <typename Word>
uint64_t MaxWord(const Word* values, size_t n) {
  Word max_value = 0;
  for (size_t i = 0; i < n; ++i) max_value = std::max(max_value, values[i]);
  return max_value;
}

// Largest packed value in [0, n) of the stream, via the vectorized unpack at
// the smallest word width (this is the hot part of deep validation; a scalar
// walk would make loading large tables noticeably slower).
uint64_t MaxPackedValue(const AlignedBuffer& packed, size_t n, int bit_width) {
  const int word = SmallestWordBytes(bit_width);
  AlignedBuffer scratch(kBatchRows * static_cast<size_t>(word));
  uint64_t max_value = 0;
  for (size_t start = 0; start < n; start += kBatchRows) {
    const size_t chunk = std::min(kBatchRows, n - start);
    BitUnpack(packed.data(), start, chunk, bit_width, scratch.data());
    uint64_t chunk_max = 0;
    switch (word) {
      case 1:
        chunk_max = MaxWord(scratch.data_as<uint8_t>(), chunk);
        break;
      case 2:
        chunk_max = MaxWord(scratch.data_as<uint16_t>(), chunk);
        break;
      case 4:
        chunk_max = MaxWord(scratch.data_as<uint32_t>(), chunk);
        break;
      default:
        chunk_max = MaxWord(scratch.data_as<uint64_t>(), chunk);
        break;
    }
    max_value = std::max(max_value, chunk_max);
  }
  return max_value;
}

}  // namespace

uint64_t EncodedColumn::id_bound() const {
  switch (encoding_) {
    case Encoding::kDictionary:
      return type_ == ColumnType::kString ? str_dict_->size()
                                          : int_dict_->size();
    case Encoding::kBitPacked:
    case Encoding::kByteSliced: {
      // Offsets span [0, (max - base) / scale]; metadata gives the exact
      // bound.
      const uint64_t spread =
          static_cast<uint64_t>(meta_.max) - static_cast<uint64_t>(base_);
      return spread / scale_ + 1;
    }
    case Encoding::kRle:
    case Encoding::kDelta:
      return 0;  // not id-addressable
  }
  return 0;
}

void EncodedColumn::UnpackIds(size_t start, size_t n, void* out,
                              int word_bytes) const {
  BIPIE_DCHECK(encoding_ == Encoding::kBitPacked ||
               encoding_ == Encoding::kDictionary ||
               encoding_ == Encoding::kByteSliced);
  BIPIE_DCHECK(start + n <= meta_.num_rows);
  if (encoding_ == Encoding::kByteSliced) {
    ByteSliceAssemble(packed_.data(), meta_.num_rows, bit_width_, start, n,
                      out, word_bytes);
    return;
  }
  BitUnpackToWord(packed_.data(), start, n, bit_width_, out, word_bytes);
}

void EncodedColumn::DecodeInt64(size_t start, size_t n, int64_t* out) const {
  BIPIE_DCHECK(start + n <= meta_.num_rows);
  switch (encoding_) {
    case Encoding::kBitPacked:
      BitUnpackAffine(packed_.data(), start, n, bit_width_, base_, scale_,
                      out);
      return;
    case Encoding::kByteSliced:
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<int64_t>(
            static_cast<uint64_t>(base_) +
            scale_ * ByteSliceAssembleOne(packed_.data(), meta_.num_rows,
                                          bit_width_, start + i));
      }
      return;
    case Encoding::kDictionary: {
      BitUnpackToWord(packed_.data(), start, n, bit_width_, out, 8);
      if (type_ == ColumnType::kInt64) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = int_dict_->value(static_cast<uint32_t>(out[i]));
        }
      }
      // String columns keep dictionary ids as the logical int64 values.
      return;
    }
    case Encoding::kRle: {
      RleDecodeRange(runs_, start, n, reinterpret_cast<uint64_t*>(out));
      return;
    }
    case Encoding::kDelta: {
      if (n == 0) return;
      // Roll forward from the checkpoint at or before `start`. The delta
      // for row i lives at packed index i - 1, so rows
      // (block_row, start + n) consume packed indices [block_row, ...).
      const size_t block = start / kDeltaCheckpointRows;
      const size_t block_row = block * kDeltaCheckpointRows;
      // Rolled forward in wrapping uint64 arithmetic: a delta's offset and
      // delta_min_ may each be far outside int64 range when the delta
      // spread exceeds 2^63, but every partial sum lands back on a stored
      // int64 value, so the result is exact.
      uint64_t value = static_cast<uint64_t>(checkpoints_[block]);
      const size_t total = start + n;
      const size_t num_deltas =
          total > block_row + 1 ? total - block_row - 1 : 0;
      std::vector<uint64_t> offsets(num_deltas);
      if (num_deltas > 0) {
        BitUnpackToWord(packed_.data(), block_row, num_deltas, bit_width_,
                        offsets.data(), 8);
      }
      const auto delta_min = static_cast<uint64_t>(delta_min_);
      if (block_row >= start) {
        out[block_row - start] = static_cast<int64_t>(value);
      }
      for (size_t k = 0; k < num_deltas; ++k) {
        const size_t row = block_row + 1 + k;
        value += delta_min + offsets[k];
        if (row >= start) out[row - start] = static_cast<int64_t>(value);
      }
      return;
    }
  }
}

Status EncodedColumn::Validate() const {
  // Enum discriminants first: nothing below means anything if these were
  // corrupted, and an out-of-range enum value is UB waiting to happen.
  const int type_raw = static_cast<int>(type_);
  if (type_raw < 0 || type_raw > static_cast<int>(ColumnType::kString)) {
    return Status::DataLoss("column type discriminant out of range: " +
                            std::to_string(type_raw));
  }
  const int enc_raw = static_cast<int>(encoding_);
  if (enc_raw < 0 || enc_raw > static_cast<int>(Encoding::kByteSliced)) {
    return Status::DataLoss("column encoding discriminant out of range: " +
                            std::to_string(enc_raw));
  }
  if (meta_.min > meta_.max) {
    return Status::DataLoss("column metadata min > max");
  }
  if (type_ == ColumnType::kString && encoding_ != Encoding::kDictionary) {
    return Status::DataLoss("string column must be dictionary encoded");
  }
  // id_bound() divides by the scale, even on an empty column.
  const bool frame_of_reference = encoding_ == Encoding::kBitPacked ||
                                  encoding_ == Encoding::kByteSliced;
  if (scale_ == 0) {
    return Status::DataLoss("frame-of-reference scale is zero");
  }
  if (!frame_of_reference && scale_ != 1) {
    return Status::DataLoss("scale != 1 on a non-frame-of-reference column");
  }
  const size_t n = meta_.num_rows;
  if (n == 0) return Status::OK();  // nothing will ever be decoded
  // Frame-of-reference offsets span [0, spread / scale]; the spread is an
  // exact multiple of the scale because max is itself a stored value.
  const uint64_t spread =
      static_cast<uint64_t>(meta_.max) - static_cast<uint64_t>(base_);
  if (frame_of_reference) {
    if (base_ != meta_.min) {
      // The builder always uses min as the frame-of-reference base;
      // id_bound() and the overflow proofs assume it.
      return Status::DataLoss("frame-of-reference base != metadata min");
    }
    if (spread % scale_ != 0) {
      return Status::DataLoss("metadata spread is not a multiple of scale");
    }
  }

  switch (encoding_) {
    case Encoding::kBitPacked: {
      if (bit_width_ < 1 || bit_width_ > 64) {
        return Status::DataLoss("bit width out of [1, 64]: " +
                                std::to_string(bit_width_));
      }
      if (packed_.size() < BitPackedBytes(n, bit_width_)) {
        return Status::DataLoss("bit-packed stream shorter than row count");
      }
      // Every offset must stay within the metadata spread: offsets above it
      // would decode outside [min, max], breaking segment elimination and
      // the id_bound() the aggregation kernels size their arrays with.
      const uint64_t max_offset = MaxPackedValue(packed_, n, bit_width_);
      if (max_offset > spread / scale_) {
        return Status::DataLoss("bit-packed offset exceeds metadata spread");
      }
      return Status::OK();
    }
    case Encoding::kDictionary: {
      if (bit_width_ < 1 || bit_width_ > 32) {
        return Status::DataLoss("dictionary id width out of [1, 32]: " +
                                std::to_string(bit_width_));
      }
      size_t dict_size = 0;
      if (type_ == ColumnType::kString) {
        if (str_dict_ == nullptr) {
          return Status::DataLoss("string column missing its dictionary");
        }
        dict_size = str_dict_->size();
        if (meta_.min < 0 ||
            meta_.max >= static_cast<int64_t>(dict_size)) {
          return Status::DataLoss("string metadata outside dictionary ids");
        }
      } else {
        if (int_dict_ == nullptr) {
          return Status::DataLoss("dictionary column missing its dictionary");
        }
        dict_size = int_dict_->size();
        for (int64_t v : int_dict_->values()) {
          if (v < meta_.min || v > meta_.max) {
            return Status::DataLoss(
                "dictionary value outside metadata [min, max]");
          }
        }
      }
      if (dict_size == 0) {
        return Status::DataLoss("empty dictionary for non-empty column");
      }
      if (packed_.size() < BitPackedBytes(n, bit_width_)) {
        return Status::DataLoss("dictionary id stream shorter than row count");
      }
      // Codes index the dictionary and the aggregation arrays sized by
      // id_bound(); a single out-of-range code is an out-of-bounds access.
      const uint64_t max_code = MaxPackedValue(packed_, n, bit_width_);
      if (max_code >= dict_size) {
        return Status::DataLoss("dictionary code >= dictionary size");
      }
      return Status::OK();
    }
    case Encoding::kRle: {
      uint64_t total = 0;
      for (const RleRun& run : runs_) {
        if (run.count == 0) {
          return Status::DataLoss("zero-length RLE run");
        }
        total += run.count;  // uint64 accumulation cannot wrap here: run
                             // count fits 32 bits and the run vector was
                             // bounded by the file size on load
        const int64_t v = static_cast<int64_t>(run.value);
        if (v < meta_.min || v > meta_.max) {
          return Status::DataLoss("RLE run value outside metadata [min, max]");
        }
      }
      if (total != n) {
        return Status::DataLoss("RLE run counts sum to " +
                                std::to_string(total) + ", expected " +
                                std::to_string(n));
      }
      return Status::OK();
    }
    case Encoding::kByteSliced: {
      if (bit_width_ < 1 || bit_width_ > 64) {
        return Status::DataLoss("bit width out of [1, 64]: " +
                                std::to_string(bit_width_));
      }
      if (packed_.size() < ByteSliceBytes(n, bit_width_)) {
        return Status::DataLoss("byte planes shorter than row count");
      }
      // The pad bits of the last plane are an invariant of the layout: the
      // comparison kernels compare shifted values for equality, so a
      // mutated non-zero pad bit would silently change predicate answers.
      const int np = ByteSlicePlanes(bit_width_);
      const int pad = ByteSlicePadBits(bit_width_);
      if (pad > 0) {
        const uint8_t* last_plane =
            packed_.data() + static_cast<size_t>(np - 1) * n;
        const uint8_t pad_mask = static_cast<uint8_t>(LowBitsMask(pad));
        for (size_t i = 0; i < n; ++i) {
          if ((last_plane[i] & pad_mask) != 0) {
            return Status::DataLoss("byte-sliced pad bits are not zero");
          }
        }
      }
      // Assembled offsets must stay within the metadata spread, same as the
      // bit-packed tier (id_bound() and segment elimination rely on it).
      const uint64_t max_offset = spread / scale_;
      AlignedBuffer scratch(kBatchRows * 8);
      uint64_t* words = scratch.data_as<uint64_t>();
      for (size_t start = 0; start < n; start += kBatchRows) {
        const size_t chunk = std::min(kBatchRows, n - start);
        ByteSliceAssemble(packed_.data(), n, bit_width_, start, chunk, words,
                          8);
        for (size_t k = 0; k < chunk; ++k) {
          if (words[k] > max_offset) {
            return Status::DataLoss(
                "byte-sliced offset exceeds metadata spread");
          }
        }
      }
      return Status::OK();
    }
    case Encoding::kDelta: {
      if (bit_width_ < 1 || bit_width_ > 64) {
        return Status::DataLoss("bit width out of [1, 64]: " +
                                std::to_string(bit_width_));
      }
      const size_t expected_checkpoints = (n - 1) / kDeltaCheckpointRows + 1;
      if (checkpoints_.size() != expected_checkpoints) {
        return Status::DataLoss("delta checkpoint count mismatch");
      }
      if (packed_.size() < BitPackedBytes(n - 1, bit_width_)) {
        return Status::DataLoss("delta stream shorter than row count");
      }
      // Roll the whole stream forward once, checking three things the
      // windowed decoder (DecodeInt64) will later rely on: no signed
      // overflow in any delta addition, every value inside the metadata
      // bounds, and each stored checkpoint equal to the rolled value at its
      // row (so a decode starting mid-stream agrees with one from row 0).
      int64_t value = checkpoints_[0];
      if (value < meta_.min || value > meta_.max) {
        return Status::DataLoss("delta checkpoint outside metadata bounds");
      }
      AlignedBuffer scratch(kBatchRows * 8);
      uint64_t* offsets = scratch.data_as<uint64_t>();
      const size_t num_deltas = n - 1;
      for (size_t start = 0; start < num_deltas; start += kBatchRows) {
        const size_t chunk = std::min(kBatchRows, num_deltas - start);
        BitUnpackToWord(packed_.data(), start, chunk, bit_width_, offsets, 8);
        for (size_t k = 0; k < chunk; ++k) {
          const size_t row = start + k + 1;
          int64_t delta = 0;
          if (__builtin_add_overflow(delta_min_,
                                     static_cast<int64_t>(offsets[k]),
                                     &delta) ||
              __builtin_add_overflow(value, delta, &value)) {
            return Status::DataLoss("delta decode overflows int64 at row " +
                                    std::to_string(row));
          }
          if (value < meta_.min || value > meta_.max) {
            return Status::DataLoss("delta value outside metadata bounds");
          }
          if (row % kDeltaCheckpointRows == 0 &&
              checkpoints_[row / kDeltaCheckpointRows] != value) {
            return Status::DataLoss("delta checkpoint disagrees with stream");
          }
        }
      }
      return Status::OK();
    }
  }
  return Status::DataLoss("unreachable encoding");
}

size_t EncodedColumn::encoded_bytes() const {
  switch (encoding_) {
    case Encoding::kBitPacked:
    case Encoding::kByteSliced:
      return packed_.size();
    case Encoding::kDictionary: {
      size_t dict_bytes = 0;
      if (int_dict_ != nullptr) dict_bytes = int_dict_->size() * 8;
      if (str_dict_ != nullptr) {
        for (const auto& s : str_dict_->values()) dict_bytes += s.size() + 4;
      }
      return packed_.size() + dict_bytes;
    }
    case Encoding::kRle:
      return runs_.size() * sizeof(RleRun);
    case Encoding::kDelta:
      return packed_.size() + checkpoints_.size() * sizeof(int64_t);
  }
  return 0;
}

}  // namespace bipie
