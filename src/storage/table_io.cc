#include "storage/table_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bipie {

namespace {

// IO counters (DESIGN.md §12). Byte counts are whole-file sizes reported
// once per save/load — never per fwrite/fread call.
struct IoCounters {
  obs::Counter& tables_saved = obs::Counter::Get("io.tables_saved");
  obs::Counter& tables_loaded = obs::Counter::Get("io.tables_loaded");
  obs::Counter& bytes_written = obs::Counter::Get("io.bytes_written");
  obs::Counter& bytes_read = obs::Counter::Get("io.bytes_read");
  obs::Counter& save_errors = obs::Counter::Get("io.save_errors");
  obs::Counter& load_errors = obs::Counter::Get("io.load_errors");
  obs::Counter& checksum_failures = obs::Counter::Get("io.checksum_failures");
};
IoCounters& Counters() {
  static IoCounters counters;
  return counters;
}

constexpr char kMagicV1[8] = {'B', 'I', 'P', 'I', 'E', 'T', 'B', '1'};
constexpr char kMagicV2[8] = {'B', 'I', 'P', 'I', 'E', 'T', 'B', '2'};
constexpr char kMagicV3[8] = {'B', 'I', 'P', 'I', 'E', 'T', 'B', '3'};
constexpr char kMagicPrefix[7] = {'B', 'I', 'P', 'I', 'E', 'T', 'B'};

constexpr uint32_t kMaxColumns = 4096;

// Valid on-disk discriminant ranges; anything outside is rejected before
// the byte is ever cast into the enum (constructing an out-of-range enum
// value is UB and would poison every later comparison).
constexpr uint8_t kMaxColumnType = static_cast<uint8_t>(ColumnType::kString);
constexpr uint8_t kMaxEncoding = static_cast<uint8_t>(Encoding::kByteSliced);
constexpr uint8_t kMaxEncodingChoice =
    static_cast<uint8_t>(EncodingChoice::kByteSliced);

// Writes straight to the file (v1 layout and the v2/v3 outer framing).
class FileWriter {
 public:
  explicit FileWriter(std::FILE* f) : f_(f) {}

  void Bytes(const void* data, size_t n) {
    if (BIPIE_FAILPOINT("table_io/write_fail")) {
      ok_ = false;
      return;
    }
    // n == 0 short-circuits: empty payloads (e.g. zero-length strings) may
    // legally pass a null pointer, which fwrite must not receive.
    ok_ = ok_ && (n == 0 || std::fwrite(data, 1, n, f_) == n);
  }
  void U8(uint8_t v) { Bytes(&v, 1); }
  void U32(uint32_t v) { Bytes(&v, 4); }
  void U64(uint64_t v) { Bytes(&v, 8); }
  void I64(int64_t v) { Bytes(&v, 8); }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

// Serializes into memory; v2/v3 checksum and frame whole blocks, so every
// block is materialized before it is written.
class BufWriter {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out_.insert(out_.end(), bytes, bytes + n);
  }
  void U8(uint8_t v) { Bytes(&v, 1); }
  void U32(uint32_t v) { Bytes(&v, 4); }
  void U64(uint64_t v) { Bytes(&v, 8); }
  void I64(int64_t v) { Bytes(&v, 8); }
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  const uint8_t* data() const { return out_.data(); }
  size_t size() const { return out_.size(); }

 private:
  std::vector<uint8_t> out_;
};

// Reads the file sequentially. Every read is bounded by remaining(), which
// is also the hard upper bound for any size field decoded from the stream —
// a claimed payload larger than the bytes that physically exist is corrupt,
// and rejecting it *before* allocating is what closes the pre-validation
// allocation DoS.
//
// v2/v3 block framing is streamed: BeginBlock reads the frame (length and
// stored CRC32C) and narrows remaining() to the block payload, every read
// inside the block folds into a running CRC, and EndBlock checks the block
// was consumed exactly and the checksum matches. Payload bytes land
// directly in their final destination (e.g. a column's packed buffer) —
// no staging copy of the block.
class Reader {
 public:
  Reader(std::FILE* f, uint64_t file_size) : f_(f), remaining_(file_size) {}

  bool Bytes(void* data, size_t n) {
    if (BIPIE_FAILPOINT("table_io/read_short")) {
      ok_ = false;
      return false;
    }
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    if (n == 0) return true;
    if (in_block_ && verify_crc_) {
      // Checksum each chunk while it is still cache-hot from the read;
      // one pass over a multi-megabyte payload after the fact would touch
      // cold memory twice.
      constexpr size_t kCrcChunk = 256 * 1024;
      auto* dst = static_cast<uint8_t*>(data);
      for (size_t off = 0; off < n; off += kCrcChunk) {
        const size_t take = std::min(kCrcChunk, n - off);
        if (std::fread(dst + off, 1, take, f_) != take) {
          ok_ = false;
          return false;
        }
        block_crc_ = Crc32cExtend(block_crc_, dst + off, take);
      }
    } else {
      ok_ = std::fread(data, 1, n, f_) == n;
      if (!ok_) return false;
    }
    remaining_ -= n;
    if (in_block_) block_remaining_ -= n;
    return true;
  }
  bool U8(uint8_t* v) { return Bytes(v, 1); }
  bool U32(uint32_t* v) { return Bytes(v, 4); }
  bool U64(uint64_t* v) { return Bytes(v, 8); }
  bool I64(int64_t* v) { return Bytes(v, 8); }
  bool String(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > remaining()) {  // claimed length beyond the physical bytes
      ok_ = false;
      return false;
    }
    s->resize(len);
    return Bytes(s->data(), len);
  }

  // Bytes left in the current scope — the block payload when inside a
  // block, the whole file otherwise; the bound for any size decoded here.
  uint64_t remaining() const {
    return in_block_ ? block_remaining_ : remaining_;
  }

  // Enters a v2/v3 block: reads the frame and scopes subsequent reads to the
  // claimed payload, which is itself bounded by the physical bytes left.
  Status BeginBlock(bool verify_checksum, const char* what) {
    uint64_t len = 0;
    uint32_t stored_crc = 0;
    if (!U64(&len) || !U32(&stored_crc)) {
      return Status::DataLoss(std::string("truncated block frame (") + what +
                              ")");
    }
    if (len > remaining_) {
      return Status::DataLoss(std::string("block length exceeds file size (") +
                              what + ")");
    }
    in_block_ = true;
    block_remaining_ = len;
    verify_crc_ = verify_checksum;
    block_crc_ = 0;
    block_crc_expected_ = stored_crc;
    return Status::OK();
  }

  // Leaves the block; the payload must be consumed exactly and (when
  // verifying) the running CRC must match the stored one. Note the parse
  // above ran on as-yet-unverified bytes — that is fine precisely because
  // the parser is hardened against arbitrary bytes (v1 files have no
  // checksums at all), and the CRC verdict still gates the load.
  Status EndBlock(const char* what) {
    in_block_ = false;
    if (!ok_) {
      return Status::DataLoss(std::string("truncated block payload (") + what +
                              ")");
    }
    if (block_remaining_ != 0) {
      return Status::DataLoss(std::string("trailing bytes in ") + what +
                              " block");
    }
    if (verify_crc_) {
      uint32_t actual = block_crc_;
      if (BIPIE_FAILPOINT("table_io/checksum_mismatch")) actual = ~actual;
      if (actual != block_crc_expected_) {
        Counters().checksum_failures.Increment();
        return Status::DataLoss(std::string("checksum mismatch (") + what +
                                ")");
      }
    }
    return Status::OK();
  }

  bool ok() const { return ok_; }

 private:
  std::FILE* f_ = nullptr;
  uint64_t remaining_ = 0;
  bool ok_ = true;
  bool in_block_ = false;
  bool verify_crc_ = false;
  uint64_t block_remaining_ = 0;
  uint32_t block_crc_ = 0;
  uint32_t block_crc_expected_ = 0;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Writes one framed v2/v3 block: length, checksum, payload.
void WriteBlock(FileWriter* fw, const BufWriter& block) {
  fw->U64(block.size());
  fw->U32(Crc32c(block.data(), block.size()));
  fw->Bytes(block.data(), block.size());
}

}  // namespace

// Grants table_io access to EncodedColumn's encoded representation. The
// column layout of format `version`: v3 adds the frame-of-reference scale
// after the base; v1 and v2 columns load with scale 1.
struct ColumnSerde {
  template <typename W>
  static void Write(W* w, const EncodedColumn& col, int version) {
    w->U8(static_cast<uint8_t>(col.type_));
    w->U8(static_cast<uint8_t>(col.encoding_));
    w->I64(col.meta_.min);
    w->I64(col.meta_.max);
    w->U64(col.meta_.num_rows);
    w->I64(col.base_);
    if (version >= 3) w->U64(col.scale_);
    w->U8(static_cast<uint8_t>(col.bit_width_));
    w->U64(col.packed_.size());
    w->Bytes(col.packed_.data(), col.packed_.size());
    w->U8(col.int_dict_ != nullptr ? 1 : 0);
    if (col.int_dict_ != nullptr) {
      w->U32(static_cast<uint32_t>(col.int_dict_->size()));
      for (int64_t v : col.int_dict_->values()) w->I64(v);
    }
    w->U8(col.str_dict_ != nullptr ? 1 : 0);
    if (col.str_dict_ != nullptr) {
      w->U32(static_cast<uint32_t>(col.str_dict_->size()));
      for (const std::string& s : col.str_dict_->values()) w->String(s);
    }
    w->U32(static_cast<uint32_t>(col.runs_.size()));
    for (const RleRun& run : col.runs_) {
      w->U64(run.value);
      w->U32(run.count);
    }
    w->I64(col.delta_min_);
    w->U32(static_cast<uint32_t>(col.checkpoints_.size()));
    for (int64_t c : col.checkpoints_) w->I64(c);
  }

  static Status Read(Reader* r, EncodedColumn* col, int version) {
    uint8_t type = 0, encoding = 0, bit_width = 0, has_dict = 0;
    uint64_t packed_size = 0, num_rows = 0;
    if (!r->U8(&type) || !r->U8(&encoding)) {
      return Status::DataLoss("truncated column header");
    }
    if (type > kMaxColumnType) {
      return Status::DataLoss("column type discriminant out of range");
    }
    if (encoding > kMaxEncoding) {
      return Status::DataLoss("column encoding discriminant out of range");
    }
    if (!r->I64(&col->meta_.min) || !r->I64(&col->meta_.max) ||
        !r->U64(&num_rows) || !r->I64(&col->base_) ||
        (version >= 3 && !r->U64(&col->scale_)) || !r->U8(&bit_width) ||
        !r->U64(&packed_size)) {
      return Status::DataLoss("truncated column metadata");
    }
    col->type_ = static_cast<ColumnType>(type);
    col->encoding_ = static_cast<Encoding>(encoding);
    col->meta_.num_rows = num_rows;
    col->bit_width_ = bit_width;
    // Bound, then allocate, then read: the size field is attacker
    // controlled, the remaining byte count is physical truth.
    if (packed_size > r->remaining()) {
      return Status::DataLoss("packed stream larger than file");
    }
    if (!col->packed_.TryResize(packed_size)) {
      return Status::ResourceExhausted("packed stream allocation failed");
    }
    if (!r->Bytes(col->packed_.data(), packed_size)) {
      return Status::DataLoss("truncated packed stream");
    }
    if (!r->U8(&has_dict)) return Status::DataLoss("truncated column");
    if (has_dict != 0) {
      uint32_t n = 0;
      if (!r->U32(&n)) return Status::DataLoss("truncated int dictionary");
      if (n > r->remaining() / 8) {  // each entry is an 8-byte value
        return Status::DataLoss("int dictionary larger than file");
      }
      auto dict = std::make_shared<IntDictionary>();
      for (uint32_t i = 0; i < n; ++i) {
        int64_t v = 0;
        if (!r->I64(&v)) return Status::DataLoss("truncated int dictionary");
        dict->GetOrInsert(v);
      }
      col->int_dict_ = std::move(dict);
    }
    if (!r->U8(&has_dict)) return Status::DataLoss("truncated column");
    if (has_dict != 0) {
      uint32_t n = 0;
      if (!r->U32(&n)) return Status::DataLoss("truncated string dictionary");
      if (n > r->remaining() / 4) {  // each entry is at least a 4-byte length
        return Status::DataLoss("string dictionary larger than file");
      }
      auto dict = std::make_shared<StringDictionary>();
      for (uint32_t i = 0; i < n; ++i) {
        std::string s;
        if (!r->String(&s)) {
          return Status::DataLoss("truncated string dictionary");
        }
        dict->GetOrInsert(s);
      }
      col->str_dict_ = std::move(dict);
    }
    uint32_t num_runs = 0;
    if (!r->U32(&num_runs)) return Status::DataLoss("truncated RLE runs");
    if (num_runs > r->remaining() / 12) {  // 8-byte value + 4-byte count
      return Status::DataLoss("RLE run list larger than file");
    }
    col->runs_.resize(num_runs);
    for (uint32_t i = 0; i < num_runs; ++i) {
      if (!r->U64(&col->runs_[i].value) || !r->U32(&col->runs_[i].count)) {
        return Status::DataLoss("truncated RLE runs");
      }
    }
    uint32_t num_checkpoints = 0;
    if (!r->I64(&col->delta_min_) || !r->U32(&num_checkpoints)) {
      return Status::DataLoss("truncated delta trailer");
    }
    if (num_checkpoints > r->remaining() / 8) {
      return Status::DataLoss("delta checkpoint list larger than file");
    }
    col->checkpoints_.resize(num_checkpoints);
    for (uint32_t i = 0; i < num_checkpoints; ++i) {
      if (!r->I64(&col->checkpoints_[i])) {
        return Status::DataLoss("truncated delta checkpoints");
      }
    }
    return Status::OK();
  }
};

namespace {

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

Status SaveTableV1(const Table& table, std::FILE* f, const std::string& path) {
  FileWriter w(f);
  w.Bytes(kMagicV1, sizeof(kMagicV1));
  w.U32(static_cast<uint32_t>(table.num_columns()));
  for (const ColumnSpec& spec : table.schema()) {
    w.String(spec.name);
    w.U8(static_cast<uint8_t>(spec.type));
    w.U8(static_cast<uint8_t>(spec.encoding));
  }
  w.U32(static_cast<uint32_t>(table.num_segments()));
  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    w.U64(segment.num_rows());
    const uint8_t* alive = segment.alive_bytes();
    w.U8(alive != nullptr ? 1 : 0);
    if (alive != nullptr) w.Bytes(alive, segment.num_rows());
    for (size_t c = 0; c < segment.num_columns(); ++c) {
      ColumnSerde::Write(&w, segment.column(c), 1);
    }
  }
  if (!w.ok()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

// The framed, checksummed formats: v2, and v3 with per-column scales.
Status SaveTableFramed(const Table& table, std::FILE* f,
                       const std::string& path, int version) {
  FileWriter w(f);
  w.Bytes(version == 2 ? kMagicV2 : kMagicV3, sizeof(kMagicV2));

  BufWriter header;
  header.U32(static_cast<uint32_t>(table.num_columns()));
  for (const ColumnSpec& spec : table.schema()) {
    header.String(spec.name);
    header.U8(static_cast<uint8_t>(spec.type));
    header.U8(static_cast<uint8_t>(spec.encoding));
  }
  header.U32(static_cast<uint32_t>(table.num_segments()));
  WriteBlock(&w, header);

  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    BufWriter seg;
    seg.U64(segment.num_rows());
    const uint8_t* alive = segment.alive_bytes();
    seg.U8(alive != nullptr ? 1 : 0);
    if (alive != nullptr) seg.Bytes(alive, segment.num_rows());
    WriteBlock(&w, seg);
    for (size_t c = 0; c < segment.num_columns(); ++c) {
      BufWriter col;
      ColumnSerde::Write(&col, segment.column(c), version);
      WriteBlock(&w, col);
    }
  }
  if (!w.ok()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Readers
// ---------------------------------------------------------------------------

// Reads the schema fields shared by every format from `r` (for v2/v3, `r`
// is scoped to the header block).
Status ReadSchema(Reader* r, Schema* schema) {
  uint32_t num_columns = 0;
  if (!r->U32(&num_columns)) return Status::DataLoss("truncated schema");
  if (num_columns > kMaxColumns) {
    return Status::DataLoss("column count exceeds limit");
  }
  schema->resize(num_columns);
  for (ColumnSpec& spec : *schema) {
    uint8_t type = 0, encoding = 0;
    if (!r->String(&spec.name) || !r->U8(&type) || !r->U8(&encoding)) {
      return Status::DataLoss("truncated schema");
    }
    if (type > kMaxColumnType) {
      return Status::DataLoss("schema type discriminant out of range");
    }
    if (encoding > kMaxEncodingChoice) {
      return Status::DataLoss("schema encoding discriminant out of range");
    }
    spec.type = static_cast<ColumnType>(type);
    spec.encoding = static_cast<EncodingChoice>(encoding);
  }
  return Status::OK();
}

// Applies a loaded liveness mask, checking the *file's* bytes are canonical
// before they are folded into DeleteRow calls.
Status ApplyAliveMask(const std::vector<uint8_t>& alive, Segment* segment) {
  for (uint64_t row = 0; row < alive.size(); ++row) {
    if (alive[row] == 0x00) {
      segment->DeleteRow(row);
    } else if (alive[row] != 0xFF) {
      return Status::DataLoss("non-canonical liveness byte");
    }
  }
  return Status::OK();
}

Result<Table> LoadTableV1(Reader* r) {
  Schema schema;
  BIPIE_RETURN_NOT_OK(ReadSchema(r, &schema));
  const size_t num_columns = schema.size();
  Table table(std::move(schema));
  uint32_t num_segments = 0;
  if (!r->U32(&num_segments)) {
    return Status::DataLoss("truncated segment count");
  }
  for (uint32_t s = 0; s < num_segments; ++s) {
    uint64_t num_rows = 0;
    uint8_t has_alive = 0;
    if (!r->U64(&num_rows) || !r->U8(&has_alive)) {
      return Status::DataLoss("truncated segment header");
    }
    std::vector<uint8_t> alive;
    if (has_alive != 0) {
      if (num_rows > r->remaining()) {
        return Status::DataLoss("liveness mask larger than file");
      }
      alive.resize(num_rows);
      if (!r->Bytes(alive.data(), num_rows)) {
        return Status::DataLoss("truncated liveness mask");
      }
    }
    std::vector<EncodedColumn> columns(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      BIPIE_RETURN_NOT_OK(ColumnSerde::Read(r, &columns[c], 1));
      if (columns[c].num_rows() != num_rows) {
        return Status::DataLoss("column row count disagrees with segment");
      }
    }
    Segment segment(num_rows, std::move(columns));
    BIPIE_RETURN_NOT_OK(ApplyAliveMask(alive, &segment));
    table.AddSegment(std::move(segment));
  }
  if (r->remaining() != 0) {
    return Status::DataLoss("trailing bytes after table");
  }
  return table;
}

Result<Table> LoadTableFramed(Reader* r, const LoadOptions& options,
                              int version) {
  const bool verify = options.verify_checksums;
  BIPIE_RETURN_NOT_OK(r->BeginBlock(verify, "header"));
  Schema schema;
  BIPIE_RETURN_NOT_OK(ReadSchema(r, &schema));
  uint32_t num_segments = 0;
  if (!r->U32(&num_segments)) {
    return Status::DataLoss("truncated segment count");
  }
  BIPIE_RETURN_NOT_OK(r->EndBlock("header"));
  // Each segment costs at least one block frame; more segments than frames
  // that could physically fit is corrupt.
  if (num_segments > r->remaining() / 12) {
    return Status::DataLoss("segment count exceeds file size");
  }
  const size_t num_columns = schema.size();
  Table table(std::move(schema));
  for (uint32_t s = 0; s < num_segments; ++s) {
    BIPIE_RETURN_NOT_OK(r->BeginBlock(verify, "segment"));
    uint64_t num_rows = 0;
    uint8_t has_alive = 0;
    if (!r->U64(&num_rows) || !r->U8(&has_alive)) {
      return Status::DataLoss("truncated segment header");
    }
    std::vector<uint8_t> alive;
    if (has_alive != 0) {
      if (num_rows > r->remaining()) {
        return Status::DataLoss("liveness mask larger than its block");
      }
      alive.resize(num_rows);
      if (!r->Bytes(alive.data(), num_rows)) {
        return Status::DataLoss("truncated liveness mask");
      }
    }
    BIPIE_RETURN_NOT_OK(r->EndBlock("segment"));
    std::vector<EncodedColumn> columns(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      BIPIE_RETURN_NOT_OK(r->BeginBlock(verify, "column"));
      BIPIE_RETURN_NOT_OK(ColumnSerde::Read(r, &columns[c], version));
      BIPIE_RETURN_NOT_OK(r->EndBlock("column"));
      if (columns[c].num_rows() != num_rows) {
        return Status::DataLoss("column row count disagrees with segment");
      }
    }
    Segment segment(num_rows, std::move(columns));
    BIPIE_RETURN_NOT_OK(ApplyAliveMask(alive, &segment));
    table.AddSegment(std::move(segment));
  }
  if (r->remaining() != 0) {
    return Status::DataLoss("trailing bytes after table");
  }
  return table;
}

}  // namespace

namespace {

Status SaveTableImpl(const Table& table, const std::string& path,
                     const SaveOptions& options, uint64_t* bytes_written) {
  const int version = options.format_version;
  if (version < 1 || version > 3) {
    return Status::NotSupported("unknown table format version " +
                                std::to_string(version));
  }
  if (version < 3) {
    // Legacy layouts have no scale field: refuse before touching the file.
    for (size_t s = 0; s < table.num_segments(); ++s) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        if (table.segment(s).column(c).scale() != 1) {
          return Status::NotSupported(
              "table format v" + std::to_string(version) +
              " cannot store a scaled frame-of-reference column (" +
              table.schema()[c].name + "); save as v3");
        }
      }
    }
  }
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  Status status = version == 1
                      ? SaveTableV1(table, f.get(), path)
                      : SaveTableFramed(table, f.get(), path, version);
  if (status.ok()) {
    const long pos = std::ftell(f.get());
    if (pos > 0) *bytes_written = static_cast<uint64_t>(pos);
  }
  return status;
}

Result<Table> LoadTableImpl(const std::string& path,
                            const LoadOptions& options,
                            uint64_t* bytes_read) {
  // Charge the whole load — every column's packed stream, the liveness
  // masks — against the caller's tracker, so its limits bound the load's
  // peak footprint. The per-column TryResize below reports a breach as
  // kResourceExhausted before any oversized allocation happens.
  MemoryTrackerScope memory_scope(options.memory_tracker);
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for reading: " + path);
  }
  // The physical file size is the root bound every decoded size field is
  // checked against.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0) return Status::Internal("cannot tell: " + path);
  if (std::fseek(f.get(), 0, SEEK_SET) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  *bytes_read = static_cast<uint64_t>(file_size);

  Reader r(f.get(), static_cast<uint64_t>(file_size));
  char magic[8];
  if (!r.Bytes(magic, sizeof(magic))) {
    return Status::InvalidArgument("not a bipie table file: " + path);
  }
  Result<Table> loaded = Status::Internal("unreachable");
  if (std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0) {
    loaded = LoadTableFramed(&r, options, 3);
  } else if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    loaded = LoadTableFramed(&r, options, 2);
  } else if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    if (options.strict) {
      return Status::NotSupported(
          "legacy v1 table file has no checksums (strict mode): " + path);
    }
    // Unverified legacy format: no checksums exist, so deep validation
    // below is the only line of defence.
    loaded = LoadTableV1(&r);
  } else if (std::memcmp(magic, kMagicPrefix, sizeof(kMagicPrefix)) == 0) {
    return Status::NotSupported(
        std::string("unsupported table format version '") + magic[7] +
        "': " + path);
  } else {
    return Status::InvalidArgument("not a bipie table file: " + path);
  }
  if (!loaded.ok()) return loaded.status();
  if (options.validate) {
    BIPIE_RETURN_NOT_OK(loaded.value().Validate());
  }
  // The finished table outlives the loading query: hand its footprint to
  // the process tracker so the query's tracker drains back to zero.
  loaded.value().MoveMemoryChargesTo(MemoryTracker::Process());
  return loaded;
}

}  // namespace

Status SaveTable(const Table& table, const std::string& path,
                 const SaveOptions& options) {
  BIPIE_TRACE_SPAN("io.save_table", "io");
  uint64_t bytes_written = 0;
  Status status = SaveTableImpl(table, path, options, &bytes_written);
  if (status.ok()) {
    Counters().tables_saved.Increment();
    Counters().bytes_written.Add(bytes_written);
  } else {
    Counters().save_errors.Increment();
  }
  return status;
}

Result<Table> LoadTable(const std::string& path, const LoadOptions& options) {
  BIPIE_TRACE_SPAN("io.load_table", "io");
  uint64_t bytes_read = 0;
  Result<Table> loaded = Status::Internal("unreachable");
  try {
    loaded = LoadTableImpl(path, options, &bytes_read);
  } catch (const std::bad_alloc&) {
    loaded = Status::ResourceExhausted("table load exceeded the memory limit");
  }
  if (loaded.ok()) {
    Counters().tables_loaded.Increment();
    Counters().bytes_read.Add(bytes_read);
  } else {
    Counters().load_errors.Increment();
  }
  return loaded;
}

}  // namespace bipie
