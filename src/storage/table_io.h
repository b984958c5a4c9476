// Columnstore persistence: save/load a table's encoded form.
//
// A real columnstore's immutable region lives on disk (§2.1: "disk-backed,
// column-oriented store"); this module provides that surface as a single
// self-describing file. Columns are written in their *encoded*
// representation — bit-packed streams, dictionaries, runs — so loading does
// no re-encoding, and a benchmark dataset generated once (e.g. TPC-H
// lineitem) can be reloaded instantly.
//
// The file is an untrusted-data boundary: the scan kernels trust bit
// widths, dictionary sizes and min/max metadata absolutely, so everything
// crossing this boundary is (a) bounded against the physical file size
// before any allocation, (b) checksum-verified (formats v2 and v3), and
// (c) run through the deep decode validation pass (Table::Validate) before
// the caller ever sees it. A corrupt, truncated or adversarial file yields
// a structured Status — kDataLoss for untrustworthy bytes — never a crash.
//
// Format v3 (little-endian), magic "BIPIETB3":
//   magic, then a sequence of framed blocks, each
//     u64 payload_length | u32 crc32c(payload) | payload
//   Block 0 (header): u32 num_columns, per column (string name, u8 type,
//     u8 encoding_choice), u32 num_segments.
//   Per segment: one segment block (u64 num_rows, u8 has_alive, alive
//     mask), then one block per column with the column's encoding,
//     metadata, frame-of-reference base and scale (u64, >= 1), packed
//     stream and auxiliary structures.
//
// Format v2, magic "BIPIETB2": v3 without the per-column scale field; its
// columns load with scale 1.
//
// Format v1, magic "BIPIETB1": the v2 content with no framing and no
// checksums. v1 files still load (the "unverified legacy format"
// path — deep validation is their only line of defence) unless
// LoadOptions::strict demands a verifiable format. Unknown future versions
// fail with kNotSupported.
#ifndef BIPIE_STORAGE_TABLE_IO_H_
#define BIPIE_STORAGE_TABLE_IO_H_

#include <string>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "storage/table.h"

namespace bipie {

struct SaveOptions {
  // 3 (default) writes the checksummed BIPIETB3 format; 2 and 1 write the
  // legacy BIPIETB2 and unchecksummed BIPIETB1 layouts (back-compat tests,
  // downgrade escape). The legacy layouts have no scale field, so saving a
  // table with a scaled frame-of-reference column as v1/v2 is kNotSupported.
  int format_version = 3;
};

struct LoadOptions {
  // Verify the CRC32C of every v2/v3 block before decoding it. Skipping makes
  // loading a trusted file cost the same as v1 (the frame fields are a few
  // bytes per block); deep validation below still runs.
  bool verify_checksums = true;
  // Run Table::Validate() on the decoded table — the deep pass that makes
  // the kernels' trusted invariants actually hold. Only disable for files
  // produced and kept inside the same process.
  bool validate = true;
  // Refuse formats that cannot be checksum-verified (v1 legacy files load
  // as kNotSupported instead of silently skipping verification).
  bool strict = false;
  // Memory governance for the load (nullable). The tracker is bound for
  // the whole load, so read-buffer allocations count against its limits
  // and an overcommitting load fails with kResourceExhausted instead of
  // OOMing. On success the finished table's buffers are re-homed to the
  // process root — a loaded table is shared state that outlives the
  // loading query (DESIGN.md §13).
  MemoryTracker* memory_tracker = nullptr;
};

Status SaveTable(const Table& table, const std::string& path,
                 const SaveOptions& options = {});

Result<Table> LoadTable(const std::string& path,
                        const LoadOptions& options = {});

}  // namespace bipie

#endif  // BIPIE_STORAGE_TABLE_IO_H_
