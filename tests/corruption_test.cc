// Golden-file corruption sweep: every single-byte flip and every truncation
// of a saved table must produce either a structured load error or a table
// that passed deep validation and can be scanned — never a crash, never
// undefined behaviour. This is the ISSUE's acceptance gate for the
// untrusted-data boundary; run it under ASan/UBSan to make "never a crash"
// mean something.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "core/scan.h"
#include "storage/table_io.h"

namespace bipie {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Small (a few KB on disk) but exercises every encoding, a string
// dictionary, two segments and a liveness mask. `scaled` adds two
// frame-of-reference columns whose offsets share a divisor ("grid"
// bit-packed at scale 25, "sliced" byte-sliced at scale 500); only the v3
// layout can store them.
Table MakeGoldenTable(bool scaled = false) {
  Schema schema = {{"flag", ColumnType::kString},
                   {"packed", ColumnType::kInt64, EncodingChoice::kBitPacked},
                   {"dict", ColumnType::kInt64, EncodingChoice::kDictionary},
                   {"runs", ColumnType::kInt64, EncodingChoice::kRle},
                   {"mono", ColumnType::kInt64, EncodingChoice::kDelta}};
  if (scaled) {
    schema.push_back({"grid", ColumnType::kInt64, EncodingChoice::kBitPacked});
    schema.push_back(
        {"sliced", ColumnType::kInt64, EncodingChoice::kByteSliced});
  }
  Table table(schema);
  TableAppender app(&table, 256);
  Rng rng(71);
  const char* flags[3] = {"A", "N", "R"};
  for (size_t i = 0; i < 400; ++i) {
    std::vector<int64_t> ints = {
        0, rng.NextInRange(-200, 200),
        1000 * static_cast<int64_t>(rng.NextBounded(5)),
        static_cast<int64_t>(i / 40),
        static_cast<int64_t>(i * 3) + rng.NextInRange(0, 2)};
    if (scaled) {
      ints.push_back(25 * rng.NextInRange(-8, 40));
      ints.push_back(-3000 + 500 * rng.NextInRange(0, 60));
    }
    app.AppendRow(ints, {flags[rng.NextBounded(3)]});
  }
  app.Flush();
  table.mutable_segment(0).DeleteRow(5);
  return table;
}

std::vector<uint8_t> SaveGolden(const Table& table, const std::string& path,
                                int format_version) {
  SaveOptions opts;
  opts.format_version = format_version;
  EXPECT_TRUE(SaveTable(table, path, opts).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteMutant(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

bool IsStructuredLoadError(const Status& st) {
  switch (st.code()) {
    case StatusCode::kDataLoss:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotSupported:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

// Loads the mutant at `path`; a mutant that still loads must be scannable
// end to end (deep validation already passed inside LoadTable).
void ExpectCleanOutcome(const std::string& path, const char* what,
                        size_t position) {
  auto loaded = LoadTable(path);
  if (!loaded.ok()) {
    EXPECT_TRUE(IsStructuredLoadError(loaded.status()))
        << what << " at byte " << position
        << " produced unexpected code: " << loaded.status().ToString();
    return;
  }
  QuerySpec query;
  query.group_by = {"flag"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("packed"),
                      AggregateSpec::Min("dict"), AggregateSpec::Max("runs")};
  query.filters.emplace_back("packed", CompareOp::kGe, int64_t{-50});
  // Scaled columns: off-grid literals on both frame-of-reference tiers.
  QuerySpec scaled;
  scaled.group_by = {"flag"};
  scaled.aggregates = {AggregateSpec::Sum("grid"), AggregateSpec::Max("grid"),
                       AggregateSpec::Min("sliced")};
  scaled.filters.emplace_back("grid", CompareOp::kGe, int64_t{13});
  scaled.filters.push_back(ColumnPredicate::Between("sliced", -2999, 20001));
  for (const QuerySpec* q : {&query, &scaled}) {
    if (q == &scaled && loaded.value().FindColumn("grid") < 0) continue;
    auto result = ExecuteQuery(loaded.value(), *q);
    // The scan may legitimately fail with a structured error (e.g. a
    // mutant that validly shrank a column's claimed range); it must not
    // crash.
    if (!result.ok()) {
      EXPECT_NE(result.status().code(), StatusCode::kInternal)
          << what << " at byte " << position << ": "
          << result.status().ToString();
    }
  }
}

void SweepByteFlips(const std::vector<uint8_t>& golden,
                    const std::string& path) {
  std::vector<uint8_t> mutant = golden;
  for (size_t i = 0; i < golden.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
      mutant[i] = golden[i] ^ flip;
      WriteMutant(path, mutant);
      ExpectCleanOutcome(path, "byte flip", i);
    }
    mutant[i] = golden[i];
  }
}

void SweepTruncations(const std::vector<uint8_t>& golden,
                      const std::string& path) {
  for (size_t len = 0; len < golden.size(); ++len) {
    WriteMutant(path,
                std::vector<uint8_t>(golden.begin(), golden.begin() + len));
    ExpectCleanOutcome(path, "truncation", len);
  }
}

TEST(CorruptionTest, V2ByteFlipSweep) {
  Table table = MakeGoldenTable();
  const std::string path = TempPath("sweep-v2-flip.bipie");
  SweepByteFlips(SaveGolden(table, path, 2), path);
  std::remove(path.c_str());
}

TEST(CorruptionTest, V2TruncationSweep) {
  Table table = MakeGoldenTable();
  const std::string path = TempPath("sweep-v2-trunc.bipie");
  SweepTruncations(SaveGolden(table, path, 2), path);
  std::remove(path.c_str());
}

TEST(CorruptionTest, V3ByteFlipSweep) {
  Table table = MakeGoldenTable(/*scaled=*/true);
  const std::string path = TempPath("sweep-v3-flip.bipie");
  SweepByteFlips(SaveGolden(table, path, 3), path);
  std::remove(path.c_str());
}

TEST(CorruptionTest, V3TruncationSweep) {
  Table table = MakeGoldenTable(/*scaled=*/true);
  const std::string path = TempPath("sweep-v3-trunc.bipie");
  SweepTruncations(SaveGolden(table, path, 3), path);
  std::remove(path.c_str());
}

// A checksum only proves the bytes are the ones written. A scale field
// that was written wrong — 0, or large enough that scale * offset passes
// meta.max — must still fail deep validation, so each mutant below gets a
// freshly recomputed block checksum.
TEST(CorruptionTest, ScaleFieldMutationsAreDataLoss) {
  Table table = MakeGoldenTable(/*scaled=*/true);
  const std::string path = TempPath("scale-field.bipie");
  const std::vector<uint8_t> golden = SaveGolden(table, path, 3);
  // Column block payload: u8 type, u8 encoding, i64 min, i64 max,
  // u64 num_rows, i64 base, then the u64 scale.
  constexpr size_t kScaleOffset = 2 + 8 + 8 + 8 + 8;
  auto block_len = [&](size_t pos) {
    uint64_t len = 0;
    std::memcpy(&len, golden.data() + pos, sizeof(len));
    return static_cast<size_t>(len);
  };
  size_t pos = 8;
  pos += 12 + block_len(pos);  // header block
  int mutants = 0;
  for (size_t s = 0; s < table.num_segments(); ++s) {
    pos += 12 + block_len(pos);  // segment block
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const size_t len = block_len(pos);
      const size_t payload = pos + 12;
      const EncodedColumn& col = table.segment(s).column(c);
      const bool frame_of_reference = col.encoding() == Encoding::kBitPacked ||
                                      col.encoding() == Encoding::kByteSliced;
      uint64_t stored = 0;
      std::memcpy(&stored, golden.data() + payload + kScaleOffset, 8);
      ASSERT_EQ(stored, col.scale()) << "segment " << s << " column " << c;
      std::vector<uint64_t> bad = {0, 2};
      if (frame_of_reference) bad = {0, 2 * col.scale(), col.scale() + 1};
      for (uint64_t scale : bad) {
        std::vector<uint8_t> mutant = golden;
        std::memcpy(mutant.data() + payload + kScaleOffset, &scale, 8);
        const uint32_t crc = Crc32c(mutant.data() + payload, len);
        std::memcpy(mutant.data() + pos + 8, &crc, sizeof(crc));
        WriteMutant(path, mutant);
        auto loaded = LoadTable(path);
        ASSERT_FALSE(loaded.ok()) << "segment " << s << " column " << c
                                  << " scale " << scale;
        EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
            << loaded.status().ToString();
        ++mutants;
      }
      pos = payload + len;
    }
  }
  EXPECT_EQ(pos, golden.size());
  EXPECT_GT(mutants, 20);
  std::remove(path.c_str());
}

// The v1 sweep is the harder one: with no checksums, *deep validation* is
// the only thing standing between a flipped byte and the kernels.
TEST(CorruptionTest, V1ByteFlipSweep) {
  Table table = MakeGoldenTable();
  const std::string path = TempPath("sweep-v1-flip.bipie");
  SweepByteFlips(SaveGolden(table, path, 1), path);
  std::remove(path.c_str());
}

TEST(CorruptionTest, V1TruncationSweep) {
  Table table = MakeGoldenTable();
  const std::string path = TempPath("sweep-v1-trunc.bipie");
  SweepTruncations(SaveGolden(table, path, 1), path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bipie
