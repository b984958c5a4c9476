// Checksummed table formats v2 and v3: round-trip, checksum detection,
// the v3 per-column scale, legacy v2/v1 compatibility, LoadOptions knobs,
// and version negotiation.
#include "storage/table_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/scan.h"

namespace bipie {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Table MakeRichTable(size_t rows, uint64_t seed) {
  Table table({{"flag", ColumnType::kString},
               {"packed", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"dict", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"runs", ColumnType::kInt64, EncodingChoice::kRle},
               {"mono", ColumnType::kInt64, EncodingChoice::kDelta}});
  TableAppender app(&table, 2048);
  Rng rng(seed);
  const char* flags[3] = {"A", "N", "R"};
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({0, rng.NextInRange(-200, 200),
                   1000 * static_cast<int64_t>(rng.NextBounded(5)),
                   static_cast<int64_t>(i / 100),
                   static_cast<int64_t>(i * 3) + rng.NextInRange(0, 2)},
                  {flags[rng.NextBounded(3)], "", "", "", ""});
  }
  app.Flush();
  return table;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(TableIoV2Test, DefaultSaveWritesV3Magic) {
  Table table = MakeRichTable(500, 3);
  const std::string path = TempPath("v3-magic.bipie");
  ASSERT_TRUE(SaveTable(table, path).ok());
  const std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::memcmp(bytes.data(), "BIPIETB3", 8), 0);
  std::remove(path.c_str());
}

// Frame-of-reference columns on a grid: v = base + scale * offset with a
// negative base, bit-packed and byte-sliced.
Table MakeScaledTable(size_t rows, uint64_t seed) {
  Table table({{"qty", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"price", ColumnType::kInt64, EncodingChoice::kByteSliced},
               {"plain", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 2048);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({100 * rng.NextInRange(1, 50),
                   -7000 + 1000 * rng.NextInRange(0, 300),
                   rng.NextInRange(-9, 9)});
  }
  app.Flush();
  return table;
}

TEST(TableIoV2Test, V3RoundTripPreservesScale) {
  Table original = MakeScaledTable(5000, 8);
  ASSERT_EQ(original.segment(0).column(0).scale(), 100u);
  ASSERT_EQ(original.segment(0).column(1).scale(), 1000u);
  ASSERT_EQ(original.segment(0).column(2).scale(), 1u);
  const std::string path = TempPath("v3-roundtrip.bipie");
  ASSERT_TRUE(SaveTable(original, path).ok());
  auto loaded = LoadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& t = loaded.value();
  ASSERT_EQ(t.num_segments(), original.num_segments());
  for (size_t s = 0; s < t.num_segments(); ++s) {
    const size_t n = t.segment(s).num_rows();
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const EncodedColumn& a = original.segment(s).column(c);
      const EncodedColumn& b = t.segment(s).column(c);
      EXPECT_EQ(a.scale(), b.scale());
      EXPECT_EQ(a.base(), b.base());
      EXPECT_EQ(a.bit_width(), b.bit_width());
      std::vector<int64_t> va(n), vb(n);
      a.DecodeInt64(0, n, va.data());
      b.DecodeInt64(0, n, vb.data());
      ASSERT_EQ(va, vb) << "segment " << s << " column " << c;
    }
  }
  std::remove(path.c_str());
}

TEST(TableIoV2Test, V2FilesLoadWithScaleOne) {
  Table original = MakeRichTable(3000, 12);
  const std::string path = TempPath("v2-compat.bipie");
  SaveOptions v2;
  v2.format_version = 2;
  ASSERT_TRUE(SaveTable(original, path, v2).ok());
  const std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::memcmp(bytes.data(), "BIPIETB2", 8), 0);
  LoadOptions strict;
  strict.strict = true;  // v2 is checksummed: strict mode accepts it
  auto loaded = LoadTable(path, strict);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& t = loaded.value();
  for (size_t s = 0; s < t.num_segments(); ++s) {
    const size_t n = t.segment(s).num_rows();
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(t.segment(s).column(c).scale(), 1u);
      std::vector<int64_t> a(n), b(n);
      original.segment(s).column(c).DecodeInt64(0, n, a.data());
      t.segment(s).column(c).DecodeInt64(0, n, b.data());
      ASSERT_EQ(a, b) << "segment " << s << " column " << c;
    }
  }
  std::remove(path.c_str());
}

TEST(TableIoV2Test, LegacyFormatsRefuseScaledColumns) {
  Table table = MakeScaledTable(300, 4);
  for (int version : {1, 2}) {
    SaveOptions legacy;
    legacy.format_version = version;
    EXPECT_EQ(SaveTable(table, TempPath("legacy-scaled.bipie"), legacy).code(),
              StatusCode::kNotSupported)
        << "v" << version;
  }
}

TEST(TableIoV2Test, RoundTripPreservesEverything) {
  Table original = MakeRichTable(5000, 17);
  original.mutable_segment(0).DeleteRow(7);
  original.mutable_segment(1).DeleteRow(100);
  const std::string path = TempPath("v2-roundtrip.bipie");
  ASSERT_TRUE(SaveTable(original, path).ok());

  auto loaded = LoadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Table& t = loaded.value();
  EXPECT_EQ(t.num_rows(), original.num_rows());
  EXPECT_EQ(t.num_segments(), original.num_segments());
  EXPECT_EQ(t.segment(0).num_deleted(), 1u);
  EXPECT_EQ(t.segment(0).alive_bytes()[7], 0x00);
  for (size_t s = 0; s < t.num_segments(); ++s) {
    const size_t n = t.segment(s).num_rows();
    for (size_t c = 0; c < t.num_columns(); ++c) {
      std::vector<int64_t> a(n), b(n);
      original.segment(s).column(c).DecodeInt64(0, n, a.data());
      t.segment(s).column(c).DecodeInt64(0, n, b.data());
      ASSERT_EQ(a, b) << "segment " << s << " column " << c;
    }
  }
  std::remove(path.c_str());
}

TEST(TableIoV2Test, ChecksumDetectsPayloadFlip) {
  Table table = MakeRichTable(2000, 5);
  const std::string path = TempPath("v2-flip.bipie");
  ASSERT_TRUE(SaveTable(table, path).ok());
  std::vector<uint8_t> bytes = ReadFile(path);
  // Flip one byte well inside the packed data of some column block.
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFile(path, bytes);
  auto loaded = LoadTable(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(TableIoV2Test, VerifyChecksumsOffSkipsCrcButNotValidation) {
  Table table = MakeRichTable(2000, 5);
  const std::string path = TempPath("v2-crcfield.bipie");
  ASSERT_TRUE(SaveTable(table, path).ok());
  std::vector<uint8_t> bytes = ReadFile(path);
  // Corrupt the stored *checksum field* of the header block (offset 8 is
  // the u64 length, offset 16 the u32 crc32c): the payload itself is
  // intact, so only checksum verification can object.
  bytes[16] ^= 0xFF;
  WriteFile(path, bytes);

  auto strict = LoadTable(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  LoadOptions no_verify;
  no_verify.verify_checksums = false;
  auto lax = LoadTable(path, no_verify);
  ASSERT_TRUE(lax.ok()) << lax.status().ToString();
  EXPECT_EQ(lax.value().num_rows(), table.num_rows());
  // Deep validation still ran (and passed) on the intact payloads.
  EXPECT_TRUE(lax.value().Validate().ok());
  std::remove(path.c_str());
}

TEST(TableIoV2Test, V1FilesStillLoad) {
  Table original = MakeRichTable(3000, 9);
  const std::string path = TempPath("v1-compat.bipie");
  SaveOptions v1;
  v1.format_version = 1;
  ASSERT_TRUE(SaveTable(original, path, v1).ok());
  const std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(std::memcmp(bytes.data(), "BIPIETB1", 8), 0);

  auto loaded = LoadTable(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_rows(), original.num_rows());

  // Queries agree across the format downgrade.
  QuerySpec query;
  query.group_by = {"flag"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("packed")};
  auto before = ExecuteQuery(original, query);
  auto after = ExecuteQuery(loaded.value(), query);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before.value().rows.size(), after.value().rows.size());
  std::remove(path.c_str());
}

TEST(TableIoV2Test, StrictModeRefusesV1) {
  Table table = MakeRichTable(500, 21);
  const std::string path = TempPath("v1-strict.bipie");
  SaveOptions v1;
  v1.format_version = 1;
  ASSERT_TRUE(SaveTable(table, path, v1).ok());
  LoadOptions strict;
  strict.strict = true;
  auto loaded = LoadTable(path, strict);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotSupported);
  // The same options accept a v2 file.
  ASSERT_TRUE(SaveTable(table, path).ok());
  EXPECT_TRUE(LoadTable(path, strict).ok());
  std::remove(path.c_str());
}

TEST(TableIoV2Test, UnknownFutureVersionIsNotSupported) {
  const std::string path = TempPath("v9.bipie");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("BIPIETB9-then-arbitrary-bytes", 1, 29, f);
  std::fclose(f);
  auto loaded = LoadTable(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotSupported);
  std::remove(path.c_str());
}

TEST(TableIoV2Test, UnknownSaveVersionIsNotSupported) {
  Table table = MakeRichTable(100, 1);
  for (int version : {0, 4}) {
    SaveOptions bad;
    bad.format_version = version;
    EXPECT_EQ(SaveTable(table, TempPath("v4.bipie"), bad).code(),
              StatusCode::kNotSupported);
  }
}

TEST(TableIoV2Test, StandaloneValidatePassesOnBuiltTables) {
  Table table = MakeRichTable(4000, 33);
  table.mutable_segment(0).DeleteRow(3);
  EXPECT_TRUE(table.Validate().ok());
  for (size_t s = 0; s < table.num_segments(); ++s) {
    EXPECT_TRUE(table.segment(s).Validate().ok());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_TRUE(table.segment(s).column(c).Validate().ok());
    }
  }
}

TEST(TableIoV2Test, TruncatedV2IsStructuredError) {
  Table table = MakeRichTable(1000, 15);
  const std::string path = TempPath("v2-trunc.bipie");
  ASSERT_TRUE(SaveTable(table, path).ok());
  std::vector<uint8_t> bytes = ReadFile(path);
  bytes.resize(bytes.size() / 3);
  WriteFile(path, bytes);
  auto loaded = LoadTable(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bipie
