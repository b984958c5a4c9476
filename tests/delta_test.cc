#include "encoding/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"
#include "storage/column_builder.h"
#include "storage/encoded_column.h"

namespace bipie {
namespace {

TEST(ForEncodeTest, RoundTripUniform) {
  Rng rng(5);
  std::vector<int64_t> v(1000);
  for (auto& x : v) x = rng.NextInRange(-500, 500);
  auto enc = ForEncode(v.data(), v.size());
  std::vector<int64_t> out(v.size());
  ForDecode(enc, 0, v.size(), out.data());
  EXPECT_EQ(out, v);
}

TEST(ForEncodeTest, BitWidthMatchesSpread) {
  std::vector<int64_t> v = {100, 101, 102, 103};
  auto enc = ForEncode(v.data(), v.size());
  EXPECT_EQ(enc.base, 100);
  EXPECT_EQ(enc.bit_width, 2);  // spread 3
}

TEST(ForEncodeTest, ConstantColumnUsesOneBit) {
  std::vector<int64_t> v(64, -7);
  auto enc = ForEncode(v.data(), v.size());
  EXPECT_EQ(enc.base, -7);
  EXPECT_EQ(enc.bit_width, 1);
  std::vector<int64_t> out(64);
  ForDecode(enc, 0, 64, out.data());
  EXPECT_EQ(out, v);
}

TEST(ForEncodeTest, PartialDecode) {
  std::vector<int64_t> v;
  for (int64_t i = 0; i < 200; ++i) v.push_back(i * 3 - 100);
  auto enc = ForEncode(v.data(), v.size());
  std::vector<int64_t> out(10);
  ForDecode(enc, 50, 10, out.data());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], v[50 + i]);
}

TEST(ForEncodeTest, ExtremeRange) {
  std::vector<int64_t> v = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(), 0, -1, 1};
  auto enc = ForEncode(v.data(), v.size());
  EXPECT_EQ(enc.bit_width, 64);
  std::vector<int64_t> out(v.size());
  ForDecode(enc, 0, v.size(), out.data());
  EXPECT_EQ(out, v);
}

TEST(ForEncodeTest, Empty) {
  auto enc = ForEncode(nullptr, 0);
  EXPECT_EQ(enc.num_values, 0u);
}

TEST(DeltaEncodeTest, RoundTripMonotonic) {
  Rng rng(6);
  std::vector<int64_t> v;
  int64_t x = 1000000;
  for (int i = 0; i < 500; ++i) {
    v.push_back(x);
    x += static_cast<int64_t>(rng.NextBounded(10));
  }
  auto enc = DeltaEncode(v.data(), v.size());
  // Monotonic column with small steps packs very tightly.
  EXPECT_LE(enc.bit_width, 4);
  std::vector<int64_t> out(v.size());
  DeltaDecode(enc, out.data());
  EXPECT_EQ(out, v);
}

TEST(DeltaEncodeTest, RoundTripNonMonotonic) {
  Rng rng(8);
  std::vector<int64_t> v(300);
  for (auto& x : v) x = rng.NextInRange(-1000000, 1000000);
  auto enc = DeltaEncode(v.data(), v.size());
  std::vector<int64_t> out(v.size());
  DeltaDecode(enc, out.data());
  EXPECT_EQ(out, v);
}

TEST(DeltaEncodeTest, SingleValue) {
  int64_t v = -12345;
  auto enc = DeltaEncode(&v, 1);
  int64_t out = 0;
  DeltaDecode(enc, &out);
  EXPECT_EQ(out, v);
}

// A forced kDelta column whose deltas each fit int64 but whose spread
// dmax - dmin does not (here 2^64 - 1): decoding must still reproduce every
// value exactly, with no signed overflow on the way (UBSan-checked in the
// asan preset), across checkpoint blocks and for any window.
TEST(DeltaColumnTest, DeltaSpreadBeyondInt64DecodesExactly) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // Deltas: kMax, -kMax, kMin, kMax, 1, then the cycle repeats.
  const int64_t cycle[] = {0, kMax, 0, kMin, -1};
  std::vector<int64_t> v;
  for (size_t i = 0; i < 3 * kDeltaCheckpointRows + 7; ++i) {
    v.push_back(cycle[i % 5]);
  }
  ColumnBuilder b({"d", ColumnType::kInt64, EncodingChoice::kDelta});
  for (int64_t x : v) b.AppendInt64(x);
  const EncodedColumn col = b.Finish();
  ASSERT_EQ(col.encoding(), Encoding::kDelta);
  EXPECT_EQ(col.bit_width(), 64);

  std::vector<int64_t> out(v.size());
  col.DecodeInt64(0, v.size(), out.data());
  EXPECT_EQ(out, v);
  // Windows starting inside and exactly at checkpoint blocks.
  for (const size_t start :
       {size_t{1}, size_t{3}, kDeltaCheckpointRows - 1, kDeltaCheckpointRows,
        2 * kDeltaCheckpointRows + 5}) {
    const size_t n = std::min<size_t>(777, v.size() - start);
    std::vector<int64_t> window(n);
    col.DecodeInt64(start, n, window.data());
    EXPECT_TRUE(std::equal(window.begin(), window.end(), v.begin() + start))
        << "start " << start;
  }
  // A loaded file with such a column is still refused.
  EXPECT_EQ(col.Validate().code(), StatusCode::kDataLoss);

  // The standalone codec shares the roll-forward.
  const DeltaEncoded enc = DeltaEncode(v.data(), v.size());
  std::vector<int64_t> decoded(v.size());
  DeltaDecode(enc, decoded.data());
  EXPECT_EQ(decoded, v);
}

}  // namespace
}  // namespace bipie
