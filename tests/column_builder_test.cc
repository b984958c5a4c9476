#include "storage/column_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "tests/test_util.h"
#include "vector/gather_select.h"

namespace bipie {
namespace {

std::vector<int64_t> DecodeAll(const EncodedColumn& col) {
  std::vector<int64_t> out(col.num_rows());
  col.DecodeInt64(0, col.num_rows(), out.data());
  return out;
}

TEST(ColumnBuilderTest, BitPackedRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  std::vector<int64_t> v;
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) v.push_back(rng.NextInRange(-100, 1000));
  for (int64_t x : v) b.AppendInt64(x);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kBitPacked);
  EXPECT_EQ(col.base(), -100);
  EXPECT_EQ(col.meta().min, -100);
  EXPECT_EQ(col.meta().max, 1000);
  EXPECT_EQ(DecodeAll(col), v);
}

TEST(ColumnBuilderTest, DictionaryRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kDictionary});
  std::vector<int64_t> v;
  Rng rng(2);
  const int64_t domain[4] = {1000000, -7, 42, 0};
  for (int i = 0; i < 3000; ++i) v.push_back(domain[rng.NextBounded(4)]);
  for (int64_t x : v) b.AppendInt64(x);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDictionary);
  ASSERT_NE(col.int_dictionary(), nullptr);
  EXPECT_EQ(col.int_dictionary()->size(), 4u);
  EXPECT_EQ(col.id_bound(), 4u);
  EXPECT_EQ(col.bit_width(), 2);
  EXPECT_EQ(DecodeAll(col), v);
}

TEST(ColumnBuilderTest, RleRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kRle});
  std::vector<int64_t> v;
  for (int run = 0; run < 10; ++run) v.insert(v.end(), 100, run);
  for (int64_t x : v) b.AppendInt64(x);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kRle);
  EXPECT_EQ(col.runs().size(), 10u);
  EXPECT_EQ(DecodeAll(col), v);
}

TEST(ColumnBuilderTest, DeltaRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kDelta});
  std::vector<int64_t> v;
  Rng rng(41);
  int64_t x = -1000000;
  for (int i = 0; i < 20000; ++i) {
    v.push_back(x);
    x += rng.NextInRange(-3, 12);
  }
  for (int64_t value : v) b.AppendInt64(value);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDelta);
  EXPECT_LE(col.bit_width(), 5);  // delta spread 15 -> 4 bits
  // Checkpoints every 4096 rows.
  EXPECT_EQ(col.delta_checkpoints().size(), (v.size() + 4095) / 4096);
  EXPECT_EQ(DecodeAll(col), v);
  // Windowed decode from a mid-stream checkpoint and off-checkpoint start.
  for (size_t start : {size_t{0}, size_t{4096}, size_t{5000}, size_t{8191},
                       v.size() - 7}) {
    std::vector<int64_t> out(7);
    col.DecodeInt64(start, 7, out.data());
    for (size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(out[i], v[start + i]) << "start=" << start;
    }
  }
}

TEST(ColumnBuilderTest, DeltaSingleValueAndConstant) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kDelta});
  b.AppendInt64(42);
  EncodedColumn one = b.Finish();
  EXPECT_EQ(DecodeAll(one), std::vector<int64_t>{42});

  for (int i = 0; i < 100; ++i) b.AppendInt64(-7);
  EncodedColumn constant = b.Finish();
  EXPECT_EQ(DecodeAll(constant), std::vector<int64_t>(100, -7));
}

TEST(ColumnBuilderTest, AutoPicksDeltaForMonotonicSequences) {
  // Strictly increasing timestamps with small steps: FOR needs wide
  // offsets, runs are all length 1, dictionary is infeasible — delta wins.
  ColumnBuilder b({"ts", ColumnType::kInt64, EncodingChoice::kAuto});
  Rng rng(43);
  int64_t ts = 1600000000000;
  for (int i = 0; i < 100000; ++i) {
    b.AppendInt64(ts);
    ts += rng.NextInRange(1, 40);
  }
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDelta);
}

TEST(ColumnBuilderTest, AutoPicksRleForLongRuns) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kAuto});
  for (int run = 0; run < 3; ++run) {
    for (int i = 0; i < 10000; ++i) b.AppendInt64(run);
  }
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kRle);
}

TEST(ColumnBuilderTest, AutoPicksDictionaryForSparseDomain) {
  // Few distinct, widely spread values: dictionary ids (2 bits) beat
  // frame-of-reference offsets (~40 bits), and runs are short.
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kAuto});
  Rng rng(3);
  const int64_t domain[3] = {0, 1'000'000'000'000LL, -55};
  for (int i = 0; i < 20000; ++i) b.AppendInt64(domain[rng.NextBounded(3)]);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDictionary);
}

TEST(ColumnBuilderTest, AutoPicksBitPackedForDenseDomain) {
  // Dense small-range values: offsets are as narrow as dictionary ids would
  // be, without the dictionary overhead.
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kAuto});
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) b.AppendInt64(rng.NextInRange(0, 127));
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kBitPacked);
  EXPECT_EQ(col.bit_width(), 7);
}

TEST(ColumnBuilderTest, StringColumnsAlwaysDictionary) {
  ColumnBuilder b({"flag", ColumnType::kString});
  const char* flags[3] = {"A", "N", "R"};
  Rng rng(5);
  std::vector<uint32_t> expected_ids;
  StringDictionary reference;
  for (int i = 0; i < 1000; ++i) {
    const std::string s = flags[rng.NextBounded(3)];
    expected_ids.push_back(reference.GetOrInsert(s));
    b.AppendString(s);
  }
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDictionary);
  ASSERT_NE(col.string_dictionary(), nullptr);
  EXPECT_EQ(col.string_dictionary()->size(), 3u);
  auto ids = DecodeAll(col);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], expected_ids[i]);
  }
}

TEST(ColumnBuilderTest, UnpackIdsMatchesBitWidth) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  for (int i = 0; i < 100; ++i) b.AppendInt64(50 + i % 10);
  EncodedColumn col = b.Finish();
  std::vector<uint8_t> ids(100);
  col.UnpackIds(0, 100, ids.data(), 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ids[i], i % 10);  // offsets from base 50
  }
}

TEST(ColumnBuilderTest, EmptyColumn) {
  ColumnBuilder b({"c", ColumnType::kInt64});
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.num_rows(), 0u);
}

TEST(ColumnBuilderTest, BuilderResetsBetweenSegments) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  b.AppendInt64(1);
  b.AppendInt64(2);
  EncodedColumn first = b.Finish();
  EXPECT_EQ(first.num_rows(), 2u);
  b.AppendInt64(9);
  EncodedColumn second = b.Finish();
  EXPECT_EQ(second.num_rows(), 1u);
  EXPECT_EQ(DecodeAll(second), std::vector<int64_t>{9});
}

TEST(ColumnBuilderTest, BulkAppendMatchesRowAppend) {
  std::vector<int64_t> v = {5, 6, 7, 8, 9};
  ColumnBuilder bulk({"c", ColumnType::kInt64});
  bulk.AppendInt64Bulk(v.data(), v.size());
  ColumnBuilder rows({"c", ColumnType::kInt64});
  for (int64_t x : v) rows.AppendInt64(x);
  EXPECT_EQ(DecodeAll(bulk.Finish()), DecodeAll(rows.Finish()));
}

TEST(ColumnBuilderTest, CommonDivisorNarrowsFrameOfReference) {
  // Whole units stored as hundredths: 50 steps of 100 pack at 6 bits, not
  // the 13 the raw spread 4900 would take.
  for (EncodingChoice choice :
       {EncodingChoice::kBitPacked, EncodingChoice::kByteSliced}) {
    ColumnBuilder b({"c", ColumnType::kInt64, choice});
    std::vector<int64_t> v;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) v.push_back(100 * rng.NextInRange(1, 50));
    v[7] = 100;
    v[8] = 5000;
    for (int64_t x : v) b.AppendInt64(x);
    const EncodingAdvice advice =
        b.Advise(cost::CostModel(cost::BuiltinProfile()));
    EncodedColumn col = b.Finish();
    EXPECT_EQ(col.base(), 100);
    EXPECT_EQ(col.scale(), 100u);
    EXPECT_EQ(col.bit_width(), 6);
    EXPECT_EQ(col.id_bound(), 50u);
    EXPECT_EQ(advice.candidates[0].bit_width, 6);  // Finish and Advise agree
    EXPECT_TRUE(col.Validate().ok());
    EXPECT_EQ(DecodeAll(col), v);
  }
}

TEST(ColumnBuilderTest, ScaleIsOneWithoutACommonDivisor) {
  ColumnBuilder constant({"c", ColumnType::kInt64});
  for (int i = 0; i < 10; ++i) constant.AppendInt64(-40);
  EXPECT_EQ(constant.Finish().scale(), 1u);  // every offset is 0

  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  for (int64_t x : {10, 16, 25}) b.AppendInt64(x);  // offsets 6, 15
  EXPECT_EQ(b.Finish().scale(), 3u);
  for (int64_t x : {10, 16, 24}) b.AppendInt64(x);  // offsets 6, 14
  EXPECT_EQ(b.Finish().scale(), 2u);
  for (int64_t x : {10, 16, 23}) b.AppendInt64(x);  // offsets 6, 13
  EXPECT_EQ(b.Finish().scale(), 1u);
}

// A grid base + d * k, k in [0, max_k], for a drawn divisor d: random, a
// power of two or a power of ten, with spreads d * max_k up to 64 bits.
struct Grid {
  int64_t base = 0;
  uint64_t divisor = 1;
  uint64_t max_k = 0;
};

Grid DrawGrid(Rng& rng) {
  Grid g;
  switch (rng.NextBounded(3)) {
    case 0:
      g.divisor = 1 + rng.NextBounded(1000);
      break;
    case 1:
      g.divisor = uint64_t{1} << rng.NextBounded(63);
      break;
    default:
      for (uint64_t k = rng.NextBounded(19); k > 0; --k) g.divisor *= 10;
      break;
  }
  const int k_bits = static_cast<int>(rng.NextBounded(65));
  g.max_k = k_bits == 0 ? 0 : rng.Next() >> (64 - k_bits);
  g.max_k =
      std::min(g.max_k, std::numeric_limits<uint64_t>::max() / g.divisor);
  // Any base that keeps base + spread inside int64; small ones (often
  // negative) half of the time.
  const uint64_t room = std::numeric_limits<uint64_t>::max() -
                        g.divisor * g.max_k;  // bases that fit, minus one
  const uint64_t small = static_cast<uint64_t>(rng.NextInRange(-5000, 5000)) -
                         static_cast<uint64_t>(
                             std::numeric_limits<int64_t>::min());
  const uint64_t pick =
      rng.NextBernoulli(0.5) && small <= room
          ? small
          : (room == std::numeric_limits<uint64_t>::max()
                 ? rng.Next()
                 : rng.NextBounded(room + 1));
  g.base = static_cast<int64_t>(
      static_cast<uint64_t>(std::numeric_limits<int64_t>::min()) + pick);
  return g;
}

// Property: every read path of a frame-of-reference column — DecodeInt64,
// UnpackIds mapped through base + scale * id, and GatherSelect — returns
// the appended values, on unaligned windows, at every ISA tier. The oracle
// is the appended vector itself and a divisor computed here, not the
// decode the query engine and the hash-aggregation baseline share.
TEST(ColumnBuilderTest, ScaledFrameOfReferenceReadsBackAppendedValues) {
  Rng rng(20261017);
  for (int trial = 0; trial < 120; ++trial) {
    const Grid g = DrawGrid(rng);
    const size_t n = 1 + rng.NextBounded(3000);
    std::vector<int64_t> values(n);
    for (int64_t& v : values) {
      const uint64_t k = g.max_k == std::numeric_limits<uint64_t>::max()
                             ? rng.Next()
                             : rng.NextBounded(g.max_k + 1);
      v = static_cast<int64_t>(static_cast<uint64_t>(g.base) + g.divisor * k);
    }
    const int64_t min = *std::min_element(values.begin(), values.end());
    const int64_t max = *std::max_element(values.begin(), values.end());
    uint64_t divisor = 0;
    for (int64_t v : values) {
      divisor = std::gcd(divisor, static_cast<uint64_t>(v) -
                                      static_cast<uint64_t>(min));
    }
    if (divisor == 0) divisor = 1;
    ASSERT_TRUE(divisor % g.divisor == 0 || max == min);
    const uint64_t steps =
        (static_cast<uint64_t>(max) - static_cast<uint64_t>(min)) / divisor;

    for (EncodingChoice choice :
         {EncodingChoice::kBitPacked, EncodingChoice::kByteSliced}) {
      ColumnBuilder b({"c", ColumnType::kInt64, choice});
      b.AppendInt64Bulk(values.data(), n);
      const EncodedColumn col = b.Finish();
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << " divisor " << g.divisor
                   << " base " << g.base << " max_k " << g.max_k
                   << " encoding " << static_cast<int>(choice));
      ASSERT_EQ(col.scale(), divisor);
      ASSERT_EQ(col.base(), min);
      ASSERT_EQ(col.bit_width(), BitsRequired(steps));
      ASSERT_EQ(col.id_bound() - 1, steps);
      ASSERT_TRUE(col.Validate().ok());
      test::ForEachIsaTier([&](IsaTier tier) {
        SCOPED_TRACE(static_cast<int>(tier));
        for (int w = 0; w < 8; ++w) {
          const size_t start = rng.NextBounded(n);
          const size_t len = 1 + rng.NextBounded(n - start);
          std::vector<int64_t> decoded(len);
          col.DecodeInt64(start, len, decoded.data());
          ASSERT_TRUE(std::equal(decoded.begin(), decoded.end(),
                                 values.begin() + start))
              << "DecodeInt64 window " << start << "+" << len;
          std::vector<uint64_t> ids(len);
          col.UnpackIds(start, len, ids.data(), 8);
          for (size_t i = 0; i < len; ++i) {
            ASSERT_EQ(static_cast<int64_t>(static_cast<uint64_t>(min) +
                                           divisor * ids[i]),
                      values[start + i])
                << "UnpackIds row " << start + i;
          }
        }
        if (col.encoding() != Encoding::kBitPacked) return;
        std::vector<uint32_t> indices;
        for (size_t i = 0; i < n; ++i) {
          if (rng.NextBernoulli(0.3)) {
            indices.push_back(static_cast<uint32_t>(i));
          }
        }
        std::vector<uint64_t> gathered(indices.size() + 4);
        GatherSelect(col.packed_data(), col.bit_width(), indices.data(),
                     indices.size(), gathered.data(), 8);
        for (size_t i = 0; i < indices.size(); ++i) {
          ASSERT_EQ(static_cast<int64_t>(static_cast<uint64_t>(min) +
                                         divisor * gathered[i]),
                    values[indices[i]])
              << "GatherSelect row " << indices[i];
        }
      });
    }
  }
}

}  // namespace
}  // namespace bipie
