#include "vector/agg_multi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.h"

namespace bipie {
namespace {

// A test harness holding decoded input arrays of mixed widths.
struct MultiAggFixture {
  std::vector<uint8_t> groups;
  std::vector<AlignedBuffer> arrays;
  std::vector<const void*> ptrs;
  std::vector<MultiAggregator::ColumnDesc> descs;
  int num_groups;

  // widths[c]: 4 => uint32 (< 2^16), 8 => int64 (signed).
  MultiAggFixture(size_t n, int num_groups_in, std::vector<int> widths,
                  uint64_t seed)
      : num_groups(num_groups_in) {
    Rng rng(seed);
    groups.resize(n);
    for (auto& g : groups) {
      g = static_cast<uint8_t>(rng.NextBounded(num_groups));
    }
    for (int w : widths) {
      AlignedBuffer buf(n * w);
      if (w == 4) {
        for (size_t i = 0; i < n; ++i) {
          buf.data_as<uint32_t>()[i] =
              static_cast<uint32_t>(rng.NextBounded(1 << 16));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          buf.data_as<int64_t>()[i] = rng.NextInRange(-1000000, 1000000);
        }
      }
      arrays.push_back(std::move(buf));
      descs.push_back({w});
    }
    for (auto& a : arrays) ptrs.push_back(a.data());
  }

  std::vector<int64_t> ReferenceSums() const {
    std::vector<int64_t> sums(num_groups * descs.size(), 0);
    for (size_t i = 0; i < groups.size(); ++i) {
      for (size_t c = 0; c < descs.size(); ++c) {
        const int64_t v =
            descs[c].input_bytes == 8
                ? arrays[c].data_as<int64_t>()[i]
                : static_cast<int64_t>(arrays[c].data_as<uint32_t>()[i]);
        sums[groups[i] * descs.size() + c] += v;
      }
    }
    return sums;
  }
};

// The size combinations of the paper's Table 4, mapped to expanded widths
// (1-2 byte inputs -> 4-byte arrays, 4-8 byte inputs -> 8-byte arrays).
class MultiAggLayouts
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(MultiAggLayouts, MatchesReference) {
  MultiAggFixture f(5003, 32, GetParam(), 17);
  test::ForEachIsaTier([&](IsaTier tier) {
    MultiAggregator agg;
    ASSERT_TRUE(agg.Configure(f.descs, f.num_groups).ok());
    agg.Process(f.groups.data(), f.ptrs.data(), f.groups.size());
    std::vector<int64_t> sums(f.num_groups * f.descs.size(), 0);
    agg.Flush(sums.data());
    ASSERT_EQ(sums, f.ReferenceSums()) << "tier=" << IsaTierName(tier);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Table4Layouts, MultiAggLayouts,
    ::testing::Values(std::vector<int>{8, 4},           // 8-2
                      std::vector<int>{8, 8, 4},        // 8-4-1
                      std::vector<int>{8, 8, 8, 4},     // 8-8-4-2
                      std::vector<int>{8, 8, 8, 4, 4},  // 8-4-4-2-2
                      std::vector<int>{8, 8, 4, 4, 4},  // 4-4-2-2-2
                      std::vector<int>{8},              // single 64-bit
                      std::vector<int>{4},              // single 32-bit
                      std::vector<int>{4, 4},
                      std::vector<int>{4, 4, 4},
                      std::vector<int>{4, 4, 4, 4, 4, 4, 4},  // 7 narrow
                      std::vector<int>{8, 8, 8, 8}));

TEST(MultiAggregatorTest, RejectsOversizedRow) {
  MultiAggregator agg;
  // Five 64-bit slots do not fit a 256-bit register.
  std::vector<MultiAggregator::ColumnDesc> cols(5, {8});
  EXPECT_EQ(agg.Configure(cols, 8).code(), StatusCode::kNotSupported);
}

TEST(MultiAggregatorTest, RejectsEmptyColumnsAndBadGroups) {
  MultiAggregator agg;
  EXPECT_FALSE(agg.Configure({}, 8).ok());
  EXPECT_FALSE(agg.Configure({{8}}, 0).ok());
  EXPECT_FALSE(agg.Configure({{8}}, 257).ok());
  EXPECT_FALSE(agg.Configure({{3}}, 8).ok());
}

TEST(MultiAggregatorTest, PackedRowBytesReflectsPairing) {
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure({{8}, {4}, {4}, {4}}, 4).ok());
  // One qword slot + two pairs (one padded) = 24 bytes.
  EXPECT_EQ(agg.packed_row_bytes(), 24);
}

TEST(MultiAggregatorTest, DrainCadenceSurvivesLongStreams) {
  // > 65536 rows with maximal narrow values: the 32-bit lanes must drain
  // before wrapping.
  const size_t n = 70000;
  MultiAggFixture f(n, 3, {4, 4}, 23);
  for (size_t i = 0; i < n; ++i) {
    f.arrays[0].data_as<uint32_t>()[i] = 0xFFFF;
    f.arrays[1].data_as<uint32_t>()[i] = 0xFFFF;
  }
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 3).ok());
  agg.Process(f.groups.data(), f.ptrs.data(), n);
  std::vector<int64_t> sums(3 * 2, 0);
  agg.Flush(sums.data());
  EXPECT_EQ(sums, f.ReferenceSums());
}

TEST(MultiAggregatorTest, CopiesOnlyForFewGroups) {
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure({{8}, {4}}, MultiAggregator::kCopyGroups).ok());
  EXPECT_EQ(agg.copies(), MultiAggregator::kCopies);
  ASSERT_TRUE(
      agg.Configure({{8}, {4}}, MultiAggregator::kCopyGroups + 1).ok());
  EXPECT_EQ(agg.copies(), 1);
}

TEST(MultiAggregatorTest, CopiesKeepHalvesApartOverLongSkewedStreams) {
  // Few groups turn the accumulator copies on. Group 0 gets ~99% of
  // 9 x 65536 rows of paired maximal narrow values: more than 65536 rows
  // per copy, so only the drain cadence keeps each 32-bit half from
  // carrying into its neighbor, and the total per group passes 2^32.
  const size_t n = 9 * 65536 + 1001;
  MultiAggFixture f(n, 4, {8, 4, 4}, 41);
  for (size_t i = 0; i < n; ++i) {
    f.groups[i] = i % 97 == 0 ? static_cast<uint8_t>(1 + i % 3) : 0;
    f.arrays[1].data_as<uint32_t>()[i] = 0xFFFF;
    f.arrays[2].data_as<uint32_t>()[i] = 0xFFFF;
  }
  const std::vector<int64_t> expected = f.ReferenceSums();
  ASSERT_GT(expected[1], int64_t{1} << 32);
  test::ForEachIsaTier([&](IsaTier tier) {
    MultiAggregator agg;
    ASSERT_TRUE(agg.Configure(f.descs, 4).ok());
    EXPECT_EQ(agg.copies(), MultiAggregator::kCopies);
    // Uneven calls: copy assignment restarts per call and drains straddle
    // call boundaries.
    size_t done = 0;
    for (const size_t len : {size_t{70001}, size_t{3}, size_t{200002}, n}) {
      const size_t m = std::min(len, n - done);
      std::vector<const void*> ptrs;
      for (size_t c = 0; c < f.arrays.size(); ++c) {
        ptrs.push_back(f.arrays[c].data() + done * f.descs[c].input_bytes);
      }
      agg.Process(f.groups.data() + done, ptrs.data(), m);
      done += m;
    }
    ASSERT_EQ(done, n);
    std::vector<int64_t> sums(4 * 3, 0);
    agg.Flush(sums.data());
    EXPECT_EQ(sums, expected) << "tier=" << IsaTierName(tier);
  });
}

TEST(MultiAggregatorTest, MultipleProcessCallsAccumulate) {
  MultiAggFixture f(1000, 8, {8, 4}, 29);
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 8).ok());
  // Feed in three unevenly sized chunks, including a misaligned split.
  const void* ptrs_mid[2];
  const void* ptrs_last[2];
  ptrs_mid[0] = f.arrays[0].data_as<int64_t>() + 333;
  ptrs_mid[1] = f.arrays[1].data_as<uint32_t>() + 333;
  ptrs_last[0] = f.arrays[0].data_as<int64_t>() + 998;
  ptrs_last[1] = f.arrays[1].data_as<uint32_t>() + 998;
  agg.Process(f.groups.data(), f.ptrs.data(), 333);
  agg.Process(f.groups.data() + 333, ptrs_mid, 665);
  agg.Process(f.groups.data() + 998, ptrs_last, 2);
  std::vector<int64_t> sums(8 * 2, 0);
  agg.Flush(sums.data());
  EXPECT_EQ(sums, f.ReferenceSums());
}

TEST(MultiAggregatorTest, FlushResetsState) {
  MultiAggFixture f(500, 4, {8}, 31);
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 4).ok());
  agg.Process(f.groups.data(), f.ptrs.data(), 500);
  std::vector<int64_t> first(4, 0), second(4, 0);
  agg.Flush(first.data());
  agg.Flush(second.data());
  EXPECT_EQ(first, f.ReferenceSums());
  EXPECT_EQ(second, std::vector<int64_t>(4, 0));
}

TEST(MultiAggregatorTest, MaxGroups256) {
  MultiAggFixture f(10000, 256, {8, 4}, 37);
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 256).ok());
  agg.Process(f.groups.data(), f.ptrs.data(), f.groups.size());
  std::vector<int64_t> sums(256 * 2, 0);
  agg.Flush(sums.data());
  EXPECT_EQ(sums, f.ReferenceSums());
}

}  // namespace
}  // namespace bipie
