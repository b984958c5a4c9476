#include "encoding/bitpack.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/aligned_buffer.h"
#include "common/bits.h"
#include "test_util.h"

namespace bipie {
namespace {

TEST(BitsTest, BitsRequired) {
  EXPECT_EQ(BitsRequired(0), 1);
  EXPECT_EQ(BitsRequired(1), 1);
  EXPECT_EQ(BitsRequired(2), 2);
  EXPECT_EQ(BitsRequired(255), 8);
  EXPECT_EQ(BitsRequired(256), 9);
  EXPECT_EQ(BitsRequired(~0ULL), 64);
}

TEST(BitsTest, SmallestWordBytes) {
  EXPECT_EQ(SmallestWordBytes(1), 1);
  EXPECT_EQ(SmallestWordBytes(8), 1);
  EXPECT_EQ(SmallestWordBytes(9), 2);
  EXPECT_EQ(SmallestWordBytes(16), 2);
  EXPECT_EQ(SmallestWordBytes(17), 4);
  EXPECT_EQ(SmallestWordBytes(32), 4);
  EXPECT_EQ(SmallestWordBytes(33), 8);
  EXPECT_EQ(SmallestWordBytes(64), 8);
}

TEST(BitsTest, LowBitsMask) {
  EXPECT_EQ(LowBitsMask(0), 0u);
  EXPECT_EQ(LowBitsMask(1), 1u);
  EXPECT_EQ(LowBitsMask(8), 0xFFu);
  EXPECT_EQ(LowBitsMask(64), ~0ULL);
}

TEST(BitPackTest, PackedBytesFormula) {
  EXPECT_EQ(BitPackedBytes(0, 5), 0u);
  EXPECT_EQ(BitPackedBytes(8, 1), 1u);
  EXPECT_EQ(BitPackedBytes(9, 1), 2u);
  EXPECT_EQ(BitPackedBytes(3, 7), 3u);  // 21 bits -> 3 bytes
  EXPECT_EQ(BitPackedBytes(1, 64), 8u);
}

TEST(BitPackTest, UnpackOneMatchesInput) {
  for (int w : {1, 3, 7, 8, 13, 25, 26, 31, 32, 33, 57, 58, 63, 64}) {
    auto values = test::RandomPackedValues(257, w, 1000 + w);
    auto packed = test::Pack(values, w);
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(BitUnpackOne(packed.data(), i, w), values[i])
          << "w=" << w << " i=" << i;
    }
  }
}

// Property sweep: pack -> unpack round-trips exactly for every bit width on
// every ISA tier, at the smallest word size.
class BitPackRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitPackRoundTrip, SmallestWord) {
  const int w = GetParam();
  const size_t n = 1000;  // not a multiple of any SIMD block size
  auto values = test::RandomPackedValues(n, w, 7 * w + 1);
  auto packed = test::Pack(values, w);
  const int word = SmallestWordBytes(w);
  test::ForEachIsaTier([&](IsaTier) {
    AlignedBuffer out(n * word);
    BitUnpack(packed.data(), 0, n, w, out.data());
    for (size_t i = 0; i < n; ++i) {
      uint64_t got = 0;
      std::memcpy(&got, out.data() + i * word, word);
      ASSERT_EQ(got, values[i]) << "w=" << w << " i=" << i;
    }
  });
}

TEST_P(BitPackRoundTrip, UnalignedStartOffsets) {
  const int w = GetParam();
  const size_t n = 300;
  auto values = test::RandomPackedValues(n, w, 31 * w + 5);
  auto packed = test::Pack(values, w);
  const int word = SmallestWordBytes(w);
  test::ForEachIsaTier([&](IsaTier) {
    for (size_t start : {1u, 3u, 7u, 8u, 9u, 63u}) {
      const size_t m = n - start;
      AlignedBuffer out(m * word);
      BitUnpack(packed.data(), start, m, w, out.data());
      for (size_t i = 0; i < m; ++i) {
        uint64_t got = 0;
        std::memcpy(&got, out.data() + i * word, word);
        ASSERT_EQ(got, values[start + i]) << "w=" << w << " start=" << start
                                          << " i=" << i;
      }
    }
  });
}

TEST_P(BitPackRoundTrip, WidenedWords) {
  const int w = GetParam();
  const size_t n = 500;
  auto values = test::RandomPackedValues(n, w, 13 * w);
  auto packed = test::Pack(values, w);
  test::ForEachIsaTier([&](IsaTier) {
    for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
      AlignedBuffer out(n * word);
      BitUnpackToWord(packed.data(), 0, n, w, out.data(), word);
      for (size_t i = 0; i < n; ++i) {
        uint64_t got = 0;
        std::memcpy(&got, out.data() + i * word, word);
        ASSERT_EQ(got, values[i]) << "w=" << w << " word=" << word;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, BitPackRoundTrip,
                         ::testing::Range(1, 65));

TEST(BitPackTest, MaximalValuesEveryWidth) {
  // All-ones values stress the mask/shift boundaries.
  for (int w = 1; w <= 64; ++w) {
    const size_t n = 100;
    std::vector<uint64_t> values(n, LowBitsMask(w));
    auto packed = test::Pack(values, w);
    AlignedBuffer out(n * 8);
    test::ForEachIsaTier([&](IsaTier) {
      BitUnpackToWord(packed.data(), 0, n, w, out.data(), 8);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out.data_as<uint64_t>()[i], LowBitsMask(w)) << "w=" << w;
      }
    });
  }
}

TEST(BitPackTest, EmptyInput) {
  AlignedBuffer packed(8);
  uint32_t sink = 0xABCD;
  BitUnpack(packed.data(), 0, 0, 17, &sink);
  EXPECT_EQ(sink, 0xABCDu);  // untouched
}

TEST(BitPackTest, SingleValue) {
  for (int w : {1, 12, 33, 64}) {
    std::vector<uint64_t> values = {LowBitsMask(w) - (w > 1 ? 1 : 0)};
    auto packed = test::Pack(values, w);
    uint64_t out = 0;
    BitUnpackToWord(packed.data(), 0, 1, w, &out, 8);
    EXPECT_EQ(out, values[0]);
  }
}

TEST(BitPackTest, AdjacentValuesDoNotBleed) {
  // Alternating zero / all-ones: any shift bug corrupts the zeros.
  for (int w : {3, 5, 7, 11, 13, 19, 23, 29, 31}) {
    const size_t n = 256;
    std::vector<uint64_t> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = (i % 2) ? LowBitsMask(w) : 0;
    auto packed = test::Pack(values, w);
    AlignedBuffer out(n * 4);
    test::ForEachIsaTier([&](IsaTier) {
      BitUnpackToWord(packed.data(), 0, n, w, out.data(), 4);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out.data_as<uint32_t>()[i], values[i]) << "w=" << w;
      }
    });
  }
}

// Shuffle kernels vs the scalar reference reader, at every tier: every
// width, every legal word, starts on and off byte boundaries (4099 puts
// the first value deep in the stream) and lengths that leave partial
// groups and scalar tails behind.
TEST(BitPackKernelSweep, MatchesUnpackOneEveryWidthWordStartLength) {
  const size_t kStarts[] = {0, 1, 7, 8, 9, 63, 4099};
  const size_t kLengths[] = {5, 37, 131, 1001};
  const size_t total = 4099 + 1001 + 3;
  for (int w = 1; w <= 64; ++w) {
    auto values = test::RandomPackedValues(total, w, 4242 + w);
    auto packed = test::Pack(values, w);
    test::ForEachIsaTier([&](IsaTier tier) {
      for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
        for (size_t start : kStarts) {
          for (size_t n : kLengths) {
            AlignedBuffer out(n * word);
            BitUnpackToWord(packed.data(), start, n, w, out.data(), word);
            for (size_t i = 0; i < n; ++i) {
              uint64_t got = 0;
              std::memcpy(&got, out.data() + i * word, word);
              ASSERT_EQ(got, BitUnpackOne(packed.data(), start + i, w))
                  << "tier=" << IsaTierName(tier) << " w=" << w
                  << " word=" << word << " start=" << start << " n=" << n
                  << " i=" << i;
            }
          }
        }
      }
    });
  }
}

// Fused range filter vs the scalar definition, both write modes, every
// width (qword windows included) and tier.
TEST(BitPackKernelSweep, SelectMatchesReferenceEveryWidth) {
  const size_t n = 1001;
  const size_t start = 9;
  for (int w = 1; w <= 64; ++w) {
    auto values = test::RandomPackedValues(start + n, w, 99 + w);
    auto packed = test::Pack(values, w);
    const uint64_t top = LowBitsMask(w);
    const PackedRange ranges[] = {
        {0, top / 2, false}, {top / 3, top / 3, false},
        {top / 3, top / 3, true}, {top / 4, top - top / 4, false},
        {0, top, true}, {top, top, false}};
    auto prior = test::RandomGroups(n, 2, 7 * w);  // 0/1 -> canonical below
    for (size_t i = 0; i < n; ++i) prior.data()[i] = prior.data()[i] ? 0xFF : 0;
    test::ForEachIsaTier([&](IsaTier tier) {
      for (const PackedRange& r : ranges) {
        for (bool and_into : {false, true}) {
          AlignedBuffer sel(n);
          std::memcpy(sel.data(), prior.data(), n);
          BitPackedSelect(packed.data(), start, n, w, r, and_into,
                          sel.data());
          for (size_t i = 0; i < n; ++i) {
            const uint64_t v = values[start + i];
            bool pass = (v >= r.lo && v <= r.hi) != r.negate;
            if (and_into) pass = pass && prior.data()[i] != 0;
            ASSERT_EQ(sel.data()[i], pass ? 0xFF : 0x00)
                << "tier=" << IsaTierName(tier) << " w=" << w << " lo="
                << r.lo << " hi=" << r.hi << " negate=" << r.negate
                << " and_into=" << and_into << " i=" << i;
          }
        }
      }
    });
  }
}

// The last value ends on the final packed byte of a buffer that carries
// exactly AlignedBuffer::kPaddingBytes of padding: 512 values of any width
// fill 64 * w bytes, a multiple of the allocation granule, so the
// allocation ends where the padding does and a sanitizer build flags any
// kernel load that reaches past it.
TEST(BitPackKernelSweep, LoadsStayInsidePadding) {
  const size_t n = 512;
  for (int w = 1; w <= 64; ++w) {
    auto values = test::RandomPackedValues(n, w, 777 + w);
    const size_t bytes = BitPackedBytes(n, w);
    ASSERT_EQ(bytes % AlignedBuffer::kAlignment, 0u);
    AlignedBuffer packed(bytes);
    BitPack(values.data(), n, w, packed.data());
    test::ForEachIsaTier([&](IsaTier tier) {
      for (size_t start : {size_t{0}, size_t{1}, size_t{9}, size_t{448},
                           size_t{511}}) {
        const size_t m = n - start;
        for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
          AlignedBuffer out(m * word);
          BitUnpackToWord(packed.data(), start, m, w, out.data(), word);
          uint64_t last = 0;
          std::memcpy(&last, out.data() + (m - 1) * word, word);
          ASSERT_EQ(last, values[n - 1])
              << "tier=" << IsaTierName(tier) << " w=" << w;
        }
        AlignedBuffer sel(m);
        BitPackedSelect(packed.data(), start, m, w, {0, LowBitsMask(w), false},
                        false, sel.data());
        ASSERT_EQ(sel.data()[m - 1], 0xFF) << "w=" << w;
      }
    });
  }
}

}  // namespace
}  // namespace bipie
