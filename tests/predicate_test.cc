#include "expr/predicate.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/column_builder.h"
#include "test_util.h"

namespace bipie {
namespace {

const CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

TEST(CompareInt64Test, AllOps) {
  EXPECT_TRUE(CompareInt64(5, CompareOp::kEq, 5));
  EXPECT_FALSE(CompareInt64(5, CompareOp::kEq, 6));
  EXPECT_TRUE(CompareInt64(5, CompareOp::kNe, 6));
  EXPECT_TRUE(CompareInt64(-5, CompareOp::kLt, 0));
  EXPECT_TRUE(CompareInt64(5, CompareOp::kLe, 5));
  EXPECT_TRUE(CompareInt64(7, CompareOp::kGt, 5));
  EXPECT_TRUE(CompareInt64(5, CompareOp::kGe, 5));
  EXPECT_FALSE(CompareInt64(4, CompareOp::kGe, 5));
}

// The decode-then-compare kernel over unpacked words: every word width,
// plain and negated ranges (the <> form), degenerate and full ranges.
class SelectWordsSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SelectWordsSweep, MatchesScalarSemantics) {
  const int word = std::get<0>(GetParam());
  const bool negate = std::get<1>(GetParam());
  const size_t n = 1037;
  AlignedBuffer values(n * word);
  Rng rng(word * 100 + negate);
  const uint64_t domain = word == 8 ? 1000 : (1ULL << (word * 8));
  std::vector<uint64_t> raw(n);
  for (size_t i = 0; i < n; ++i) {
    raw[i] = rng.NextBounded(domain);
    std::memcpy(values.data() + i * word, &raw[i], word);
  }
  const uint64_t lit = rng.NextBounded(domain);
  const uint64_t other = rng.NextBounded(domain);
  const PackedRange ranges[] = {{lit, lit, negate},
                                {0, lit, negate},
                                {lit, domain - 1, negate},
                                {std::min(lit, other), std::max(lit, other),
                                 negate},
                                {0, domain - 1, negate}};
  for (const PackedRange& r : ranges) {
    test::ForEachIsaTier([&](IsaTier tier) {
      AlignedBuffer sel(n);
      internal::SelectWordsInRange(values.data(), n, word, r, sel.data());
      for (size_t i = 0; i < n; ++i) {
        const bool expected = (raw[i] >= r.lo && raw[i] <= r.hi) != negate;
        ASSERT_EQ(sel.data()[i], expected ? 0xFF : 0x00)
            << "word=" << word << " lo=" << r.lo << " hi=" << r.hi
            << " i=" << i << " tier=" << IsaTierName(tier);
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(WordsAndNegation, SelectWordsSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

EncodedColumn MakeColumn(EncodingChoice choice, const std::vector<int64_t>& v) {
  ColumnBuilder b({"c", ColumnType::kInt64, choice});
  for (int64_t x : v) b.AppendInt64(x);
  return b.Finish();
}

class PredicateEncodings : public ::testing::TestWithParam<EncodingChoice> {};

TEST_P(PredicateEncodings, MatchesRowByRowEvaluation) {
  Rng rng(55);
  std::vector<int64_t> v(3000);
  for (auto& x : v) x = rng.NextInRange(-50, 50);
  EncodedColumn col = MakeColumn(GetParam(), v);
  for (CompareOp op : kAllOps) {
    for (int64_t literal : {-100, -50, -1, 0, 13, 50, 99}) {
      ColumnPredicate pred("c", op, literal);
      test::ForEachIsaTier([&](IsaTier) {
        AlignedBuffer sel(v.size());
        ASSERT_TRUE(pred.Evaluate(col, 0, v.size(), sel.data()).ok());
        for (size_t i = 0; i < v.size(); ++i) {
          ASSERT_EQ(sel.data()[i] != 0, CompareInt64(v[i], op, literal))
              << "op=" << static_cast<int>(op) << " lit=" << literal
              << " i=" << i;
        }
      });
    }
  }
}

TEST_P(PredicateEncodings, WindowedEvaluation) {
  std::vector<int64_t> v(500);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i % 10);
  EncodedColumn col = MakeColumn(GetParam(), v);
  ColumnPredicate pred("c", CompareOp::kLt, 5);
  AlignedBuffer sel(100);
  ASSERT_TRUE(pred.Evaluate(col, 250, 100, sel.data()).ok());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sel.data()[i] != 0, v[250 + i] < 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, PredicateEncodings,
                         ::testing::Values(EncodingChoice::kBitPacked,
                                           EncodingChoice::kDictionary,
                                           EncodingChoice::kRle));

TEST_P(PredicateEncodings, BetweenMatchesRowByRow) {
  Rng rng(77);
  std::vector<int64_t> v(2500);
  for (auto& x : v) x = rng.NextInRange(-50, 50);
  EncodedColumn col = MakeColumn(GetParam(), v);
  const std::pair<int64_t, int64_t> ranges[] = {
      {-10, 10}, {-100, 100}, {40, 60}, {-60, -51}, {7, 7}, {5, -5}};
  for (const auto& [lo, hi] : ranges) {
    ColumnPredicate pred = ColumnPredicate::Between("c", lo, hi);
    test::ForEachIsaTier([&](IsaTier) {
      AlignedBuffer sel(v.size());
      ASSERT_TRUE(pred.Evaluate(col, 0, v.size(), sel.data()).ok());
      for (size_t i = 0; i < v.size(); ++i) {
        ASSERT_EQ(sel.data()[i] != 0, v[i] >= lo && v[i] <= hi)
            << "lo=" << lo << " hi=" << hi << " i=" << i;
      }
    });
  }
}

TEST(PredicateTest, BetweenSegmentElimination) {
  std::vector<int64_t> v;
  for (int64_t i = 100; i < 200; ++i) v.push_back(i);
  EncodedColumn col = MakeColumn(EncodingChoice::kBitPacked, v);
  EXPECT_TRUE(
      ColumnPredicate::Between("c", 0, 99).EliminatesSegment(col));
  EXPECT_TRUE(
      ColumnPredicate::Between("c", 200, 300).EliminatesSegment(col));
  EXPECT_FALSE(
      ColumnPredicate::Between("c", 150, 160).EliminatesSegment(col));
  EXPECT_TRUE(ColumnPredicate::Between("c", 160, 150).EliminatesSegment(col));
}

TEST(PredicateTest, StringDictionaryEquality) {
  ColumnBuilder b({"flag", ColumnType::kString});
  const char* flags[3] = {"A", "N", "R"};
  std::vector<int> raw;
  Rng rng(66);
  for (int i = 0; i < 1000; ++i) {
    const int f = static_cast<int>(rng.NextBounded(3));
    raw.push_back(f);
    b.AppendString(flags[f]);
  }
  EncodedColumn col = b.Finish();
  ColumnPredicate pred("flag", CompareOp::kEq, std::string("N"));
  AlignedBuffer sel(1000);
  ASSERT_TRUE(pred.Evaluate(col, 0, 1000, sel.data()).ok());
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(sel.data()[i] != 0, std::string(flags[raw[i]]) == "N");
  }
}

TEST(PredicateTest, SegmentElimination) {
  std::vector<int64_t> v;
  for (int64_t i = 100; i < 200; ++i) v.push_back(i);
  EncodedColumn col = MakeColumn(EncodingChoice::kBitPacked, v);
  EXPECT_TRUE(ColumnPredicate("c", CompareOp::kLt, 100).EliminatesSegment(col));
  EXPECT_FALSE(ColumnPredicate("c", CompareOp::kLt, 101).EliminatesSegment(col));
  EXPECT_TRUE(ColumnPredicate("c", CompareOp::kGt, 199).EliminatesSegment(col));
  EXPECT_TRUE(ColumnPredicate("c", CompareOp::kEq, 500).EliminatesSegment(col));
  EXPECT_FALSE(ColumnPredicate("c", CompareOp::kEq, 150).EliminatesSegment(col));
  EXPECT_TRUE(ColumnPredicate("c", CompareOp::kLe, 99).EliminatesSegment(col));
  EXPECT_FALSE(ColumnPredicate("c", CompareOp::kNe, 0).EliminatesSegment(col));
}

TEST(PredicateTest, LiteralOutsideDomainShortCircuits) {
  std::vector<int64_t> v = {10, 20, 30};
  EncodedColumn col = MakeColumn(EncodingChoice::kBitPacked, v);
  AlignedBuffer sel(3);
  // literal below base: every row is > literal.
  ColumnPredicate gt("c", CompareOp::kGt, -5);
  ASSERT_TRUE(gt.Evaluate(col, 0, 3, sel.data()).ok());
  EXPECT_EQ(sel.data()[0], 0xFF);
  EXPECT_EQ(sel.data()[2], 0xFF);
  // literal above max: no row is >= literal.
  ColumnPredicate ge("c", CompareOp::kGe, 100);
  ASSERT_TRUE(ge.Evaluate(col, 0, 3, sel.data()).ok());
  EXPECT_EQ(sel.data()[0], 0x00);
}

// The fused in-register filter on bit-packed columns against CompareInt64:
// every CompareOp (BETWEEN included, lo == hi among its ranges) x widths
// 1..32 x overwrite / AND-into x tiers, with literals at and beyond both
// ends of the column domain so the all-rows / no-rows rebasing shortcuts
// run next to the kernel path.
TEST(PredicateFusedBitPacked, MatchesCompareInt64EveryOpWidthModeTier) {
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                            CompareOp::kBetween};
  const size_t n = 777;    // partial groups and a scalar tail on every tier
  const size_t start = 3;  // off a byte boundary for odd widths
  for (int w = 1; w <= 32; ++w) {
    const int64_t min = -1000;
    const int64_t max = min + static_cast<int64_t>(LowBitsMask(w));
    Rng rng(500 + w);
    std::vector<int64_t> v(start + n);
    for (auto& x : v) {
      x = min + static_cast<int64_t>(rng.NextBounded(LowBitsMask(w) + 1));
    }
    v[0] = min;  // pin the domain, so the column is packed at exactly w bits
    v[1] = max;
    EncodedColumn col = MakeColumn(EncodingChoice::kBitPacked, v);
    ASSERT_EQ(col.encoding(), Encoding::kBitPacked);
    ASSERT_EQ(col.bit_width(), w);
    const int64_t mid = min + (max - min) / 2;
    const int64_t literals[] = {min - 1, min, min + 1, mid,
                                max - 1, max, max + 1};
    std::vector<uint8_t> prior(n);
    for (auto& b : prior) b = rng.NextBernoulli(0.7) ? 0xFF : 0x00;
    for (CompareOp op : kOps) {
      for (int64_t lit : literals) {
        for (int64_t lit2 : literals) {
          if (op != CompareOp::kBetween && lit2 != literals[0]) continue;
          const ColumnPredicate pred =
              op == CompareOp::kBetween ? ColumnPredicate::Between("c", lit, lit2)
                                        : ColumnPredicate("c", op, lit);
          test::ForEachIsaTier([&](IsaTier tier) {
            for (SelectionWrite write :
                 {SelectionWrite::kOverwrite, SelectionWrite::kAndInto}) {
              AlignedBuffer sel(n);
              std::memcpy(sel.data(), prior.data(), n);
              ASSERT_TRUE(
                  pred.Evaluate(col, start, n, sel.data(), false, write).ok());
              for (size_t i = 0; i < n; ++i) {
                bool hit = CompareInt64(v[start + i], op, lit, lit2);
                if (write == SelectionWrite::kAndInto) {
                  hit = hit && prior[i] != 0;
                }
                ASSERT_EQ(sel.data()[i], hit ? 0xFF : 0x00)
                    << "w=" << w << " op=" << static_cast<int>(op)
                    << " lit=" << lit << " lit2=" << lit2
                    << " and_into=" << (write == SelectionWrite::kAndInto)
                    << " tier=" << IsaTierName(tier) << " i=" << i;
              }
            }
          });
        }
      }
    }
  }
}

// AND-into on the encodings that keep the overwrite-then-AND path.
TEST_P(PredicateEncodings, AndIntoMatchesRowByRow) {
  Rng rng(91);
  std::vector<int64_t> v(1500);
  for (auto& x : v) x = rng.NextInRange(-50, 50);
  EncodedColumn col = MakeColumn(GetParam(), v);
  std::vector<uint8_t> prior(v.size());
  for (auto& b : prior) b = rng.NextBernoulli(0.5) ? 0xFF : 0x00;
  for (CompareOp op : kAllOps) {
    ColumnPredicate pred("c", op, 7);
    test::ForEachIsaTier([&](IsaTier) {
      AlignedBuffer sel(v.size());
      std::memcpy(sel.data(), prior.data(), v.size());
      ASSERT_TRUE(pred.Evaluate(col, 0, v.size(), sel.data(), false,
                                SelectionWrite::kAndInto)
                      .ok());
      for (size_t i = 0; i < v.size(); ++i) {
        ASSERT_EQ(sel.data()[i] != 0,
                  prior[i] != 0 && CompareInt64(v[i], op, 7))
            << "op=" << static_cast<int>(op) << " i=" << i;
      }
    });
  }
}

}  // namespace
}  // namespace bipie
