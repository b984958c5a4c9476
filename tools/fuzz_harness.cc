#include "fuzz_harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "common/cpu.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/scan.h"
#include "exec/query_context.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "storage/table_io.h"
#include "tests/test_util.h"

namespace bipie::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Case construction. Everything below must be a pure function of CaseParams:
// the shrinker relies on field overrides keeping the rest of the case stable.
// ---------------------------------------------------------------------------

struct BuiltCase {
  Table table;
  QuerySpec query;

  explicit BuiltCase(Schema schema) : table(std::move(schema)) {}
};

// Value domain of one generated aggregate/filter column.
struct ValueColumn {
  int64_t lo = 0;
  int64_t hi = 0;
  EncodingChoice encoding = EncodingChoice::kAuto;
  uint64_t divisor = 1;  // CaseParams::divisors

  // Rounds v in [lo, hi] down to the column's grid lo + divisor * k.
  int64_t Snap(int64_t v) const {
    const uint64_t off = static_cast<uint64_t>(v) - static_cast<uint64_t>(lo);
    return static_cast<int64_t>(static_cast<uint64_t>(lo) +
                                off / divisor * divisor);
  }
};

std::string GroupString(int id) { return "grp" + std::to_string(id); }

// Expression-shape column `s` (CaseParams::expr_shapes): narrow enough that
// any shape below, even with a factor at ±2^31, sums within int64 over the
// largest case, so the oracle never overflows.
constexpr int64_t kShapeColumnAbs = int64_t{1} << 12;

// Code-keyed shape columns (CaseParams::code_shapes): key columns k0 and k1
// of at most 16 values each (a frame-of-reference grid with a negative or
// positive base, or an integer dictionary of arbitrary values) and a
// bit-packed carrier `c` of at most 25 bits on a grid.
struct CodeColumns {
  std::vector<int64_t> key_values[2];
  ValueColumn carrier;
};

void AppendCodeColumns(Rng* rng, Schema* schema, CodeColumns* out) {
  for (int k = 0; k < 2; ++k) {
    const bool dictionary = rng->NextBernoulli(0.5);
    const int64_t domain = 1 + static_cast<int64_t>(rng->NextBounded(16));
    const int64_t base = rng->NextInRange(-5000, 5000);
    const int64_t steps[4] = {1, 10, 100,
                              2 + static_cast<int64_t>(rng->NextBounded(999))};
    const int64_t step = steps[rng->NextBounded(4)];
    for (int64_t i = 0; i < domain; ++i) {
      out->key_values[k].push_back(dictionary
                                       ? rng->NextInRange(-100000, 100000)
                                       : base + step * i);
    }
    schema->push_back({"k" + std::to_string(k), ColumnType::kInt64,
                       dictionary ? EncodingChoice::kDictionary
                                  : EncodingChoice::kBitPacked});
  }
  ValueColumn& c = out->carrier;
  const int bits = 1 + static_cast<int>(rng->NextBounded(24));
  c.lo = rng->NextInRange(-(int64_t{1} << 20), int64_t{1} << 20);
  c.hi = c.lo + (int64_t{1} << bits) - 1;
  const uint64_t divisors[4] = {1, 7, 100, uint64_t{1} << rng->NextBounded(8)};
  c.divisor = divisors[rng->NextBounded(4)];
  c.encoding = EncodingChoice::kBitPacked;
  schema->push_back({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
}

Schema MakeFuzzSchema(const CaseParams& p, Rng* rng, Rng* shape_rng,
                      Rng* code_rng, std::vector<ValueColumn>* value_cols,
                      CodeColumns* code_cols, bool* g1_is_string) {
  Schema schema;
  // Run-clustered cases pin the group columns to integer RLE — the shape the
  // run-level execution path admits; strings dictionary-encode and stay on
  // the row-level path.
  *g1_is_string = rng->NextBernoulli(0.5) && p.sorted_fraction <= 0;
  if (p.group_columns >= 1) {
    schema.push_back({"g1",
                      *g1_is_string ? ColumnType::kString : ColumnType::kInt64,
                      p.sorted_fraction > 0 ? EncodingChoice::kRle
                                            : EncodingChoice::kDictionary});
  }
  if (p.group_columns >= 2) {
    schema.push_back({"g2", ColumnType::kInt64,
                      rng->NextBernoulli(0.3) || p.sorted_fraction > 0
                          ? EncodingChoice::kRle
                          : EncodingChoice::kDictionary});
  }
  // Three aggregate/filter value columns spanning the encoding and bit-width
  // matrix. Dictionary is only forced when the domain provably fits the
  // 2^16-entry cap; the other encodings take any range.
  for (int c = 0; c < 3; ++c) {
    ValueColumn vc;
    const int bits = 1 + static_cast<int>(rng->NextBounded(40));
    const int64_t base =
        rng->NextInRange(-(int64_t{1} << 20), int64_t{1} << 20);
    vc.lo = base;
    vc.hi = base + (bits >= 62 ? (int64_t{1} << 40)
                               : std::max<int64_t>(0, (int64_t{1} << bits) - 1));
    switch (rng->NextBounded(6)) {
      case 0:
        vc.encoding = EncodingChoice::kBitPacked;
        break;
      case 1:
        vc.encoding = (vc.hi - vc.lo) < (1 << 12) ? EncodingChoice::kDictionary
                                                  : EncodingChoice::kAuto;
        break;
      case 2:
        vc.encoding = EncodingChoice::kDelta;
        break;
      case 3:
        vc.encoding = EncodingChoice::kRle;
        break;
      case 4:
        vc.encoding = EncodingChoice::kByteSliced;
        break;
      default:
        vc.encoding = EncodingChoice::kAuto;
        break;
    }
    vc.divisor = p.divisors[c];
    value_cols->push_back(vc);
    schema.push_back(
        {"v" + std::to_string(c), ColumnType::kInt64, vc.encoding});
  }
  if (p.wide_bits > 0) {
    // Wide filter-only column: exercises 41..63-bit unpack/compare paths.
    // Never aggregated (a 2^62-magnitude sum would overflow int64 and turn
    // every plan into an overflow abort).
    ValueColumn vc;
    vc.lo = 0;
    vc.hi = (int64_t{1} << std::min(p.wide_bits, 62)) - 1;
    vc.encoding = EncodingChoice::kBitPacked;
    vc.divisor = p.divisors[3];
    value_cols->push_back(vc);
    schema.push_back({"w", ColumnType::kInt64, EncodingChoice::kBitPacked});
  }
  if (p.expr_shapes > 0) {
    const EncodingChoice encodings[6] = {
        EncodingChoice::kBitPacked, EncodingChoice::kDictionary,
        EncodingChoice::kDelta,     EncodingChoice::kRle,
        EncodingChoice::kByteSliced, EncodingChoice::kAuto};
    schema.push_back({"s", ColumnType::kInt64,
                      encodings[shape_rng->NextBounded(6)]});
  }
  if (p.code_shapes > 0) AppendCodeColumns(code_rng, &schema, code_cols);
  return schema;
}

// The bounds a generated value column can take over the whole table, for
// checking shapes against int64 before adding them.
std::vector<ValueBounds> GlobalBounds(const Table& table,
                                      const std::vector<ValueColumn>& cols,
                                      size_t first_value_col,
                                      const CodeColumns& code_cols) {
  std::vector<ValueBounds> bounds(table.num_columns(), ValueBounds{0, 0});
  for (size_t c = 0; c < cols.size(); ++c) {
    bounds[first_value_col + c] = {cols[c].lo, cols[c].hi};
  }
  const int s = table.FindColumn("s");
  if (s >= 0) bounds[s] = {-kShapeColumnAbs, kShapeColumnAbs};
  for (int k = 0; k < 2; ++k) {
    const int col = table.FindColumn("k" + std::to_string(k));
    if (col < 0) continue;
    const std::vector<int64_t>& v = code_cols.key_values[k];
    bounds[col] = {*std::min_element(v.begin(), v.end()),
                   *std::max_element(v.begin(), v.end())};
  }
  const int c = table.FindColumn("c");
  if (c >= 0) bounds[c] = {code_cols.carrier.lo, code_cols.carrier.hi};
  return bounds;
}

// A structural copy: equal to `e` node for node, sharing no pointer.
ExprPtr DeepCopy(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumn:
      return Expr::Column(e->column_index());
    case ExprKind::kConstant:
      return Expr::Constant(e->constant());
    case ExprKind::kAdd:
      return Expr::Add(DeepCopy(e->lhs()), DeepCopy(e->rhs()));
    case ExprKind::kSub:
      return Expr::Sub(DeepCopy(e->lhs()), DeepCopy(e->rhs()));
    case ExprKind::kMul:
      return Expr::Mul(DeepCopy(e->lhs()), DeepCopy(e->rhs()));
  }
  return nullptr;
}

// Appends the expression sums of CaseParams::expr_shapes, drawn from
// `rng` only. A shape whose values could overflow a sum over any case
// (|value| > 2^49 at 12200 rows) is redrawn over the narrow column `s`.
void AppendExprShapes(const Table& table,
                      const std::vector<ValueBounds>& bounds, Rng* rng,
                      QuerySpec* query) {
  const int s = table.FindColumn("s");
  const int values[4] = {table.FindColumn("v0"), table.FindColumn("v1"),
                         table.FindColumn("v2"), s};
  auto safe = [&](const ExprPtr& e) {
    Result<ValueBounds> b = e->EvalBounds(bounds);
    const int64_t limit = int64_t{1} << 49;
    return b.ok() && b.value().min >= -limit && b.value().max <= limit;
  };
  // c ± x, either operand order, with a small constant.
  auto factor = [&](int col, int64_t c) {
    switch (rng->NextBounded(3)) {
      case 0:
        return Expr::Sub(Expr::Constant(c), Expr::Column(col));
      case 1:
        return Expr::Add(Expr::Constant(c), Expr::Column(col));
      default:
        return Expr::Sub(Expr::Column(col), Expr::Constant(c));
    }
  };
  auto small_constant = [&] { return rng->NextInRange(-1000, 1000); };
  const int num_shapes = 1 + static_cast<int>(rng->NextBounded(2));
  for (int k = 0; k < num_shapes; ++k) {
    const uint64_t shape = rng->NextBounded(4);
    const int a = values[rng->NextBounded(4)];
    const int b = values[rng->NextBounded(4)];
    const int d = values[rng->NextBounded(4)];
    const int64_t c = small_constant();
    const int64_t c2 = small_constant();
    // Over `s` alone every shape below stays within the limit.
    auto narrow_nested = [&] {
      return Expr::Mul(Expr::Column(s), factor(s, c));
    };
    ExprPtr nested = Expr::Mul(Expr::Column(a), factor(b, c));
    if (!safe(nested)) nested = narrow_nested();
    switch (shape) {
      case 0:  // a * (c ± b)
        query->aggregates.push_back(AggregateSpec::SumExpr(nested));
        break;
      case 1: {  // (a * (c ± b)) * (c' ± d)
        ExprPtr twice = Expr::Mul(nested, factor(d, c2));
        if (!safe(twice)) twice = Expr::Mul(narrow_nested(), factor(s, c2));
        query->aggregates.push_back(AggregateSpec::SumExpr(twice));
        break;
      }
      case 2: {  // two aggregates sharing a subtree
        const bool by_pointer = rng->NextBernoulli(0.5);
        auto embed = [&] { return by_pointer ? nested : DeepCopy(nested); };
        ExprPtr outer = Expr::Mul(embed(), factor(d, c2));
        if (!safe(outer)) {
          nested = narrow_nested();
          outer = Expr::Mul(embed(), factor(s, c2));
        }
        query->aggregates.push_back(AggregateSpec::SumExpr(nested));
        query->aggregates.push_back(AggregateSpec::SumExpr(outer));
        break;
      }
      default: {
        // A multiply operand whose bounds end exactly at, or one past,
        // INT32_MAX or INT32_MIN: products a 32x32->64 multiply could no
        // longer compute exactly.
        const int64_t past = static_cast<int64_t>(rng->NextBounded(2));
        const int64_t i32max = std::numeric_limits<int32_t>::max();
        const int64_t i32min = std::numeric_limits<int32_t>::min();
        const ValueBounds& sb = bounds[s];
        ExprPtr edge;
        switch (rng->NextBounded(4)) {
          case 0:  // (k - s) peaks at INT32_MAX (+1)
            edge = Expr::Sub(Expr::Constant(i32max + past + sb.min),
                             Expr::Column(s));
            break;
          case 1:  // (s + k) bottoms out at INT32_MIN (-1)
            edge = Expr::Add(Expr::Column(s),
                             Expr::Constant(i32min - past - sb.min));
            break;
          case 2:  // a constant operand at the boundary
            edge = Expr::Constant(rng->NextBernoulli(0.5) ? i32max + past
                                                          : i32min - past);
            break;
          default:  // (k + s) peaks at INT32_MAX (+1)
            edge = Expr::Add(Expr::Constant(i32max + past - sb.max),
                             Expr::Column(s));
            break;
        }
        query->aggregates.push_back(AggregateSpec::SumExpr(
            rng->NextBernoulli(0.5) ? Expr::Mul(Expr::Column(s), edge)
                                    : Expr::Mul(edge, factor(s, c2))));
        break;
      }
    }
  }
}

// Appends the sums of CaseParams::code_shapes over k0, k1 and c, drawn from
// `rng` only: Q1's c * (k0 ± a) * (k1 ± b) and Q6's c * k0, key-only
// products, raw sums and affine mixes, and now and then a shape quadratic
// in the carrier, which code-keyed plans must reject. A shape that could
// overflow a sum over any case loses its second key factor.
void AppendCodeShapes(const Table& table,
                      const std::vector<ValueBounds>& bounds, Rng* rng,
                      QuerySpec* query) {
  const int k0 = table.FindColumn("k0");
  const int k1 = table.FindColumn("k1");
  const int c = table.FindColumn("c");
  auto safe = [&](const ExprPtr& e) {
    Result<ValueBounds> b = e->EvalBounds(bounds);
    const int64_t limit = int64_t{1} << 49;
    return b.ok() && b.value().min >= -limit && b.value().max <= limit;
  };
  auto factor = [&](int col) {
    const int64_t k = rng->NextInRange(-1000, 1000);
    switch (rng->NextBounded(3)) {
      case 0:
        return Expr::Sub(Expr::Constant(k), Expr::Column(col));
      case 1:
        return Expr::Add(Expr::Column(col), Expr::Constant(k));
      default:
        return Expr::Sub(Expr::Column(col), Expr::Constant(k));
    }
  };
  // Half the time the code shapes replace every aggregate but count(*):
  // MIN/MAX or a sum over a wide value column elsewhere in the query makes
  // the segment incapable, and adaptive admission would go unreached.
  if (rng->NextBernoulli(0.5)) query->aggregates.resize(1);
  const int num_shapes = 1 + static_cast<int>(rng->NextBounded(3));
  for (int s = 0; s < num_shapes; ++s) {
    ExprPtr e;
    switch (rng->NextBounded(6)) {
      case 0: {  // c * (k0 ± a) * (k1 ± b)
        ExprPtr once = Expr::Mul(Expr::Column(c), factor(k0));
        e = Expr::Mul(once, factor(k1));
        if (!safe(e)) e = once;
        break;
      }
      case 1:  // c * k0
        e = Expr::Mul(Expr::Column(c), Expr::Column(k0));
        break;
      case 2:  // (k0 ± a) * (k1 ± b)
        e = Expr::Mul(factor(k0), factor(k1));
        break;
      case 3: {  // raw sums and averages
        const char* names[3] = {"c", "k0", "k1"};
        const char* name = names[rng->NextBounded(3)];
        query->aggregates.push_back(rng->NextBernoulli(0.5)
                                        ? AggregateSpec::Sum(name)
                                        : AggregateSpec::Avg(name));
        continue;
      }
      case 4:  // affine mix: (c - k1) * k0 + k1 * a
        e = Expr::Add(
            Expr::Mul(Expr::Sub(Expr::Column(c), Expr::Column(k1)),
                      Expr::Column(k0)),
            Expr::Mul(Expr::Column(k1),
                      Expr::Constant(rng->NextInRange(-1000, 1000))));
        break;
      default:
        // c * (c ± a): quadratic in the carrier, a third of the time.
        e = rng->NextBounded(3) == 0
                ? Expr::Mul(Expr::Column(c), factor(c))
                : Expr::Mul(Expr::Column(c), factor(k1));
        break;
    }
    query->aggregates.push_back(AggregateSpec::SumExpr(e));
  }
}

BuiltCase BuildCase(const CaseParams& p) {
  Rng rng(p.seed * 6364136223846793005ULL + 1442695040888963407ULL);
  // Expression shapes draw from their own stream, so turning them on (or
  // shrinking them away) leaves every other draw of the case unchanged.
  Rng shape_rng(p.seed * 0x2545F4914F6CDD1DULL + 0x9E3779B97F4A7C15ULL);
  // Likewise the choice of on-grid literals under CaseParams::divisors,
  // and the code-keyed columns and sums.
  Rng grid_rng(p.seed * 0xD1B54A32D192ED03ULL + 0x8CB92BA72F3D8DD7ULL);
  Rng code_rng(p.seed * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL);
  std::vector<ValueColumn> value_cols;
  CodeColumns code_cols;
  bool g1_is_string = false;
  BuiltCase built(MakeFuzzSchema(p, &rng, &shape_rng, &code_rng, &value_cols,
                                 &code_cols, &g1_is_string));
  Table& table = built.table;
  QuerySpec& query = built.query;

  const int g2_card = 1 + static_cast<int>(rng.NextBounded(8));
  const size_t first_value_col = static_cast<size_t>(p.group_columns);

  TableAppender app(&table, std::max<size_t>(64, p.segment_rows));
  std::vector<int64_t> ints(table.num_columns(), 0);
  std::vector<std::string> strings(table.num_columns());
  const int shape_col = table.FindColumn("s");
  const int code_col = table.FindColumn("k0");
  // Run-clustered generation: group and RLE value columns cycle through
  // their domains in runs of ~sorted_fraction * 8192 rows (staggered per
  // column so run edges rarely coincide), long enough to cross batch,
  // segment and morsel boundaries at the default sizes.
  const size_t run_len =
      p.sorted_fraction > 0
          ? std::max<size_t>(1, static_cast<size_t>(p.sorted_fraction * 8192))
          : 0;
  for (size_t i = 0; i < p.rows; ++i) {
    if (p.group_columns >= 1) {
      const int g = run_len > 0
                        ? static_cast<int>((i / run_len) %
                                           static_cast<size_t>(p.group_card))
                        : static_cast<int>(rng.NextBounded(p.group_card));
      if (g1_is_string) {
        strings[0] = GroupString(g);
      } else {
        ints[0] = 100 + g;
      }
    }
    if (p.group_columns >= 2) {
      ints[1] = run_len > 0
                    ? -3 + static_cast<int64_t>((i / (run_len + run_len / 2 +
                                                      1)) %
                                                static_cast<size_t>(g2_card))
                    : -3 + static_cast<int>(rng.NextBounded(g2_card));
    }
    for (size_t c = 0; c < value_cols.size(); ++c) {
      const ValueColumn& vc = value_cols[c];
      if (vc.encoding == EncodingChoice::kRle && run_len > 0) {
        // Deterministic staggered runs over a coarse grid of the domain.
        const size_t phase = (i + c * 37) / std::max<size_t>(1, run_len / 2);
        ints[first_value_col + c] = vc.Snap(
            std::min(vc.hi, vc.lo + static_cast<int64_t>(phase % 23) *
                                        std::max<int64_t>(
                                            1, (vc.hi - vc.lo) / 23)));
        continue;
      }
      // RLE-friendly runs now and then, else uniform over the domain.
      if (vc.encoding == EncodingChoice::kRle && rng.NextBernoulli(0.9) &&
          i > 0) {
        continue;  // keep previous value -> longer runs
      }
      ints[first_value_col + c] = vc.Snap(rng.NextInRange(vc.lo, vc.hi));
    }
    if (p.expr_shapes > 0) {
      ints[shape_col] =
          shape_rng.NextInRange(-kShapeColumnAbs, kShapeColumnAbs);
    }
    if (p.code_shapes > 0) {
      for (int k = 0; k < 2; ++k) {
        const std::vector<int64_t>& v = code_cols.key_values[k];
        ints[code_col + k] = v[code_rng.NextBounded(v.size())];
      }
      const ValueColumn& c = code_cols.carrier;
      ints[code_col + 2] = c.Snap(code_rng.NextInRange(c.lo, c.hi));
    }
    app.AppendRow(ints, strings);
  }
  app.Flush();

  if (p.delete_frac > 0 && table.num_rows() > 0) {
    const size_t dels =
        static_cast<size_t>(p.delete_frac * static_cast<double>(p.rows));
    for (size_t d = 0; d < dels; ++d) {
      const size_t seg = rng.NextBounded(table.num_segments());
      table.mutable_segment(seg).DeleteRow(
          rng.NextBounded(table.segment(seg).num_rows()));
    }
  }

  // --- query ---------------------------------------------------------------
  if (p.group_columns >= 1) query.group_by.push_back("g1");
  if (p.group_columns >= 2) query.group_by.push_back("g2");

  query.aggregates.push_back(AggregateSpec::Count());
  const char* value_names[3] = {"v0", "v1", "v2"};
  for (int a = 0; a < p.num_aggs; ++a) {
    const char* col = value_names[rng.NextBounded(3)];
    switch (rng.NextBounded(6)) {
      case 0:
        query.aggregates.push_back(AggregateSpec::Sum(col));
        break;
      case 1:
        query.aggregates.push_back(AggregateSpec::Avg(col));
        break;
      case 2:
        query.aggregates.push_back(AggregateSpec::Min(col));
        break;
      case 3:
        query.aggregates.push_back(AggregateSpec::Max(col));
        break;
      default: {
        const int c0 = table.FindColumn(value_names[rng.NextBounded(3)]);
        const int c1 = table.FindColumn(col);
        query.aggregates.push_back(AggregateSpec::SumExpr(Expr::Add(
            Expr::Mul(Expr::Column(c0),
                      Expr::Constant(1 + static_cast<int64_t>(
                                             rng.NextBounded(50)))),
            Expr::Column(c1))));
        break;
      }
    }
  }

  const std::vector<ValueBounds> bounds =
      GlobalBounds(table, value_cols, first_value_col, code_cols);
  if (p.expr_shapes > 0) AppendExprShapes(table, bounds, &shape_rng, &query);
  if (p.code_shapes > 0) AppendCodeShapes(table, bounds, &code_rng, &query);

  // Half the = / <> literals of a gridded column land on the grid; the
  // rest, like the quantile literals below, mostly fall between points.
  auto point_literal = [&](const ValueColumn& vc) {
    const int64_t literal = rng.NextInRange(vc.lo, vc.hi);
    return vc.divisor > 1 && grid_rng.NextBernoulli(0.5) ? vc.Snap(literal)
                                                         : literal;
  };
  for (int f = 0; f < p.num_filters; ++f) {
    // First filter aims at target_selectivity via the uniform-domain
    // quantile; later conjuncts and special forms scatter around it.
    if (f == 0 && g1_is_string && p.group_columns >= 1 &&
        rng.NextBernoulli(0.15)) {
      query.filters.emplace_back(
          "g1", CompareOp::kEq,
          GroupString(static_cast<int>(rng.NextBounded(p.group_card))));
      continue;
    }
    const size_t vi = rng.NextBounded(value_cols.size());
    const ValueColumn& vc = value_cols[vi];
    const std::string name = vi < 3 ? value_names[vi] : "w";
    const double span = static_cast<double>(vc.hi - vc.lo);
    const double q = f == 0 ? p.target_selectivity
                            : 0.2 + 0.6 * rng.NextDouble();
    const int64_t quantile =
        vc.lo + static_cast<int64_t>(q * span);
    switch (rng.NextBounded(5)) {
      case 0:  // on a gridded column, < half the time (rounds up)
        query.filters.emplace_back(
            name,
            vc.divisor > 1 && grid_rng.NextBernoulli(0.5) ? CompareOp::kLt
                                                          : CompareOp::kLe,
            quantile);
        break;
      case 1:  // on a gridded column, >= half the time (rounds up)
        query.filters.emplace_back(
            name,
            vc.divisor > 1 && grid_rng.NextBernoulli(0.5) ? CompareOp::kGe
                                                          : CompareOp::kGt,
            quantile);
        break;
      case 2:
        query.filters.push_back(ColumnPredicate::Between(
            name, vc.lo + static_cast<int64_t>(0.5 * (1.0 - q) * span),
            vc.hi - static_cast<int64_t>(0.5 * (1.0 - q) * span)));
        break;
      case 3:
        query.filters.emplace_back(name, CompareOp::kNe, point_literal(vc));
        break;
      default:
        query.filters.emplace_back(name, CompareOp::kEq, point_literal(vc));
        break;
    }
  }
  return built;
}

// ---------------------------------------------------------------------------
// Result comparison.
// ---------------------------------------------------------------------------

std::string GroupValueToString(const GroupValue& v) {
  return v.is_string ? "\"" + v.string_value + "\""
                     : std::to_string(v.int_value);
}

std::string RowToString(const ResultRow& row) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < row.group.size(); ++i) {
    os << (i ? "," : "") << GroupValueToString(row.group[i]);
  }
  os << "] count=" << row.count << " sums=(";
  for (size_t i = 0; i < row.sums.size(); ++i) {
    os << (i ? "," : "") << row.sums[i];
  }
  os << ")";
  return os.str();
}

// Exact row-by-row diff (both engines emit rows sorted by group value).
bool ResultsAgree(const QueryResult& got, const QueryResult& expected,
                  const std::string& plan, std::string* error) {
  if (got.rows.size() != expected.rows.size()) {
    *error = plan + ": row count " + std::to_string(got.rows.size()) +
             " != oracle " + std::to_string(expected.rows.size());
    return false;
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    const ResultRow& g = got.rows[r];
    const ResultRow& e = expected.rows[r];
    if (g.group != e.group || g.count != e.count || g.sums != e.sums) {
      *error = plan + ": row " + std::to_string(r) + " got " +
               RowToString(g) + " oracle " + RowToString(e);
      return false;
    }
  }
  return true;
}

struct Plan {
  std::string name;
  ScanOptions options;
};

std::vector<Plan> MakePlans(const CaseParams& p) {
  std::vector<Plan> plans;
  plans.push_back({"adaptive/t1", {}});
  if (p.num_threads == 0) {
    // 4096-row morsels split every segment above one batch, so several
    // morsels bind the same shared segment plan.
    Plan pool{"adaptive/pool", {}};
    pool.options.num_threads = 0;
    pool.options.morsel_rows = 4096;
    plans.push_back(std::move(pool));
  } else if (p.num_threads > 1) {
    Plan mt{"adaptive/t" + std::to_string(p.num_threads), {}};
    mt.options.num_threads = p.num_threads;
    plans.push_back(std::move(mt));
  }
  const SelectionStrategy sels[3] = {SelectionStrategy::kGather,
                                     SelectionStrategy::kCompact,
                                     SelectionStrategy::kSpecialGroup};
  const AggregationStrategy aggs[7] = {
      AggregationStrategy::kScalar,        AggregationStrategy::kInRegister,
      AggregationStrategy::kSortBased,     AggregationStrategy::kMultiAggregate,
      AggregationStrategy::kCheckedScalar, AggregationStrategy::kRunBased,
      AggregationStrategy::kCodeKeyed};
  // Full override matrix: each strategy forced alone and every pairwise
  // combination (sel_idx/agg_idx of -1 = adaptive for that dimension).
  // Forced kRunBased rejects with kNotSupported off run-shaped data (and
  // under any forced selection strategy); on sorted_fraction cases it runs
  // the whole run pipeline differentially against the oracle.
  for (int s = -1; s < 3; ++s) {
    for (int a = -1; a < 7; ++a) {
      if (s < 0 && a < 0) continue;  // pure adaptive already covered
      Plan plan;
      plan.name = std::string("forced ") +
                  (s < 0 ? "auto" : SelectionStrategyName(sels[s])) + "+" +
                  (a < 0 ? "auto" : AggregationStrategyName(aggs[a]));
      if (s >= 0) plan.options.overrides.selection = sels[s];
      if (a >= 0) plan.options.overrides.aggregation = aggs[a];
      plans.push_back(std::move(plan));
    }
  }
  // Byteslice kernel differential: forced-on runs the plane kernels
  // wherever a byte-sliced filter column exists (rejecting with
  // kNotSupported when none does), forced-off pins the assemble-then-
  // compare fallback — both against the same oracle as every other plan.
  for (const bool on : {true, false}) {
    Plan plan;
    plan.name = std::string("forced byteslice-") + (on ? "on" : "off");
    plan.options.overrides.byteslice = on;
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace

std::string CaseParams::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed << " rows=" << rows
     << " segment_rows=" << segment_rows
     << " group_columns=" << group_columns << " group_card=" << group_card
     << " num_aggs=" << num_aggs << " num_filters=" << num_filters
     << " delete_frac=" << delete_frac
     << " target_selectivity=" << target_selectivity
     << " wide_bits=" << wide_bits << " num_threads=" << num_threads
     << " cancel_after=" << cancel_after
     << " failpoint_prob=" << failpoint_prob
     << " sorted_fraction=" << sorted_fraction
     << " memory_limit=" << memory_limit
     << " isa_tier=" << IsaTierName(static_cast<IsaTier>(isa_tier))
     << " expr_shapes=" << expr_shapes << " divisors=" << divisors[0];
  for (size_t c = 1; c < divisors.size(); ++c) os << "," << divisors[c];
  os << " code_shapes=" << code_shapes;
  return os.str();
}

CaseParams MakeCaseParams(uint64_t seed) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  CaseParams p;
  p.seed = seed;
  p.rows = 200 + rng.NextBounded(12000);
  p.segment_rows = 64 + rng.NextBounded(6000);
  p.group_columns = static_cast<int>(rng.NextBounded(3));
  // Cardinality sweep crosses the 255-group specialized envelope: ~1/6 of
  // cases land in 200..300, where (with two group columns) the combined
  // count forces the hash fallback and forced plans must reject cleanly.
  p.group_card = rng.NextBernoulli(0.17)
                     ? 200 + static_cast<int>(rng.NextBounded(101))
                     : 1 + static_cast<int>(rng.NextBounded(40));
  p.num_aggs = static_cast<int>(rng.NextBounded(5));
  p.num_filters = static_cast<int>(rng.NextBounded(4));
  p.delete_frac = rng.NextBernoulli(0.4) ? 0.12 * rng.NextDouble() : 0.0;
  // Selectivity sweep hits the exact endpoints (0 and 1) as well as the
  // interior, since strategy choice branches at both extremes.
  switch (rng.NextBounded(8)) {
    case 0: p.target_selectivity = 0.0; break;
    case 1: p.target_selectivity = 1.0; break;
    case 2: p.target_selectivity = 0.01; break;
    case 3: p.target_selectivity = 0.99; break;
    default: p.target_selectivity = rng.NextDouble(); break;
  }
  p.wide_bits =
      rng.NextBernoulli(0.3) ? 41 + static_cast<int>(rng.NextBounded(23)) : 0;
  // Execution model: shared morsel pool, inline, or legacy per-query
  // threads, weighted evenly so every model soaks the same case diversity.
  switch (rng.NextBounded(3)) {
    case 0: p.num_threads = 0; break;
    case 1: p.num_threads = 1; break;
    default: p.num_threads = 2 + rng.NextBounded(3); break;
  }
  // A quarter of cases also exercise mid-scan cancellation; small check
  // budgets land the trigger inside the scan rather than after it.
  p.cancel_after = rng.NextBernoulli(0.25)
                       ? 1 + static_cast<int64_t>(rng.NextBounded(48))
                       : 0;
  // A fifth of cases run with allocation-failure injection armed on the
  // morsel scratch path (only observable in BIPIE_ENABLE_FAILPOINTS builds;
  // params stay seed-portable across build flavours either way).
  p.failpoint_prob =
      rng.NextBernoulli(0.2) ? 0.02 + 0.28 * rng.NextDouble() : 0.0;
  // ~30% of cases are run-clustered, keeping the kRunBased differential
  // (including its morsel-boundary and deleted-row interactions) hot in
  // every fuzz job.
  p.sorted_fraction =
      rng.NextBernoulli(0.3) ? 0.05 + 0.95 * rng.NextDouble() : 0.0;
  // A fifth of cases run the memory-governance pass with a hard limit from
  // "fails immediately" (4 KiB) to "comfortably fits" (~4 MiB), so both the
  // kResourceExhausted path and the governed-success path stay hot.
  p.memory_limit =
      rng.NextBernoulli(0.2) ? 4096 + rng.NextBounded(uint64_t{1} << 22) : 0;
  // A retired knob's draw, kept so the fields below keep their per-seed
  // values.
  rng.NextBounded(3);
  // Every ISA tier evenly (the scan clamps to what the hardware offers), so
  // each kernel tier diffs against the scalar-tier oracle. Drawn last:
  // earlier fields keep their per-seed values from before the knob existed.
  p.isa_tier = static_cast<int>(rng.NextBounded(3));
  // Half the cases add the plan-targeted expression shapes. Drawn last for
  // the same reason as isa_tier.
  p.expr_shapes = static_cast<int>(rng.NextBounded(2));
  // Grid divisors come from their own stream, so every field above keeps
  // its per-seed value. Half the columns stay ungridded; the others get a
  // power of two, a power of ten or an arbitrary divisor. Large powers
  // leave only a few grid points in a column's domain, where rounding a
  // bound by one point changes which rows match.
  Rng grid_rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  for (uint64_t& d : p.divisors) {
    switch (grid_rng.NextBounded(6)) {
      case 0:
        d = uint64_t{1} << (1 + grid_rng.NextBounded(40));
        break;
      case 1:
        d = 1;
        for (uint64_t k = 1 + grid_rng.NextBounded(12); k > 0; --k) d *= 10;
        break;
      case 2:
        d = 2 + grid_rng.NextBounded(999);
        break;
      default:
        d = 1;
        break;
    }
  }
  // A quarter of the cases add the code-keyed columns and sums, also from
  // their own stream. Sorted cases never do: the expression sums would
  // keep them off the run-based path they exist to reach, and a lower rate
  // keeps the in-register and multi-aggregate shares of the mix.
  Rng code_rng(seed * 0xE7037ED1A0B428DBULL + 0x8EBC6AF09C88C6E3ULL);
  p.code_shapes =
      code_rng.NextBounded(4) == 0 && p.sorted_fraction <= 0 ? 1 : 0;
  return p;
}

bool ParseCaseParams(const std::string& text, CaseParams* out,
                     std::string* error) {
  CaseParams p;
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      *error = "malformed token (want key=value): " + token;
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    try {
      if (key == "seed") {
        p.seed = std::stoull(val);
      } else if (key == "rows") {
        p.rows = std::stoull(val);
      } else if (key == "segment_rows") {
        p.segment_rows = std::stoull(val);
      } else if (key == "group_columns") {
        p.group_columns = std::stoi(val);
      } else if (key == "group_card") {
        p.group_card = std::stoi(val);
      } else if (key == "num_aggs") {
        p.num_aggs = std::stoi(val);
      } else if (key == "num_filters") {
        p.num_filters = std::stoi(val);
      } else if (key == "delete_frac") {
        p.delete_frac = std::stod(val);
      } else if (key == "target_selectivity") {
        p.target_selectivity = std::stod(val);
      } else if (key == "wide_bits") {
        p.wide_bits = std::stoi(val);
      } else if (key == "num_threads") {
        p.num_threads = std::stoull(val);
      } else if (key == "cancel_after") {
        p.cancel_after = std::stoll(val);
      } else if (key == "failpoint_prob") {
        p.failpoint_prob = std::stod(val);
      } else if (key == "sorted_fraction") {
        p.sorted_fraction = std::stod(val);
      } else if (key == "memory_limit") {
        p.memory_limit = std::stoull(val);
      } else if (key == "expr_shapes") {
        p.expr_shapes = std::stoi(val);
      } else if (key == "code_shapes") {
        p.code_shapes = std::stoi(val);
      } else if (key == "divisors") {
        std::istringstream list(val);
        std::string item;
        size_t c = 0;
        for (; c < p.divisors.size() && std::getline(list, item, ','); ++c) {
          p.divisors[c] = std::stoull(item);
        }
        if (c != p.divisors.size() || std::getline(list, item, ',') ||
            std::count(p.divisors.begin(), p.divisors.end(), 0) > 0) {
          *error = "bad value for divisors (four values >= 1): " + val;
          return false;
        }
      } else if (key == "isa_tier") {
        p.isa_tier = -1;
        for (int t = 0; t <= 2; ++t) {
          if (val == IsaTierName(static_cast<IsaTier>(t))) p.isa_tier = t;
        }
        if (p.isa_tier < 0) {
          *error = "bad value for isa_tier (scalar, avx2 or avx512): " + val;
          return false;
        }
      } else {
        *error = "unknown key: " + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + key + ": " + val;
      return false;
    }
  }
  *out = p;
  return true;
}

bool RunOneCase(const CaseParams& p, std::string* error) {
  const BuiltCase built = BuildCase(p);

  // The oracle runs at the scalar tier and every plan at the case's tier,
  // so a wrong SIMD kernel shows up as a diff instead of agreeing with
  // itself. The caller's tier is restored on return.
  struct TierRestore {
    IsaTier saved = CurrentIsaTier();
    ~TierRestore() { SetIsaTierForTesting(saved); }
  } tier_restore;
  SetIsaTierForTesting(IsaTier::kScalar);
  auto oracle = ExecuteQueryHashAgg(built.table, built.query);
  if (!oracle.ok()) {
    *error = "oracle failed: " + oracle.status().ToString();
    return false;
  }
  // The oracle shares the filter kernels and DecodeInt64 with the plans.
  // The naive engine shares neither: it reads one value at a time and
  // compares logical values (CompareInt64), so a wrong frame-of-reference
  // scale or a literal rounded the wrong way off the grid shows up here.
  auto naive = ExecuteQueryNaive(built.table, built.query);
  if (!naive.ok()) {
    *error = "naive engine failed: " + naive.status().ToString();
    return false;
  }
  if (!ResultsAgree(naive.value(), oracle.value(), "naive engine", error)) {
    return false;
  }
  SetIsaTierForTesting(static_cast<IsaTier>(p.isa_tier));

  // Fault-injection slice: armed after the oracle (which must stay exact),
  // disarmed when this function returns. Every plan below must then produce
  // its complete exact result or report kResourceExhausted — an injected
  // allocation failure must never leak a partial aggregate.
  std::optional<ScopedFailpoint> inject;
  if (p.failpoint_prob > 0) {
    inject.emplace("scan/morsel_scratch_alloc", p.failpoint_prob, p.seed);
  }

  for (const Plan& plan : MakePlans(p)) {
    BIPieScan scan(built.table, built.query, plan.options);
    auto got = scan.Execute();
    if (!got.ok()) {
      const StatusCode code = got.status().code();
      const bool forced = plan.options.overrides.any();
      // Forced plans may reject shapes outside their envelope; the checked
      // scalar path may abort instead of overflowing. Anything else is a
      // bug, as is a clean rejection from the adaptive plan (it must fall
      // back to hash aggregation instead).
      if (forced && code == StatusCode::kNotSupported) continue;
      if (code == StatusCode::kOverflowRisk) continue;
      if (p.failpoint_prob > 0 && code == StatusCode::kResourceExhausted) {
        continue;  // clean degradation under injected allocation failure
      }
      *error = plan.name + ": unexpected error " + got.status().ToString();
      return false;
    }
    // The stats-invariant oracle (tests/test_util.h): every successful scan
    // must satisfy the accounting identities, whatever strategies ran. This
    // subsumes the stale-stats-after-fallback check and adds the row/segment
    // conservation laws.
    const std::vector<std::string> stats_violations =
        test::StatsInvariants::Check(scan.stats(), built.query, built.table,
                                     &got.value());
    if (!stats_violations.empty()) {
      *error = plan.name + ": " +
               test::StatsInvariants::Describe(stats_violations);
      return false;
    }
    // Explain and Execute share one plan: what Explain predicts is what
    // ran, per segment strategy and for the hash fallback.
    auto explain = scan.Explain();
    if (!explain.ok()) {
      *error = plan.name + ": explain failed " + explain.status().ToString();
      return false;
    }
    const std::vector<std::string> explain_violations =
        test::ExplainMatchesExecute(explain.value(), scan.stats());
    if (!explain_violations.empty()) {
      *error = plan.name + ": " + explain_violations[0];
      return false;
    }
    std::string diff;
    if (!ResultsAgree(got.value(), oracle.value(), plan.name, &diff)) {
      *error = diff;
      return false;
    }
  }

  // Cancellation pass: with a context that trips after p.cancel_after
  // checks, every execution model must either report kCancelled (or abort
  // with kOverflowRisk before the trigger) or — when the scan completed
  // before noticing the cancel — return the exact oracle result. A row
  // count or sum differing from the oracle means a partial result escaped.
  if (p.cancel_after > 0) {
    std::vector<size_t> models = {0, 1};
    if (p.num_threads > 1) models.push_back(p.num_threads);
    for (size_t threads : models) {
      QueryContext context;
      context.CancelAfterChecks(p.cancel_after);
      ScanOptions options;
      options.num_threads = threads;
      options.context = &context;
      const std::string plan_name =
          "cancel@" + std::to_string(p.cancel_after) + "/t" +
          std::to_string(threads);
      BIPieScan scan(built.table, built.query, options);
      auto got = scan.Execute();
      if (!got.ok()) {
        const StatusCode code = got.status().code();
        if (code == StatusCode::kCancelled ||
            code == StatusCode::kOverflowRisk) {
          continue;
        }
        if (p.failpoint_prob > 0 &&
            code == StatusCode::kResourceExhausted) {
          continue;
        }
        *error = plan_name + ": unexpected error " + got.status().ToString();
        return false;
      }
      std::string diff;
      if (!ResultsAgree(got.value(), oracle.value(), plan_name, &diff)) {
        *error = diff + " (partial result escaped a cancelled scan?)";
        return false;
      }
    }
  }

  // Memory-governance pass: with a per-query hard limit, every execution
  // model must return the complete exact result (when the working set
  // fits) or a structured kResourceExhausted — never a partial aggregate —
  // and the query tracker must be balanced at zero either way.
  if (p.memory_limit > 0) {
    std::vector<size_t> models = {0, 1};
    if (p.num_threads > 1) models.push_back(p.num_threads);
    for (size_t threads : models) {
      QueryContext context;
      if (!context.settings()
               .SetUInt64("memory_limit_bytes", p.memory_limit)
               .ok()) {
        *error = "memory_limit_bytes rejected " +
                 std::to_string(p.memory_limit);
        return false;
      }
      context.ApplySettings();
      ScanOptions options;
      options.num_threads = threads;
      options.context = &context;
      const std::string plan_name =
          "memlimit@" + std::to_string(p.memory_limit) + "/t" +
          std::to_string(threads);
      BIPieScan scan(built.table, built.query, options);
      auto got = scan.Execute();
      if (context.memory_tracker().used() != 0) {
        *error = plan_name + ": tracker balance " +
                 std::to_string(context.memory_tracker().used()) +
                 " bytes after Execute()";
        return false;
      }
      if (!got.ok()) {
        const StatusCode code = got.status().code();
        if (code == StatusCode::kResourceExhausted ||
            code == StatusCode::kOverflowRisk) {
          continue;
        }
        *error = plan_name + ": unexpected error " + got.status().ToString();
        return false;
      }
      std::string diff;
      if (!ResultsAgree(got.value(), oracle.value(), plan_name, &diff)) {
        *error = diff + " (partial result escaped a memory-limited scan?)";
        return false;
      }
    }
  }
  return true;
}

CaseParams Shrink(const CaseParams& p) {
  CaseParams best = p;
  std::string scratch;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<CaseParams> candidates;
    auto add = [&](auto mutate) {
      CaseParams c = best;
      mutate(c);
      candidates.push_back(c);
    };
    if (best.rows > 64) add([](CaseParams& c) { c.rows /= 2; });
    if (best.segment_rows > 64) add([](CaseParams& c) { c.segment_rows /= 2; });
    if (best.num_filters > 0) add([](CaseParams& c) { c.num_filters--; });
    if (best.num_aggs > 0) add([](CaseParams& c) { c.num_aggs--; });
    if (best.group_columns > 0) add([](CaseParams& c) { c.group_columns--; });
    if (best.group_card > 1) add([](CaseParams& c) { c.group_card /= 2; });
    if (best.delete_frac > 0) add([](CaseParams& c) { c.delete_frac = 0; });
    if (best.wide_bits > 0) add([](CaseParams& c) { c.wide_bits = 0; });
    if (best.cancel_after > 0) add([](CaseParams& c) { c.cancel_after = 0; });
    if (best.failpoint_prob > 0) {
      add([](CaseParams& c) { c.failpoint_prob = 0; });
    }
    if (best.sorted_fraction > 0) {
      add([](CaseParams& c) { c.sorted_fraction = 0; });
    }
    if (best.memory_limit > 0) {
      add([](CaseParams& c) { c.memory_limit = 0; });
    }
    if (best.isa_tier != 0) add([](CaseParams& c) { c.isa_tier = 0; });
    if (best.expr_shapes != 0) add([](CaseParams& c) { c.expr_shapes = 0; });
    if (best.code_shapes != 0) add([](CaseParams& c) { c.code_shapes = 0; });
    for (size_t d = 0; d < best.divisors.size(); ++d) {
      if (best.divisors[d] != 1) add([d](CaseParams& c) { c.divisors[d] = 1; });
    }
    if (best.num_threads != 1) add([](CaseParams& c) { c.num_threads = 1; });
    for (const CaseParams& c : candidates) {
      if (!RunOneCase(c, &scratch)) {  // still fails -> keep the reduction
        best = c;
        progress = true;
        break;
      }
    }
  }
  return best;
}

FuzzResult RunFuzz(uint64_t seed, uint64_t iters, double budget_seconds,
                   bool verbose) {
  const auto start = std::chrono::steady_clock::now();
  FuzzResult result;
  for (uint64_t i = 0; i < iters; ++i) {
    if (budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= budget_seconds) break;
    }
    const CaseParams p = MakeCaseParams(seed + i);
    ++result.iterations;
    std::string error;
    if (verbose) {
      std::fprintf(stderr, "[bipie_fuzz] seed %" PRIu64 ": %s\n", seed + i,
                   p.ToString().c_str());
    }
    if (RunOneCase(p, &error)) continue;
    ++result.failures;
    std::fprintf(stderr, "[bipie_fuzz] FAILURE at seed %" PRIu64 ": %s\n",
                 seed + i, error.c_str());
    std::fprintf(stderr, "[bipie_fuzz] shrinking...\n");
    result.first_failing = Shrink(p);
    std::string shrunk_error;
    if (!RunOneCase(result.first_failing, &shrunk_error)) {
      error = shrunk_error;
    }
    result.first_error = error;
    std::fprintf(stderr,
                 "[bipie_fuzz] minimal failing case: %s\n"
                 "[bipie_fuzz]   %s\n"
                 "[bipie_fuzz] replay: bipie_fuzz --replay '%s'\n",
                 result.first_failing.ToString().c_str(), error.c_str(),
                 result.first_failing.ToString().c_str());
    break;
  }
  return result;
}

// ---------------------------------------------------------------------------
// load_table mode.
// ---------------------------------------------------------------------------

namespace {

// Golden table for the load fuzzer: every encoding, a string dictionary,
// multiple segments, a liveness mask — small enough that thousands of
// load attempts per second are possible. `grid` multiplies the
// frame-of-reference columns (packed, sliced), so with grid > 1 they are
// stored scaled and only format v3 can hold them.
Table MakeLoadFuzzTable(int64_t grid) {
  Table table({{"flag", ColumnType::kString},
               {"packed", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"dict", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"runs", ColumnType::kInt64, EncodingChoice::kRle},
               {"mono", ColumnType::kInt64, EncodingChoice::kDelta},
               {"sliced", ColumnType::kInt64, EncodingChoice::kByteSliced}});
  TableAppender app(&table, 256);
  Rng rng(2718);
  const char* flags[3] = {"A", "N", "R"};
  for (size_t i = 0; i < 600; ++i) {
    app.AppendRow({0, grid * rng.NextInRange(-500, 500),
                   100 * static_cast<int64_t>(rng.NextBounded(7)),
                   static_cast<int64_t>(i / 50),
                   static_cast<int64_t>(i * 5) + rng.NextInRange(0, 3),
                   grid * rng.NextInRange(0, (int64_t{1} << 20) - 1)},
                  {flags[rng.NextBounded(3)], "", "", "", "", ""});
  }
  app.Flush();
  table.mutable_segment(0).DeleteRow(9);
  return table;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  out->resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  const bool ok = std::fread(out->data(), 1, out->size(), f) == out->size();
  std::fclose(f);
  return ok;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

// Load errors that the boundary is allowed (expected) to produce.
bool IsStructuredLoadError(StatusCode code) {
  return code == StatusCode::kDataLoss ||
         code == StatusCode::kInvalidArgument ||
         code == StatusCode::kNotSupported ||
         code == StatusCode::kResourceExhausted;
}

// Applies one seeded mutation recipe to `mutant`.
void MutateBytes(Rng* rng, std::vector<uint8_t>* mutant) {
  switch (rng->NextBounded(4)) {
    case 0: {  // byte flips
      const size_t flips = 1 + rng->NextBounded(16);
      for (size_t k = 0; k < flips && !mutant->empty(); ++k) {
        (*mutant)[rng->NextBounded(mutant->size())] ^=
            static_cast<uint8_t>(1 + rng->NextBounded(255));
      }
      break;
    }
    case 1:  // truncation
      mutant->resize(rng->NextBounded(mutant->size() + 1));
      break;
    case 2: {  // truncate, then flip inside what remains
      mutant->resize(rng->NextBounded(mutant->size() + 1));
      const size_t flips = 1 + rng->NextBounded(8);
      for (size_t k = 0; k < flips && !mutant->empty(); ++k) {
        (*mutant)[rng->NextBounded(mutant->size())] ^=
            static_cast<uint8_t>(1 + rng->NextBounded(255));
      }
      break;
    }
    default: {  // garbage extension (exercises trailing-bytes rejection)
      const size_t extra = 1 + rng->NextBounded(64);
      for (size_t k = 0; k < extra; ++k) {
        mutant->push_back(static_cast<uint8_t>(rng->NextBounded(256)));
      }
      break;
    }
  }
}

// The golden files every load case mutates: the unscaled table as v1 and
// v2, the scaled one as v3, and where each v3 column block starts.
struct LoadGoldens {
  std::vector<uint8_t> v1, v2, v3;
  std::vector<size_t> v3_column_blocks;
};

// Offsets of the column blocks of a v2/v3 file of `table` (each block is
// u64 length, u32 crc32c, payload; the header block comes first, then per
// segment a segment block and one block per column).
std::vector<size_t> ColumnBlocks(const std::vector<uint8_t>& file,
                                 const Table& table) {
  auto skip = [&](size_t pos) {
    uint64_t len = 0;
    std::memcpy(&len, file.data() + pos, sizeof(len));
    return pos + 12 + static_cast<size_t>(len);
  };
  std::vector<size_t> blocks;
  size_t pos = skip(8);  // magic, header block
  for (size_t s = 0; s < table.num_segments(); ++s) {
    pos = skip(pos);  // segment block
    for (size_t c = 0; c < table.num_columns(); ++c) {
      blocks.push_back(pos);
      pos = skip(pos);
    }
  }
  return blocks;
}

// Rewrites one column's scale field to a value deep validation must reject
// — 0, or a multiple or successor of the stored scale, which either no
// longer divides the spread or puts scale * max offset past meta.max — and
// recomputes the block checksum, so only validation stands in the way.
void MutateScaleField(Rng* rng, const std::vector<size_t>& blocks,
                      std::vector<uint8_t>* file) {
  // Column payload: u8 type, u8 encoding, i64 min, i64 max, u64 num_rows,
  // i64 base, u64 scale.
  constexpr size_t kScaleOffset = 2 + 8 + 8 + 8 + 8;
  const size_t pos = blocks[rng->NextBounded(blocks.size())];
  uint8_t* payload = file->data() + pos + 12;
  uint64_t len = 0, scale = 0;
  std::memcpy(&len, file->data() + pos, sizeof(len));
  std::memcpy(&scale, payload + kScaleOffset, sizeof(scale));
  switch (rng->NextBounded(3)) {
    case 0: scale = 0; break;
    case 1: scale *= 2; break;
    default: scale += 1; break;
  }
  std::memcpy(payload + kScaleOffset, &scale, sizeof(scale));
  const uint32_t crc = Crc32c(payload, static_cast<size_t>(len));
  std::memcpy(file->data() + pos + 8, &crc, sizeof(crc));
}

// One load-fuzz iteration; false (with *error filled) on a boundary breach.
bool RunOneLoadCase(uint64_t case_seed, const LoadGoldens& goldens,
                    const std::string& path, std::string* error) {
  Rng rng(case_seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  const uint64_t recipe = rng.NextBounded(4);
  std::vector<uint8_t> mutant = recipe == 0   ? goldens.v1
                                : recipe == 1 ? goldens.v2
                                              : goldens.v3;
  if (recipe == 3) {
    MutateScaleField(&rng, goldens.v3_column_blocks, &mutant);
  } else {
    MutateBytes(&rng, &mutant);
  }
  if (!WriteFileBytes(path, mutant)) {
    *error = "cannot write mutant file: " + path;
    return false;
  }

  auto loaded = LoadTable(path);
  if (recipe == 3 &&
      (loaded.ok() || loaded.status().code() != StatusCode::kDataLoss)) {
    *error = "invalid scale field not rejected as kDataLoss: " +
             (loaded.ok() ? std::string("loaded")
                          : loaded.status().ToString());
    return false;
  }
  if (!loaded.ok()) {
    if (!IsStructuredLoadError(loaded.status().code())) {
      *error = "unstructured load error: " + loaded.status().ToString();
      return false;
    }
    return true;
  }
  // The mutant survived checksums and deep validation (e.g. the mutation
  // landed in a dictionary value and stayed within [min, max]): it must be
  // scannable end to end. The query may still reject cleanly — a mutated
  // schema can rename a column out from under it — but never with an
  // internal error, and never by crashing.
  QuerySpec query;
  query.group_by = {"flag"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("packed"),
                      AggregateSpec::Min("dict"), AggregateSpec::Max("runs")};
  query.filters.emplace_back("packed", CompareOp::kGe, int64_t{-100});
  // Byteslice filter: a mutated byte plane must either fail validation at
  // load (kDataLoss) or scan cleanly through the plane kernels.
  query.filters.emplace_back("sliced", CompareOp::kLt,
                             int64_t{1} << 19);
  auto result = ExecuteQuery(loaded.value(), query);
  if (!result.ok() && result.status().code() == StatusCode::kInternal) {
    *error = "internal error scanning loadable mutant: " +
             result.status().ToString();
    return false;
  }
  return true;
}

}  // namespace

LoadFuzzResult RunLoadTableFuzz(uint64_t seed, uint64_t iters,
                                double budget_seconds, bool verbose) {
  LoadFuzzResult result;
  const Table golden = MakeLoadFuzzTable(1);
  const Table scaled = MakeLoadFuzzTable(7);
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/bipie_load_fuzz_" + std::to_string(seed) +
                           ".bipie";
  LoadGoldens goldens;
  SaveOptions v1, v2;
  v1.format_version = 1;
  v2.format_version = 2;
  if (!SaveTable(golden, path, v1).ok() ||
      !ReadFileBytes(path, &goldens.v1) ||
      !SaveTable(golden, path, v2).ok() ||
      !ReadFileBytes(path, &goldens.v2) || !SaveTable(scaled, path).ok() ||
      !ReadFileBytes(path, &goldens.v3)) {
    result.failures = 1;
    result.first_error = "cannot materialize golden files at " + path;
    return result;
  }
  goldens.v3_column_blocks = ColumnBlocks(goldens.v3, scaled);

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    if (budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= budget_seconds) break;
    }
    ++result.iterations;
    if (verbose) {
      std::fprintf(stderr, "[bipie_fuzz] load_table seed %" PRIu64 "\n",
                   seed + i);
    }
    std::string error;
    if (RunOneLoadCase(seed + i, goldens, path, &error)) {
      continue;
    }
    ++result.failures;
    result.first_failing_seed = seed + i;
    result.first_error = error;
    std::fprintf(stderr,
                 "[bipie_fuzz] load_table FAILURE at seed %" PRIu64
                 ": %s\n"
                 "[bipie_fuzz] replay: bipie_fuzz --mode load_table "
                 "--seed %" PRIu64 " --iters 1\n",
                 seed + i, error.c_str(), seed + i);
    break;
  }
  std::remove(path.c_str());
  return result;
}

// ---------------------------------------------------------------------------
// parse_sql mode: the untrusted-query boundary.
// ---------------------------------------------------------------------------

namespace {

// The schema the seed statements reference: one dictionary string group
// column and two integer value columns.
Table MakeSqlFuzzTable() {
  Table table({{"g", ColumnType::kString, EncodingChoice::kDictionary},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"w", ColumnType::kInt64, EncodingChoice::kAuto}});
  TableAppender app(&table, 512);
  const char* flags[3] = {"A", "N", "R"};
  for (size_t i = 0; i < 2000; ++i) {
    app.AppendRow({0, static_cast<int64_t>(i % 97),
                   static_cast<int64_t>(i % 11)},
                  {flags[i % 3], "", ""});
  }
  app.Flush();
  return table;
}

// Well-formed statements the mutator starts from, covering the whole
// supported grammar: grouping, arithmetic aggregates, string equality,
// comparison chains, BETWEEN, EXPLAIN.
constexpr const char* kSqlSeeds[] = {
    "SELECT g, count(*), sum(v) FROM t WHERE v >= 10 GROUP BY g",
    "SELECT count(*), sum(v * w + 2), min(w), max(v) FROM t",
    "SELECT g, count(*), avg(v) FROM t WHERE g = 'A' AND w < 9 GROUP BY g",
    "SELECT sum(v * (100 - w)) FROM t WHERE v BETWEEN 10 AND 80",
    "EXPLAIN SELECT g, count(*) FROM t WHERE w > 3 GROUP BY g",
    "SELECT count(*) FROM t WHERE v <= -1 AND w > -100000000000",
};

// Splice vocabulary: keywords, operators, literals on both sides of the
// overflow boundary, and fragments that tend to create unterminated strings
// or unbalanced parentheses.
constexpr const char* kSqlTokens[] = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "BETWEEN", "EXPLAIN",
    "count(*)", "sum(", "min(", "max(", "avg(", ")", "(", ",", "*", "+",
    "-", "<=", ">=", "=", "<", ">", "'A'", "'", "g", "v", "w", "t", "0",
    "9223372036854775807", "99999999999999999999999999", ";",
};

std::string MutateSql(const std::string& base, Rng* rng) {
  std::string s = base;
  const int mutations = 1 + static_cast<int>(rng->NextBounded(4));
  for (int m = 0; m < mutations; ++m) {
    switch (rng->NextBounded(5)) {
      case 0:  // flip one byte
        if (!s.empty()) {
          s[rng->NextBounded(s.size())] =
              static_cast<char>(rng->Next() & 0xff);
        }
        break;
      case 1:  // truncate
        if (!s.empty()) s.resize(rng->NextBounded(s.size()));
        break;
      case 2:  // splice a token
        s.insert(rng->NextBounded(s.size() + 1),
                 kSqlTokens[rng->NextBounded(std::size(kSqlTokens))]);
        break;
      case 3:  // duplicate a slice
        if (s.size() >= 2) {
          const size_t at = rng->NextBounded(s.size() - 1);
          const size_t len = 1 + rng->NextBounded(s.size() - at - 1 + 1);
          const std::string slice = s.substr(at, len);
          s.insert(rng->NextBounded(s.size() + 1), slice);
        }
        break;
      default: {  // raw garbage bytes
        const size_t n = 1 + rng->NextBounded(8);
        std::string garbage;
        for (size_t i = 0; i < n; ++i) {
          garbage.push_back(static_cast<char>(rng->Next() & 0xff));
        }
        s.insert(rng->NextBounded(s.size() + 1), garbage);
        break;
      }
    }
  }
  return s;
}

// Escapes non-printable bytes so failure diagnostics survive a terminal.
std::string PrintableSql(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

bool RunOneSqlCase(uint64_t case_seed, const Table& table,
                   std::string* error) {
  Rng rng(case_seed * 0x9e3779b97f4a7c15ULL + 1);
  std::string sql;
  if (rng.NextBernoulli(0.05)) {
    // Pure garbage: no valid skeleton at all.
    const size_t n = rng.NextBounded(64);
    for (size_t i = 0; i < n; ++i) {
      sql.push_back(static_cast<char>(rng.Next() & 0xff));
    }
  } else {
    sql = MutateSql(kSqlSeeds[rng.NextBounded(std::size(kSqlSeeds))], &rng);
  }

  // The schema-free preparse (the server's first contact with the bytes)
  // must only ever reject with kInvalidArgument.
  auto pre = PreparseQuery(sql);
  if (!pre.ok() && pre.status().code() != StatusCode::kInvalidArgument) {
    *error = "preparse returned " + pre.status().ToString() +
             " for: " + PrintableSql(sql);
    return false;
  }

  auto parsed = ParseQuery(sql, table);
  if (!parsed.ok()) {
    if (parsed.status().code() != StatusCode::kInvalidArgument) {
      *error = "parse returned " + parsed.status().ToString() +
               " for: " + PrintableSql(sql);
      return false;
    }
    if (parsed.status().message().empty()) {
      *error = "parse rejected without context for: " + PrintableSql(sql);
      return false;
    }
    return true;
  }
  // The mutant parsed clean (e.g. the mutation landed in whitespace or a
  // literal): the resolved QuerySpec must execute without internal errors.
  auto result = ExecuteQuery(table, parsed.value().spec);
  if (!result.ok() && result.status().code() == StatusCode::kInternal) {
    *error = "internal error executing parsed mutant: " +
             result.status().ToString() + " for: " + PrintableSql(sql);
    return false;
  }
  return true;
}

}  // namespace

SqlFuzzResult RunParseSqlFuzz(uint64_t seed, uint64_t iters,
                              double budget_seconds, bool verbose) {
  SqlFuzzResult result;
  const Table table = MakeSqlFuzzTable();
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    if (budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= budget_seconds) break;
    }
    ++result.iterations;
    if (verbose) {
      std::fprintf(stderr, "[bipie_fuzz] parse_sql seed %" PRIu64 "\n",
                   seed + i);
    }
    std::string error;
    if (RunOneSqlCase(seed + i, table, &error)) continue;
    ++result.failures;
    result.first_failing_seed = seed + i;
    result.first_error = error;
    std::fprintf(stderr,
                 "[bipie_fuzz] parse_sql FAILURE at seed %" PRIu64
                 ": %s\n"
                 "[bipie_fuzz] replay: bipie_fuzz --mode parse_sql "
                 "--seed %" PRIu64 " --iters 1\n",
                 seed + i, error.c_str(), seed + i);
    break;
  }
  return result;
}

}  // namespace bipie::fuzz
