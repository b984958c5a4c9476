#include "baseline/scalar_engine.h"

#include <algorithm>
#include <map>
#include <vector>

#include "encoding/bitpack.h"
#include "encoding/byteslice.h"

namespace bipie {

namespace {

// Decoded view of a segment column: logical int64s, plus the string
// dictionary when the column is a string (logical values are then ids).
struct DecodedColumn {
  std::vector<int64_t> values;
  const StringDictionary* strings = nullptr;
};

GroupValue MakeGroupValue(const DecodedColumn& col, int64_t logical) {
  GroupValue v;
  if (col.strings != nullptr) {
    v.is_string = true;
    v.string_value = col.strings->value(static_cast<uint32_t>(logical));
  } else {
    v.int_value = logical;
  }
  return v;
}

// Logical values of every row of `col`, read one value at a time with the
// scalar reference readers (BitUnpackOne, ByteSliceAssembleOne) instead of
// EncodedColumn::DecodeInt64, which runs the SIMD unpack kernels: a wrong
// kernel must not be wrong on both sides of a differential test.
void DecodeColumnScalar(const EncodedColumn& col, int64_t* out) {
  const size_t n = col.num_rows();
  const uint8_t* packed = col.packed_data();
  const int w = col.bit_width();
  const uint64_t base = static_cast<uint64_t>(col.base());
  switch (col.encoding()) {
    case Encoding::kBitPacked:
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<int64_t>(BitUnpackOne(packed, i, w) + base);
      }
      return;
    case Encoding::kByteSliced:
      for (size_t i = 0; i < n; ++i) {
        out[i] = static_cast<int64_t>(
            ByteSliceAssembleOne(packed, n, w, i) + base);
      }
      return;
    case Encoding::kDictionary: {
      // String columns keep dictionary ids as their logical values.
      const IntDictionary* dict = col.int_dictionary();
      for (size_t i = 0; i < n; ++i) {
        const uint64_t id = BitUnpackOne(packed, i, w);
        out[i] = dict != nullptr ? dict->value(static_cast<uint32_t>(id))
                                 : static_cast<int64_t>(id);
      }
      return;
    }
    case Encoding::kRle: {
      size_t row = 0;
      for (const RleRun& run : col.runs()) {
        for (uint32_t k = 0; k < run.count; ++k) {
          out[row++] = static_cast<int64_t>(run.value);
        }
      }
      return;
    }
    case Encoding::kDelta: {
      // Row i adds packed delta i - 1 (offset by delta_min) to row i - 1.
      if (n == 0) return;
      uint64_t value = static_cast<uint64_t>(col.delta_checkpoints()[0]);
      out[0] = static_cast<int64_t>(value);
      for (size_t i = 1; i < n; ++i) {
        value += static_cast<uint64_t>(col.delta_min()) +
                 BitUnpackOne(packed, i - 1, w);
        out[i] = static_cast<int64_t>(value);
      }
      return;
    }
  }
}

}  // namespace

Result<QueryResult> ExecuteQueryNaive(const Table& table,
                                      const QuerySpec& query) {
  // Resolve column indices.
  std::vector<int> group_cols;
  for (const std::string& name : query.group_by) {
    const int idx = table.FindColumn(name);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
    group_cols.push_back(idx);
  }
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) {
      return Status::InvalidArgument("unknown column: " + pred.column_name());
    }
    filter_cols.push_back(idx);
  }

  std::map<std::vector<GroupValue>, ResultRow> merged;
  const size_t num_specs = query.aggregates.size();

  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    const size_t n = segment.num_rows();
    if (n == 0) continue;

    // Decode every column once (naive by design).
    std::vector<DecodedColumn> cols(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      cols[c].values.resize(n);
      DecodeColumnScalar(segment.column(c), cols[c].values.data());
      cols[c].strings = segment.column(c).string_dictionary();
    }
    std::vector<const int64_t*> col_ptrs(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      col_ptrs[c] = cols[c].values.data();
    }

    // Pre-evaluate expression aggregates over the full segment.
    std::vector<std::vector<int64_t>> expr_values(num_specs);
    for (size_t a = 0; a < num_specs; ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kSumExpr) {
        expr_values[a].resize(n);
        query.aggregates[a].expr->Evaluate(col_ptrs.data(), n,
                                           expr_values[a].data());
      }
    }
    std::vector<int> agg_cols(num_specs, -1);
    for (size_t a = 0; a < num_specs; ++a) {
      const AggregateSpec& spec = query.aggregates[a];
      if (spec.kind == AggregateSpec::Kind::kSum ||
          spec.kind == AggregateSpec::Kind::kAvg ||
          spec.kind == AggregateSpec::Kind::kMin ||
          spec.kind == AggregateSpec::Kind::kMax) {
        agg_cols[a] = table.FindColumn(spec.column);
        if (agg_cols[a] < 0) {
          return Status::InvalidArgument("unknown column: " + spec.column);
        }
      }
    }

    const uint8_t* alive = segment.alive_bytes();
    for (size_t i = 0; i < n; ++i) {
      if (alive != nullptr && alive[i] == 0) continue;
      bool pass = true;
      for (size_t f = 0; f < query.filters.size(); ++f) {
        const ColumnPredicate& pred = query.filters[f];
        const DecodedColumn& fc = cols[filter_cols[f]];
        if (fc.strings != nullptr) {
          // Evaluate string predicates through the encoded-domain path for
          // one row (rare in the naive engine's usage; a dictionary verdict
          // table, no bit-packed kernel). The slack covers Evaluate's SIMD
          // write allowance.
          uint8_t verdict[40] = {0};
          Status st = pred.Evaluate(segment.column(filter_cols[f]), i, 1,
                                    verdict);
          if (!st.ok()) return st;
          pass = verdict[0] != 0;
        } else {
          pass = CompareInt64(fc.values[i], pred.op(), pred.literal(),
                              pred.literal2());
        }
        if (!pass) break;
      }
      if (!pass) continue;

      std::vector<GroupValue> key;
      for (int gc : group_cols) {
        key.push_back(MakeGroupValue(cols[gc], cols[gc].values[i]));
      }
      ResultRow& row = merged[key];
      const bool fresh = row.sums.empty();
      if (fresh) {
        row.group = key;
        row.sums.assign(num_specs, 0);
      }
      ++row.count;
      for (size_t a = 0; a < num_specs; ++a) {
        switch (query.aggregates[a].kind) {
          case AggregateSpec::Kind::kCount:
            break;
          case AggregateSpec::Kind::kSum:
          case AggregateSpec::Kind::kAvg:
            row.sums[a] += cols[agg_cols[a]].values[i];
            break;
          case AggregateSpec::Kind::kSumExpr:
            row.sums[a] += expr_values[a][i];
            break;
          case AggregateSpec::Kind::kMin:
            row.sums[a] = fresh ? cols[agg_cols[a]].values[i]
                                : std::min(row.sums[a],
                                           cols[agg_cols[a]].values[i]);
            break;
          case AggregateSpec::Kind::kMax:
            row.sums[a] = fresh ? cols[agg_cols[a]].values[i]
                                : std::max(row.sums[a],
                                           cols[agg_cols[a]].values[i]);
            break;
        }
      }
    }
  }

  QueryResult result;
  result.group_column_names = query.group_by;
  for (auto& [key, row] : merged) {
    for (size_t a = 0; a < num_specs; ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kCount) {
        row.sums[a] = static_cast<int64_t>(row.count);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace bipie
