#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>
#include <unistd.h>

#include "storage/table_io.h"

namespace perfbench {

using bipie::AggregateSpec;
using bipie::ColumnPredicate;
using bipie::ColumnSpec;
using bipie::ColumnType;
using bipie::CompareOp;
using bipie::EncodingChoice;
using bipie::Expr;
using bipie::ExprPtr;

namespace {

// ---------------------------------------------------------------------------
// lineitem: the TPC-H columns Q1 and Q6 read, with the value domains and the
// shipdate/returnflag/linestatus correlation of dbgen. Decimals are scaled
// integers (hundredths), dates are day numbers from 1992-01-01.

constexpr int64_t kShipDateMax = 2526;        // 1998-12-01
constexpr int64_t kQ1Cutoff = kShipDateMax - 90;
constexpr int64_t kStatusSwitchDate = 1263;   // 1995-06-17
constexpr int64_t kQ6DateLo = 731;            // 1994-01-01
constexpr int64_t kQ6DateHi = 1096;           // 1995-01-01

bipie::Schema LineitemSchema() {
  return {
      {"l_quantity", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_extendedprice", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_discount", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_tax", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_returnflag", ColumnType::kString, EncodingChoice::kAuto},
      {"l_linestatus", ColumnType::kString, EncodingChoice::kAuto},
      {"l_shipdate", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_orderkey", ColumnType::kInt64, EncodingChoice::kBitPacked},
  };
}

bipie::Segment MakeLineitemSegment(const bipie::Schema& schema, uint64_t seed,
                                   size_t segment_index, size_t first_row,
                                   size_t rows) {
  SplitMix rng(MixSeed(seed, segment_index));
  std::vector<bipie::ColumnBuilder> b;
  for (const ColumnSpec& c : schema) b.emplace_back(c);
  int64_t orderkey = static_cast<int64_t>(first_row / 4) + 1;
  int64_t lines_left = rng.InRange(1, 7);
  for (size_t i = 0; i < rows; ++i) {
    if (lines_left-- == 0) {
      ++orderkey;
      lines_left = rng.InRange(1, 7) - 1;
    }
    const int64_t qty = rng.InRange(1, 50);
    const int64_t price = rng.InRange(90000, 209999);
    const int64_t shipdate = rng.InRange(0, kShipDateMax);
    const bool old_line = shipdate <= kStatusSwitchDate;
    const bool coin = (rng.Next() & 1) != 0;
    b[0].AppendInt64(qty * 100);
    b[1].AppendInt64(qty * price);
    b[2].AppendInt64(rng.InRange(0, 10));
    b[3].AppendInt64(rng.InRange(0, 8));
    b[4].AppendString(old_line ? (coin ? "A" : "R") : "N");
    // A thin band of F lines after the switch keeps N/F populated.
    const bool status_f =
        shipdate <= kStatusSwitchDate + 60 && (old_line || coin);
    b[5].AppendString(status_f ? "F" : "O");
    b[6].AppendInt64(shipdate);
    b[7].AppendInt64(orderkey);
  }
  std::vector<bipie::EncodedColumn> cols;
  for (auto& builder : b) cols.push_back(builder.Finish());
  return bipie::Segment(rows, std::move(cols));
}

// ---------------------------------------------------------------------------
// events: the dashboard table. day/month are clustered (the table is sorted
// by day) and stored as runs; channel/category are small dictionaries so
// every group set stays within the 255-group BIPie envelope; discount and
// latency_us are byte-sliced; the rest is bit-packed.

constexpr int64_t kDays = 365;
constexpr int kNumRegions = 5;
const char* const kRegions[kNumRegions] = {"central", "east", "north",
                                           "south", "west"};

bipie::Schema EventsSchema() {
  return {
      {"day", ColumnType::kInt64, EncodingChoice::kRle},
      {"month", ColumnType::kInt64, EncodingChoice::kRle},
      {"region", ColumnType::kString, EncodingChoice::kAuto},
      {"channel", ColumnType::kInt64, EncodingChoice::kDictionary},
      {"category", ColumnType::kInt64, EncodingChoice::kDictionary},
      {"qty", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"price", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"discount", ColumnType::kInt64, EncodingChoice::kByteSliced},
      {"latency_us", ColumnType::kInt64, EncodingChoice::kByteSliced},
      {"score", ColumnType::kInt64, EncodingChoice::kBitPacked},
  };
}

bipie::Segment MakeEventsSegment(const bipie::Schema& schema, uint64_t seed,
                                 size_t segment_index, size_t first_row,
                                 size_t rows, size_t total_rows) {
  SplitMix rng(MixSeed(seed, segment_index));
  std::vector<bipie::ColumnBuilder> b;
  for (const ColumnSpec& c : schema) b.emplace_back(c);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t day = static_cast<int64_t>(
        (first_row + i) * static_cast<uint64_t>(kDays) / total_rows);
    b[0].AppendInt64(day);
    b[1].AppendInt64(day * 12 / kDays);
    b[2].AppendString(kRegions[rng.Next() % kNumRegions]);
    b[3].AppendInt64(rng.InRange(0, 2));
    b[4].AppendInt64(rng.InRange(0, 49));
    b[5].AppendInt64(rng.InRange(1, 100));
    b[6].AppendInt64(rng.InRange(100, 1000099));
    b[7].AppendInt64(rng.InRange(0, 999));
    b[8].AppendInt64(rng.InRange(0, 65535));
    b[9].AppendInt64(rng.InRange(0, 4095));
  }
  std::vector<bipie::EncodedColumn> cols;
  for (auto& builder : b) cols.push_back(builder.Finish());
  return bipie::Segment(rows, std::move(cols));
}

int Col(const bipie::Table& table, const char* name) {
  const int c = table.FindColumn(name);
  if (c < 0) std::abort();  // schemas are fixed above
  return c;
}

// ---------------------------------------------------------------------------
// Statements.

Statement TpchQ1(const bipie::Table& t) {
  Statement s;
  s.sql =
      "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
      "sum(l_extendedprice), sum(l_extendedprice * (100 - l_discount)), "
      "sum(l_extendedprice * (100 - l_discount) * (100 + l_tax)), "
      "avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) "
      "FROM lineitem WHERE l_shipdate <= " +
      std::to_string(kQ1Cutoff) + " GROUP BY l_returnflag, l_linestatus";
  ExprPtr disc_price =
      Expr::Mul(Expr::Column(Col(t, "l_extendedprice")),
                Expr::Sub(Expr::Constant(100),
                          Expr::Column(Col(t, "l_discount"))));
  ExprPtr charge = Expr::Mul(
      disc_price,
      Expr::Add(Expr::Constant(100), Expr::Column(Col(t, "l_tax"))));
  s.spec.group_by = {"l_returnflag", "l_linestatus"};
  s.spec.aggregates = {
      AggregateSpec::Sum("l_quantity"),  AggregateSpec::Sum("l_extendedprice"),
      AggregateSpec::SumExpr(disc_price), AggregateSpec::SumExpr(charge),
      AggregateSpec::Avg("l_quantity"),  AggregateSpec::Avg("l_extendedprice"),
      AggregateSpec::Avg("l_discount"),  AggregateSpec::Count(),
  };
  s.spec.filters.emplace_back("l_shipdate", CompareOp::kLe, kQ1Cutoff);
  return s;
}

Statement TpchQ6(const bipie::Table& t) {
  Statement s;
  s.sql = "SELECT sum(l_extendedprice * l_discount) FROM lineitem "
          "WHERE l_shipdate BETWEEN " + std::to_string(kQ6DateLo) + " AND " +
          std::to_string(kQ6DateHi - 1) +
          " AND l_discount BETWEEN 5 AND 7 AND l_quantity < 2400";
  s.spec.aggregates = {AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(Col(t, "l_extendedprice")),
                Expr::Column(Col(t, "l_discount"))))};
  s.spec.filters.push_back(
      ColumnPredicate::Between("l_shipdate", kQ6DateLo, kQ6DateHi - 1));
  s.spec.filters.push_back(ColumnPredicate::Between("l_discount", 5, 7));
  s.spec.filters.emplace_back("l_quantity", CompareOp::kLt, int64_t{2400});
  return s;
}

// Group sets of the dashboard mix; each product of cardinalities is <= 255.
const std::vector<std::vector<std::string>>& GroupSets() {
  static const auto* sets = new std::vector<std::vector<std::string>>{
      {},
      {"region"},                // 5
      {"channel"},               // 3
      {"category"},              // 50
      {"month"},                 // 12, runs
      {"region", "channel"},     // 15
      {"region", "category"},    // 250
      {"channel", "category"},   // 150
      {"month", "region"},       // 60
      {"month", "channel"},      // 36
  };
  return *sets;
}

// A sum of the mix: a raw column (make == nullptr; `sql` is its name, and
// the spec is AggregateSpec::Sum as the parser builds it) or an expression.
struct SumChoice {
  const char* sql;
  ExprPtr (*make)(const bipie::Table&);
};

ExprPtr C(const bipie::Table& t, const char* name) {
  return Expr::Column(Col(t, name));
}

// The first kRawPackedSums choices are raw sums of bit-packed columns, the
// only sums the run-based path aggregates.
constexpr size_t kRawPackedSums = 3;

const std::vector<SumChoice>& SumChoices() {
  static const auto* sums = new std::vector<SumChoice>{
      {"price", nullptr},
      {"qty", nullptr},
      {"score", nullptr},
      {"discount", nullptr},
      {"latency_us", nullptr},
      {"price * qty",
       [](const bipie::Table& t) {
         return Expr::Mul(C(t, "price"), C(t, "qty"));
       }},
      {"qty * (1000 - discount)",
       [](const bipie::Table& t) {
         return Expr::Mul(C(t, "qty"),
                          Expr::Sub(Expr::Constant(1000), C(t, "discount")));
       }},
      {"price + score",
       [](const bipie::Table& t) {
         return Expr::Add(C(t, "price"), C(t, "score"));
       }},
  };
  return *sums;
}

// Filterable columns of the mix with their uniform value domains.
struct FilterColumn {
  const char* name;
  int64_t lo;
  int64_t hi;
};
const FilterColumn kFilterColumns[] = {
    {"price", 100, 1000099},    // bit-packed, 20 bits
    {"qty", 1, 100},            // bit-packed, 7 bits
    {"discount", 0, 999},       // byte-sliced, 2 planes
    {"latency_us", 0, 65535},   // byte-sliced, 2 planes
    {"day", 0, kDays - 1},      // runs (clustered)
};

constexpr size_t kNumFilterColumns =
    sizeof(kFilterColumns) / sizeof(kFilterColumns[0]);
constexpr size_t kDayFilter = 4;      // kFilterColumns index of day
constexpr size_t kMonthGroupSet = 4;  // GroupSets() index of {month}

// The shape of one mix statement: what it groups by, how many sums it
// computes, which columns it filters and its selectivity stratum.
struct MixShape {
  size_t group_set = 0;
  size_t num_sums = 1;
  std::vector<size_t> filter_columns;  // into kFilterColumns; empty = none
  size_t stratum = 0;  // target selectivity stratum, 0 = most selective
  // A time rollup: raw sums of bit-packed columns grouped by month (or not
  // grouped), filtered on day or not at all -- the shape the run-based path
  // aggregates by (group, row-range) spans.
  bool rollup = false;
};

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Next() % i]);
  }
}

// The n statement shapes of the mix. They come from a fixed stream, not the
// seed: every group set, sum count and filter count appears equally often
// (one statement in eight unfiltered), target selectivities cover [0.1%,
// 100%] in n log-uniform strata, and each shape keeps its pairing of these
// levels for every seed. The seed picks the sums, the literals and the
// selectivity within each stratum. A statement's cost depends mostly on its
// shape, so the mix's latency distribution is a property of the generator
// and not of one seed's draws.
std::vector<MixShape> MixShapes(size_t n) {
  SplitMix rng(0x6d6978);
  std::vector<size_t> groups(n), sums(n), filters(n), strata(n);
  for (size_t i = 0; i < n; ++i) {
    groups[i] = i % GroupSets().size();
    sums[i] = 1 + i % SumChoices().size();
    filters[i] = i % 8 == 0 ? 0 : 1 + i % 3;
    strata[i] = i;
  }
  Shuffle(&groups, rng);
  Shuffle(&sums, rng);
  Shuffle(&filters, rng);
  Shuffle(&strata, rng);
  std::vector<MixShape> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].group_set = groups[i];
    out[i].num_sums = sums[i];
    out[i].stratum = strata[i];
    std::vector<size_t> cols(kNumFilterColumns);
    for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
    Shuffle(&cols, rng);
    cols.resize(filters[i]);
    out[i].filter_columns = cols;
    if (i % 8 == 0) {
      out[i].rollup = true;
      out[i].group_set = (i / 8) % 2 == 0 ? kMonthGroupSet : 0;
      out[i].num_sums = 1 + (sums[i] - 1) % kRawPackedSums;
      out[i].filter_columns.clear();
      if ((i / 16) % 2 == 0) out[i].filter_columns.push_back(kDayFilter);
    }
  }
  return out;
}

Statement MakeMixStatement(const bipie::Table& t, const MixShape& shape,
                           size_t num_shapes, SplitMix& rng) {
  Statement s;
  const auto& groups = GroupSets()[shape.group_set];
  s.spec.group_by = groups;

  std::vector<size_t> sum_order(shape.rollup ? kRawPackedSums
                                             : SumChoices().size());
  for (size_t i = 0; i < sum_order.size(); ++i) sum_order[i] = i;
  Shuffle(&sum_order, rng);
  const size_t num_sums = shape.num_sums;

  std::string select;
  for (const std::string& g : groups) select += g + ", ";
  select += "count(*)";
  s.spec.aggregates.push_back(AggregateSpec::Count());
  for (size_t i = 0; i < num_sums; ++i) {
    const SumChoice& c = SumChoices()[sum_order[i]];
    select += std::string(", sum(") + c.sql + ")";
    s.spec.aggregates.push_back(c.make ? AggregateSpec::SumExpr(c.make(t))
                                       : AggregateSpec::Sum(c.sql));
  }

  // The target selectivity is split evenly over the conjuncts.
  std::string where;
  if (!shape.filter_columns.empty()) {
    const double target = std::pow(
        10.0, -3.0 * (static_cast<double>(shape.stratum) + rng.Unit()) /
                  static_cast<double>(num_shapes));
    const double each = std::pow(
        target, 1.0 / static_cast<double>(shape.filter_columns.size()));
    for (size_t col : shape.filter_columns) {
      const FilterColumn& fc = kFilterColumns[col];
      const int64_t domain = fc.hi - fc.lo + 1;
      const int64_t width = std::clamp<int64_t>(
          std::llround(each * static_cast<double>(domain)), 1, domain);
      const int64_t lo = fc.lo + rng.InRange(0, domain - width);
      const int64_t hi = lo + width - 1;
      where += where.empty() ? " WHERE " : " AND ";
      if (lo == fc.lo && hi == fc.hi) {
        where += std::string(fc.name) + " >= " + std::to_string(lo);
        s.spec.filters.emplace_back(fc.name, CompareOp::kGe, lo);
      } else if (lo == fc.lo) {
        where += std::string(fc.name) + " < " + std::to_string(hi + 1);
        s.spec.filters.emplace_back(fc.name, CompareOp::kLt, hi + 1);
      } else if (hi == fc.hi) {
        where += std::string(fc.name) + " >= " + std::to_string(lo);
        s.spec.filters.emplace_back(fc.name, CompareOp::kGe, lo);
      } else {
        where += std::string(fc.name) + " BETWEEN " + std::to_string(lo) +
                 " AND " + std::to_string(hi);
        s.spec.filters.push_back(ColumnPredicate::Between(fc.name, lo, hi));
      }
    }
  }

  s.sql = "SELECT " + select + " FROM events" + where;
  if (!groups.empty()) {
    s.sql += " GROUP BY ";
    for (size_t i = 0; i < groups.size(); ++i) {
      s.sql += (i ? ", " : "") + groups[i];
    }
  }
  return s;
}

// Distinct statements in the dashboard mix: enough that the mix's latency
// distribution is a property of the generator, not of one seed's draws.
constexpr size_t kMixStatements = 256;

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  SplitMix a(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  a.Next();
  return a.Next();
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "tpch_q1") return Workload::kTpchQ1;
  if (name == "tpch_q6") return Workload::kTpchQ6;
  if (name == "dashboard_mix") return Workload::kDashboardMix;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kTpchQ1: return "tpch_q1";
    case Workload::kTpchQ6: return "tpch_q6";
    case Workload::kDashboardMix: return "dashboard_mix";
  }
  return "?";
}

WorkloadSpec SpecFor(Workload w) {
  WorkloadSpec spec;
  spec.workload = w;
  if (w == Workload::kDashboardMix) {
    spec.table_name = "events";
    spec.rows = size_t{1} << 20;
    spec.segment_rows = size_t{1} << 16;
    spec.clients = std::max<size_t>(1, std::thread::hardware_concurrency());
    spec.num_threads = 1;
  } else {
    spec.table_name = "lineitem";
    spec.rows = size_t{16} << 20;
    spec.segment_rows = bipie::kDefaultSegmentRows;
    spec.clients = 1;
    spec.num_threads = 0;
  }
  return spec;
}

bipie::Table MakeTable(const WorkloadSpec& spec, uint64_t seed,
                       size_t threads) {
  const bool lineitem = spec.table_name == "lineitem";
  const bipie::Schema schema = lineitem ? LineitemSchema() : EventsSchema();
  const uint64_t table_seed = MixSeed(seed, lineitem ? 1 : 2);
  const size_t num_segments =
      (spec.rows + spec.segment_rows - 1) / spec.segment_rows;
  std::vector<std::optional<bipie::Segment>> segments(num_segments);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < num_segments; i = next++) {
      const size_t first = i * spec.segment_rows;
      const size_t rows = std::min(spec.segment_rows, spec.rows - first);
      segments[i] = lineitem ? MakeLineitemSegment(schema, table_seed, i,
                                                   first, rows)
                             : MakeEventsSegment(schema, table_seed, i, first,
                                                 rows, spec.rows);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (auto& th : pool) th.join();
  bipie::Table table(schema);
  for (auto& s : segments) table.AddSegment(std::move(*s));
  return table;
}

std::vector<Statement> MakeStatements(const WorkloadSpec& spec, uint64_t seed,
                                      const bipie::Table& table) {
  switch (spec.workload) {
    case Workload::kTpchQ1: return {TpchQ1(table)};
    case Workload::kTpchQ6: return {TpchQ6(table)};
    case Workload::kDashboardMix: break;
  }
  SplitMix rng(MixSeed(seed, 3));
  std::vector<Statement> out;
  for (const MixShape& shape : MixShapes(kMixStatements)) {
    out.push_back(MakeMixStatement(table, shape, kMixStatements, rng));
  }
  return out;
}

std::vector<uint32_t> ClientSchedule(uint64_t seed, size_t client,
                                     size_t num_statements, size_t length) {
  // Back-to-back seeded permutations: every statement is sent equally
  // often, so a run's mix does not depend on how long it lasted.
  SplitMix rng(MixSeed(seed, 100 + client));
  std::vector<uint32_t> out;
  std::vector<uint32_t> perm(num_statements);
  while (out.size() < length) {
    for (uint32_t i = 0; i < num_statements; ++i) perm[i] = i;
    Shuffle(&perm, rng);
    out.insert(out.end(), perm.begin(), perm.end());
  }
  out.resize(length);
  return out;
}

bipie::Result<std::string> EnsureTableFile(const WorkloadSpec& spec,
                                           uint64_t seed,
                                           const std::string& cache_dir,
                                           const std::string& key,
                                           size_t keep) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cache_dir, ec);
  if (ec) {
    return bipie::Status::Internal("cannot create " + cache_dir + ": " +
                                  ec.message());
  }
  const std::string stem = spec.table_name + "_";
  const std::string path = cache_dir + "/" + stem + std::to_string(seed) +
                           "_" + key + ".bipie";
  if (fs::exists(path)) return path;

  const bipie::Table table = MakeTable(
      spec, seed, std::max<size_t>(1, std::thread::hardware_concurrency()));
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  BIPIE_RETURN_NOT_OK(bipie::SaveTable(table, tmp));
  fs::rename(tmp, path, ec);
  if (ec) return bipie::Status::Internal("rename failed: " + ec.message());

  std::vector<fs::directory_entry> cached;
  for (const auto& e : fs::directory_iterator(cache_dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(stem, 0) == 0 && e.path().extension() == ".bipie" &&
        e.path().string() != path) {
      cached.push_back(e);
    }
  }
  std::sort(cached.begin(), cached.end(), [](const auto& a, const auto& b) {
    return a.last_write_time() > b.last_write_time();
  });
  for (size_t i = keep > 0 ? keep - 1 : 0; i < cached.size(); ++i) {
    fs::remove(cached[i].path(), ec);
  }
  return path;
}

}  // namespace perfbench
