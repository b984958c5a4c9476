#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <string>

#include "common/cycle_timer.h"
#include "core/scan.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "encoding/bitpack.h"
#include "expr/predicate.h"
#include "obs/plan_explain.h"
#include "oracle.h"
#include "sql/parser.h"

namespace perfbench {

using bipie::AggregationStrategy;
using bipie::BIPieScan;
using bipie::EncodedColumn;
using bipie::Encoding;
using bipie::QuerySpec;
using bipie::ScanOptions;
using bipie::ScanStats;
using bipie::SelectionStrategy;
using bipie::Table;

namespace {

// Timed repetitions per measurement (the median is kept).
constexpr size_t kRepeats = 3;
// Statements the forced-plan regret sweep covers (the first ones given).
constexpr size_t kRegretStatements = 4;

uint64_t Now() { return bipie::ReadCycleCounter(); }

// Table columns a statement reads (filters, groups, aggregate inputs).
std::vector<int> InputColumns(const Table& t, const QuerySpec& q) {
  std::set<int> cols;
  for (const auto& f : q.filters) cols.insert(t.FindColumn(f.column_name()));
  for (const auto& g : q.group_by) cols.insert(t.FindColumn(g));
  for (const auto& a : q.aggregates) {
    if (a.expr) {
      std::vector<int> e;
      a.expr->CollectColumns(&e);
      cols.insert(e.begin(), e.end());
    } else if (!a.column.empty()) {
      cols.insert(t.FindColumn(a.column));
    }
  }
  cols.erase(-1);
  return {cols.begin(), cols.end()};
}

// Median of `repeats` runs of `fn`, in TSC cycles.
double MedianCycles(size_t repeats, const std::function<void()>& fn) {
  std::vector<double> c;
  for (size_t r = 0; r < repeats; ++r) {
    const uint64_t t0 = Now();
    fn();
    c.push_back(static_cast<double>(Now() - t0));
  }
  return Median(std::move(c));
}

// True when two scans took the same path: the same selection mode per batch
// and the same aggregation strategy per segment.
bool SamePath(const ScanStats& a, const ScanStats& b) {
  for (int i = 0; i < bipie::kNumAggregationStrategies; ++i) {
    if (a.aggregation_segments[i] != b.aggregation_segments[i]) return false;
  }
  return a.used_hash_fallback == b.used_hash_fallback &&
         a.runs_aggregated == b.runs_aggregated &&
         a.selection.gather == b.selection.gather &&
         a.selection.compact == b.selection.compact &&
         a.selection.special_group == b.selection.special_group &&
         a.selection.unfiltered == b.selection.unfiltered;
}

class Checker {
 public:
  explicit Checker(LayerReport* report) : report_(report) {}
  // Counts one execution; false (and a failure) when it errored or
  // disagreed with the oracle.
  bool Check(const bipie::Result<bipie::QueryResult>& got,
             const bipie::QueryResult* want, const char* what) {
    ++report_->executions;
    std::string why;
    if (!got.ok()) {
      why = got.status().ToString();
    } else if (want != nullptr && !SameResult(got.value(), *want, &why)) {
    } else {
      return true;
    }
    ++report_->failures;
    std::fprintf(stderr, "perfbench: %s: %s\n", what, why.c_str());
    return false;
  }

 private:
  LayerReport* report_;
};

bipie::cost::SegmentCostInputs CostInputs(const bipie::cost::CostModel& model,
                                          const bipie::Segment& seg,
                                          const Table& t, const QuerySpec& q) {
  bipie::cost::SegmentCostInputs in;
  in.rows = seg.num_rows();
  auto decode = [&](int c) {
    const EncodedColumn& col = seg.column(c);
    return model.DecodeCyclesPerRow(col.encoding(), col.bit_width(),
                                    col.num_rows(), col.runs().size());
  };
  for (const auto& f : q.filters) {
    const int c = t.FindColumn(f.column_name());
    const EncodedColumn& col = seg.column(c);
    in.filtered = true;
    in.filter_decode_cpr += decode(c);
    if (col.type() == bipie::ColumnType::kInt64) {
      in.selectivity *= bipie::EstimatePredicateSelectivity(
          f.op(), f.literal(), f.literal2(), col.meta().min, col.meta().max);
    }
    if (col.encoding() == Encoding::kByteSliced) {
      in.byteslice_capable = true;
      in.filter_byteslice_cpr = std::max(0.0, in.filter_byteslice_cpr) +
                                model.ByteSliceFilterCyclesPerRow(
                                    (col.bit_width() + 7) / 8, in.selectivity);
    }
  }
  for (const auto& g : q.group_by) in.group_decode_cpr += decode(t.FindColumn(g));
  for (const auto& a : q.aggregates) {
    std::vector<int> cols;
    if (a.expr) a.expr->CollectColumns(&cols);
    if (!a.column.empty()) cols.push_back(t.FindColumn(a.column));
    for (int c : cols) in.agg_decode_cpr += decode(c);
    if (a.kind != bipie::AggregateSpec::Kind::kCount) ++in.num_sums;
  }
  in.in_register_feasible = true;
  in.multi_fits = true;
  in.sort_feasible = true;
  in.special_group_available = in.filtered;
  return in;
}

}  // namespace

LayerReport MeasureLayers(const LayerInputs& in) {
  LayerReport report;
  Checker checker(&report);
  const Table& t = *in.table;
  SpanRecorder* rec = in.spans;
  const double rows = static_cast<double>(t.num_rows());
  const double nstmt = static_cast<double>(in.statements.size());
  const double tsc_hz = bipie::TscHz();
  auto add = [&](std::string name, double value, const char* unit,
                 size_t samples) {
    report.metrics.push_back({std::move(name), value, unit, samples});
  };

  // --- sql: ParseQuery --------------------------------------------------
  {
    ScopedSpan layer(rec, "sql", -1);
    std::vector<double> us;
    for (const Statement* s : in.statements) {
      for (size_t r = 0; r < std::max<size_t>(kRepeats, 20); ++r) {
        ScopedSpan span(rec, "sql.parse", layer.index());
        const uint64_t t0 = Now();
        auto parsed = bipie::ParseQuery(s->sql, t);
        us.push_back((Now() - t0) * 1e6 / tsc_hz);
        if (!parsed.ok()) {
          ++report.failures;
          std::fprintf(stderr, "perfbench: parse: %s\n",
                       parsed.status().ToString().c_str());
        }
      }
    }
    add("sql.parse_us", Median(us), "us", us.size());
  }

  // --- core: Explain, standing in for planning ---------------------------
  {
    ScopedSpan layer(rec, "core.plan", -1);
    std::vector<double> us;
    for (const Statement* s : in.statements) {
      ScanOptions opts;
      BIPieScan scan(t, s->spec, opts);
      for (size_t r = 0; r < std::max<size_t>(kRepeats, 5); ++r) {
        ScopedSpan span(rec, "core.explain", layer.index());
        const uint64_t t0 = Now();
        auto plan = scan.Explain();
        us.push_back((Now() - t0) * 1e6 / tsc_hz);
        if (!plan.ok()) ++report.failures;
      }
    }
    add("core.plan_us", Median(us), "us", us.size());
  }

  // --- cost: ScoreSegment per segment ------------------------------------
  {
    ScopedSpan layer(rec, "cost", -1);
    const bipie::cost::CostModel model(bipie::cost::ActiveProfile());
    std::vector<bipie::cost::SegmentCostInputs> inputs;
    for (const Statement* s : in.statements) {
      for (size_t i = 0; i < t.num_segments(); ++i) {
        inputs.push_back(CostInputs(model, t.segment(i), t, s->spec));
      }
    }
    std::vector<double> us;
    volatile int sink = 0;
    for (size_t r = 0; r < std::max<size_t>(kRepeats, 5); ++r) {
      ScopedSpan span(rec, "cost.score_segment", layer.index());
      const uint64_t t0 = Now();
      size_t calls = 0;
      while (calls < 2000) {
        for (const auto& ci : inputs) {
          sink = sink + static_cast<int>(model.ScoreSegment(ci).chosen);
          ++calls;
        }
      }
      us.push_back((Now() - t0) * 1e6 / tsc_hz / static_cast<double>(calls));
    }
    add("cost.score_us", Median(us), "us", us.size());
  }

  // --- encoding: BitUnpack of the bit-packed input columns ---------------
  {
    ScopedSpan layer(rec, "encoding", -1);
    std::vector<uint64_t> scratch(bipie::kBatchRows + 16);
    double cycles = 0, bytes = 0;
    for (const Statement* s : in.statements) {
      std::vector<const EncodedColumn*> cols;
      for (int c : InputColumns(t, s->spec)) {
        for (size_t i = 0; i < t.num_segments(); ++i) {
          const EncodedColumn& col = t.segment(i).column(c);
          if (col.encoding() == Encoding::kBitPacked) cols.push_back(&col);
        }
      }
      for (const EncodedColumn* col : cols) {
        bytes += static_cast<double>(
            bipie::BitPackedBytes(col->num_rows(), col->bit_width()));
      }
      cycles += MedianCycles(kRepeats, [&] {
        ScopedSpan span(rec, "encoding.bit_unpack", layer.index());
        for (const EncodedColumn* col : cols) {
          for (size_t start = 0; start < col->num_rows();
               start += bipie::kBatchRows) {
            const size_t n =
                std::min(bipie::kBatchRows, col->num_rows() - start);
            bipie::BitUnpack(col->packed_data(), start, n, col->bit_width(),
                             scratch.data());
          }
        }
      });
    }
    add("encoding.unpack_cpr", cycles / (rows * nstmt), "cycles/row",
        kRepeats * in.statements.size());
    add("encoding.unpack_bytes_per_cycle", cycles > 0 ? bytes / cycles : 0,
        "B/cycle", kRepeats * in.statements.size());
  }

  // --- expr: ColumnPredicate::Evaluate over every batch ------------------
  {
    ScopedSpan layer(rec, "expr", -1);
    std::vector<uint8_t> sel(bipie::kBatchRows + 64);
    double cycles = 0;
    for (const Statement* s : in.statements) {
      if (s->spec.filters.empty()) continue;
      cycles += MedianCycles(kRepeats, [&] {
        ScopedSpan span(rec, "expr.evaluate", layer.index());
        for (size_t i = 0; i < t.num_segments(); ++i) {
          const bipie::Segment& seg = t.segment(i);
          for (const auto& f : s->spec.filters) {
            const EncodedColumn& col =
                seg.column(t.FindColumn(f.column_name()));
            const bool planes = col.encoding() == Encoding::kByteSliced;
            for (size_t start = 0; start < seg.num_rows();
                 start += bipie::kBatchRows) {
              const size_t n = std::min(bipie::kBatchRows,
                                        seg.num_rows() - start);
              if (!f.Evaluate(col, start, n, sel.data(), planes).ok()) {
                ++report.failures;
                return;
              }
            }
          }
        }
      });
    }
    add("expr.filter_cpr", cycles / (rows * nstmt), "cycles/row",
        kRepeats * in.statements.size());
  }

  // --- core: Execute on 1 thread, on the pool, and without WHERE ---------
  {
    ScopedSpan layer(rec, "core", -1);
    double cycles_1t = 0, cycles_pool = 0, cycles_agg = 0, input_bytes = 0;
    ScanStats total;
    size_t fallbacks = 0;
    for (size_t k = 0; k < in.statements.size(); ++k) {
      const Statement* s = in.statements[k];
      for (int c : InputColumns(t, s->spec)) {
        for (size_t i = 0; i < t.num_segments(); ++i) {
          input_bytes +=
              static_cast<double>(t.segment(i).column(c).encoded_bytes());
        }
      }
      bool stats_taken = false;
      // Builds the scan, times Execute() alone, then checks the result;
      // returns the cycles of Execute().
      auto run = [&](const QuerySpec& spec, size_t threads,
                     const bipie::QueryResult* want, bool keep_stats) {
        ScanOptions opts;
        opts.num_threads = threads;
        BIPieScan scan(t, spec, opts);
        const uint64_t t0 = Now();
        auto result = scan.Execute();
        const double cycles = static_cast<double>(Now() - t0);
        checker.Check(result, want, "layer execute");
        if (keep_stats && !stats_taken) {
          stats_taken = true;
          const ScanStats& st = scan.stats();
          total.segments_scanned += st.segments_scanned;
          total.segments_eliminated += st.segments_eliminated;
          total.batches += st.batches;
          total.rows_scanned += st.rows_scanned;
          total.rows_selected += st.rows_selected;
          total.runs_aggregated += st.runs_aggregated;
          total.selection.gather += st.selection.gather;
          total.selection.compact += st.selection.compact;
          total.selection.special_group += st.selection.special_group;
          total.selection.unfiltered += st.selection.unfiltered;
          for (int a = 0; a < bipie::kNumAggregationStrategies; ++a) {
            total.aggregation_segments[a] += st.aggregation_segments[a];
          }
          if (st.used_hash_fallback) ++fallbacks;
        }
        return cycles;
      };
      // Median of kRepeats runs, each in its own span.
      auto median_run = [&](const char* name, const QuerySpec& spec,
                            size_t threads, const bipie::QueryResult* want,
                            bool keep_stats) {
        std::vector<double> c;
        for (size_t r = 0; r < kRepeats; ++r) {
          ScopedSpan span(rec, name, layer.index());
          c.push_back(run(spec, threads, want, keep_stats));
        }
        return Median(std::move(c));
      };
      cycles_1t +=
          median_run("core.execute_1t", s->spec, 1, in.expected[k], true);
      cycles_pool +=
          median_run("core.execute_pool", s->spec, 0, in.expected[k], false);
      QuerySpec no_where = s->spec;
      no_where.filters.clear();
      cycles_agg += median_run("core.aggregate_1t", no_where, 1, nullptr, false);
    }
    const size_t n = kRepeats * in.statements.size();
    add("core.execute_cpr_1t", cycles_1t / (rows * nstmt), "cycles/row", n);
    add("core.execute_bytes_per_cycle_1t",
        cycles_1t > 0 ? input_bytes / cycles_1t : 0, "B/cycle", n);
    add("core.execute_ms_pool", cycles_pool * 1e3 / tsc_hz / nstmt, "ms", n);
    add("core.aggregate_cpr", cycles_agg / (rows * nstmt), "cycles/row", n);
    add("exec.pool_speedup", cycles_pool > 0 ? cycles_1t / cycles_pool : 0,
        "x", n);
    const size_t ns = in.statements.size();
    add("core.selectivity",
        static_cast<double>(total.rows_selected) / (rows * nstmt), "ratio", ns);
    add("core.segments_eliminated",
        static_cast<double>(total.segments_eliminated), "count", ns);
    add("core.batches", static_cast<double>(total.batches), "count", ns);
    add("core.sel_batches.gather", static_cast<double>(total.selection.gather),
        "count", ns);
    add("core.sel_batches.compact",
        static_cast<double>(total.selection.compact), "count", ns);
    add("core.sel_batches.special_group",
        static_cast<double>(total.selection.special_group), "count", ns);
    add("core.sel_batches.unfiltered",
        static_cast<double>(total.selection.unfiltered), "count", ns);
    for (int a = 0; a < bipie::kNumAggregationStrategies; ++a) {
      add(std::string("core.agg_segments.") +
              bipie::AggregationStrategyName(static_cast<AggregationStrategy>(a)),
          static_cast<double>(total.aggregation_segments[a]), "count", ns);
    }
    add("core.runs_aggregated", static_cast<double>(total.runs_aggregated),
        "count", ns);
    add("core.hash_fallbacks", static_cast<double>(fallbacks), "count", ns);
  }

  // --- core: plan regret against every forced plan -----------------------
  // The chosen plan (no overrides) and the forced plans are timed alike: the
  // scan is built outside the timed region, only Execute() is timed and the
  // result is checked afterwards. Plans are timed in kRepeats interleaved
  // rounds, so a drift in host speed reaches every plan, and each keeps its
  // fastest run. A forced plan that took the chosen plan's path is the same
  // plan and is not an alternative: counting it would let the minimum over
  // several copies of one plan beat the chosen copy by noise alone.
  {
    ScopedSpan layer(rec, "core.regret", -1);
    double chosen = 0, best = 0;
    size_t plans = 0;
    const size_t count = std::min(kRegretStatements, in.statements.size());
    for (size_t k = 0; k < count; ++k) {
      const Statement* s = in.statements[k];
      struct Plan {
        bipie::StrategyOverrides o;
        double cycles;
        ScanStats stats;
      };
      // candidates[0] is the chosen plan.
      std::vector<Plan> candidates{{bipie::StrategyOverrides{}, -1.0, {}}};
      for (int sel = -1; sel < 3; ++sel) {
        for (int agg = -1; agg < bipie::kNumAggregationStrategies; ++agg) {
          if (sel < 0 && agg < 0) continue;  // that is the chosen plan
          bipie::StrategyOverrides o;
          if (sel >= 0) o.selection = static_cast<SelectionStrategy>(sel);
          if (agg >= 0) o.aggregation = static_cast<AggregationStrategy>(agg);
          candidates.push_back({o, -1.0, {}});
        }
      }
      // Plans found not applicable in the first round are not run again.
      std::vector<bool> applicable(candidates.size(), true);
      for (size_t r = 0; r < kRepeats; ++r) {
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (!applicable[i]) continue;
          Plan& p = candidates[i];
          ScanOptions opts;
          opts.num_threads = 1;
          opts.overrides = p.o;
          BIPieScan scan(t, s->spec, opts);
          ScopedSpan span(rec, "core.execute_plan", layer.index());
          const uint64_t t0 = Now();
          auto result = scan.Execute();
          const double c = static_cast<double>(Now() - t0);
          if (!result.ok() &&
              result.status().code() == bipie::StatusCode::kNotSupported) {
            applicable[i] = false;
            continue;
          }
          if (checker.Check(result, in.expected[k], "forced plan")) {
            p.cycles = p.cycles < 0 ? c : std::min(p.cycles, c);
            p.stats = scan.stats();
          }
        }
      }
      const Plan& own = candidates[0];
      if (own.cycles < 0) continue;  // counted as a failure
      double best_k = own.cycles;
      for (size_t i = 1; i < candidates.size(); ++i) {
        const Plan& p = candidates[i];
        if (p.cycles < 0 || SamePath(p.stats, own.stats)) continue;
        ++plans;
        best_k = std::min(best_k, p.cycles);
      }
      chosen += own.cycles;
      best += best_k;
    }
    add("core.plan_regret", best > 0 ? chosen / best : 0, "ratio",
        std::max<size_t>(plans, 1));
  }
  return report;
}

}  // namespace perfbench
