#include "core/scan.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <new>
#include <thread>

#include "baseline/hash_agg.h"
#include "common/failpoint.h"
#include "common/memory_tracker.h"
#include "exec/scheduler.h"
#include "exec/task_group.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/batch.h"
#include "vector/selection_vector.h"

namespace bipie {

// Composite key for merging per-segment local groups into global results.
// Group values decode to int64s and strings; a vector of GroupValue with
// operator< gives deterministic ordering for the sorted output.
using GroupKey = std::vector<GroupValue>;

namespace internal_scan {
// What one morsel contributes to the global result.
struct SegmentContribution {
  GroupKey key;
  uint64_t count = 0;
  std::vector<int64_t> values;  // one per aggregate spec
};

std::vector<size_t> LargestFirstOrder(const std::vector<size_t>& sizes) {
  std::vector<size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&sizes](size_t a, size_t b) { return sizes[a] > sizes[b]; });
  return order;
}
}  // namespace internal_scan
using internal_scan::SegmentContribution;

namespace {

// Per-worker selection scratch, reused across every morsel a thread
// executes. Morsels never share a scratch (pool workers, legacy threads and
// the inline path each run morsels to completion on one thread), so the
// buffers only grow to the largest batch ever seen and the per-morsel
// allocations disappear from the steady state.
struct MorselScratch {
  AlignedBuffer sel_buf;
};

MorselScratch& ThreadMorselScratch() {
  thread_local MorselScratch scratch;
  // The scratch outlives any one query, so its retained charge must be
  // re-homed to the process root when a query's tracker scope exits.
  thread_local const bool registered = [] {
    RegisterThreadScratchBuffer(&scratch.sel_buf);
    return true;
  }();
  (void)registered;
  return scratch;
}

// Process-wide scan counters (DESIGN.md §12). Reported in bulk — once per
// Execute, from the already-merged ScanStats — so the per-row and per-batch
// hot loops never touch an atomic.
struct ScanCounters {
  obs::Counter& queries = obs::Counter::Get("scan.queries");
  obs::Counter& hash_fallbacks = obs::Counter::Get("scan.hash_fallbacks");
  obs::Counter& cancelled = obs::Counter::Get("scan.cancelled");
  obs::Counter& errors = obs::Counter::Get("scan.errors");
  obs::Counter& soft_limit_exceeded =
      obs::Counter::Get("scan.soft_limit_exceeded");
  obs::Counter& morsels = obs::Counter::Get("scan.morsels");
  obs::Counter& segments_scanned = obs::Counter::Get("scan.segments_scanned");
  obs::Counter& segments_eliminated =
      obs::Counter::Get("scan.segments_eliminated");
  obs::Counter& batches = obs::Counter::Get("scan.batches");
  obs::Counter& rows_scanned = obs::Counter::Get("scan.rows_scanned");
  obs::Counter& rows_selected = obs::Counter::Get("scan.rows_selected");
  obs::Counter& runs_aggregated = obs::Counter::Get("scan.runs_aggregated");
  obs::Counter& rows_run_aggregated =
      obs::Counter::Get("scan.rows_run_aggregated");
};

ScanCounters& Counters() {
  static ScanCounters counters;
  return counters;
}

// Intersects two ascending, non-overlapping interval lists.
void IntersectIntervals(const std::vector<SelInterval>& a,
                        const std::vector<SelInterval>& b,
                        std::vector<SelInterval>* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const size_t end_a = a[i].start + a[i].len;
    const size_t end_b = b[j].start + b[j].len;
    const size_t lo = std::max(a[i].start, b[j].start);
    const size_t hi = std::min(end_a, end_b);
    if (hi > lo) out->push_back({lo, hi - lo});
    if (end_a <= end_b) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace

BIPieScan::BIPieScan(const Table& table, QuerySpec query, ScanOptions options)
    : table_(table), query_(std::move(query)), options_(std::move(options)) {}

Status BIPieScan::ScanMorsel(const Morsel& morsel,
                             const std::vector<int>& filter_cols,
                             ScanStats* stats,
                             std::vector<SegmentContribution>* out) {
  // Every allocation this morsel makes — scratch growth, processor
  // buffers, mapper structures — is charged against the query's tracker,
  // and a hard-limit breach on a throwing Resize path surfaces here as a
  // structured per-morsel kResourceExhausted. The deterministic error
  // reduction in Execute then fails the whole query: complete or error,
  // never a partial aggregate.
  QueryContext* const ctx = options_.context;
  MemoryTrackerScope memory_scope(ctx != nullptr ? &ctx->memory_tracker()
                                                 : nullptr);
  try {
    return ScanMorselImpl(morsel, filter_cols, stats, out);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "morsel allocation exceeded the memory limit");
  }
}

// Scans one morsel (a batch-aligned row range of one segment) end to end:
// filter evaluation, fused batch processing, result decode. Thread-safe with
// respect to other morsels (only reads the table; all mutable state is local
// or in `stats`, which is private to this morsel).
Status BIPieScan::ScanMorselImpl(const Morsel& morsel,
                                 const std::vector<int>& filter_cols,
                                 ScanStats* stats,
                                 std::vector<SegmentContribution>* out) {
  const Segment& segment = table_.segment(morsel.segment_index);
  QueryContext* ctx = options_.context;
  BIPIE_TRACE_SPAN_ARG("scan.morsel", "scan", "segment",
                       morsel.segment_index);

  AggregateProcessor processor;
  BIPIE_RETURN_NOT_OK(
      processor.Bind(table_, segment, query_, options_.overrides));
  if (morsel.counts_segment) {
    stats->aggregation_segments[static_cast<int>(
        processor.aggregation_strategy())]++;
  }

  MorselScratch& scratch = ThreadMorselScratch();
  AlignedBuffer& sel_buf = scratch.sel_buf;
  // The selection scratch is sized up front for the largest batch this
  // morsel will see, so a failed allocation degrades to a structured
  // kResourceExhausted here — before any batch is processed — and the scan
  // as a whole stays complete-or-error, never a partial aggregate.
  const size_t scratch_rows = std::min<size_t>(morsel.num_rows, kBatchRows);
  if (BIPIE_FAILPOINT("scan/morsel_scratch_alloc") ||
      !sel_buf.TryResize(scratch_rows)) {
    return Status::ResourceExhausted("morsel selection scratch allocation");
  }

  if (processor.aggregation_strategy() == AggregationStrategy::kRunBased) {
    BIPIE_RETURN_NOT_OK(RunPipeline(morsel, filter_cols, &processor, stats));
    return FinishMorsel(processor, stats, out);
  }

  BatchCursor cursor(segment, kBatchRows, morsel.start_row, morsel.num_rows);
  BatchView view;
  while (cursor.Next(&view)) {
    // Cancellation point: batch granularity bounds the latency of Cancel()
    // to one 4096-row batch per executing worker.
    if (ctx != nullptr) BIPIE_RETURN_NOT_OK(ctx->CheckNotCancelled());
    ++stats->batches;
    stats->rows_scanned += view.num_rows;
    const uint8_t* sel = nullptr;
    if (!query_.filters.empty()) {
      sel_buf.Resize(view.num_rows);
      // Conjunct 1 writes the selection; conjuncts 2..k AND into it in
      // place (bit-packed columns inside the unpack kernel's registers).
      for (size_t f = 0; f < query_.filters.size(); ++f) {
        BIPIE_RETURN_NOT_OK(query_.filters[f].Evaluate(
            segment.column(filter_cols[f]), view.start, view.num_rows,
            sel_buf.data(), processor.plan_decision().byteslice_admitted,
            f == 0 ? SelectionWrite::kOverwrite : SelectionWrite::kAndInto));
      }
      sel = sel_buf.data();
    }
    // Deleted rows are zeroed into the selection byte vector (§4).
    if (view.alive_bytes() != nullptr) {
      if (sel == nullptr) {
        sel_buf.Resize(view.num_rows);
        std::memcpy(sel_buf.data(), view.alive_bytes(), view.num_rows);
        sel = sel_buf.data();
      } else {
        AndSelection(sel_buf.data(), view.alive_bytes(), view.num_rows,
                     sel_buf.data());
      }
    }
    // The merged vector (filter results ANDed with the liveness mask) is the
    // last point before the kernels consume it; every byte must be canonical.
    BIPIE_DCHECK_SEL_CANONICAL(sel, view.num_rows);
    if (sel != nullptr) {
      stats->rows_selected += CountSelected(sel, view.num_rows);
    } else {
      stats->rows_selected += view.num_rows;
    }
    BIPIE_RETURN_NOT_OK(
        processor.ProcessBatch(view.start, view.num_rows, sel));
  }

  return FinishMorsel(processor, stats, out);
}

// Shared morsel epilogue for the batch loop and the run pipeline: merge
// per-batch selection stats, finalize the processor and decode the local
// groups into contributions.
Status BIPieScan::FinishMorsel(AggregateProcessor& processor, ScanStats* stats,
                               std::vector<SegmentContribution>* out) {
  const auto& pstats = processor.selection_stats();
  stats->selection.gather += pstats.gather;
  stats->selection.compact += pstats.compact;
  stats->selection.special_group += pstats.special_group;
  stats->selection.unfiltered += pstats.unfiltered;

  AggregateProcessor::SegmentResult local;
  BIPIE_RETURN_NOT_OK(processor.Finish(&local));

  const size_t num_specs = query_.aggregates.size();
  for (int g = 0; g < local.num_groups; ++g) {
    if (local.counts[g] == 0) continue;  // group absent from this morsel
    SegmentContribution contribution;
    for (int k = 0; k < local.mapper->num_columns(); ++k) {
      contribution.key.push_back(local.mapper->ValueOf(g, k));
    }
    contribution.count = local.counts[g];
    contribution.values.assign(
        local.values.begin() + static_cast<size_t>(g) * num_specs,
        local.values.begin() + (static_cast<size_t>(g) + 1) * num_specs);
    out->push_back(std::move(contribution));
  }
  return Status::OK();
}

// The run-level sibling of the batch loop. Instead of materializing
// per-row selection bytes and group ids, the morsel window is tiled into
// (group, row-range) spans — the intersection of the group-run tiling,
// every filter's run verdicts and the window itself — and each surviving
// span is aggregated in one ProcessRunSpan call. Filters that metadata
// proves always-true drop out entirely; an RLE filter contributes one
// interval list walk, independent of row count.
Status BIPieScan::RunPipeline(const Morsel& morsel,
                              const std::vector<int>& filter_cols,
                              AggregateProcessor* processor,
                              ScanStats* stats) {
  const Segment& segment = table_.segment(morsel.segment_index);
  QueryContext* ctx = options_.context;
  BIPIE_TRACE_SPAN_ARG("scan.run_pipeline", "scan", "segment",
                       morsel.segment_index);
  const size_t start = morsel.start_row;
  const size_t n = morsel.num_rows;
  stats->rows_scanned += n;

  // Selected intervals: the whole window, narrowed by each filter in turn.
  std::vector<SelInterval> selected{{start, n}};
  std::vector<SelInterval> runs;
  std::vector<SelInterval> narrowed;
  for (size_t f = 0; f < query_.filters.size(); ++f) {
    const EncodedColumn& col = segment.column(filter_cols[f]);
    if (query_.filters[f].MatchesAllRows(col)) continue;
    runs.clear();
    BIPIE_RETURN_NOT_OK(
        query_.filters[f].EvaluateRuns(col, start, n, &runs));
    IntersectIntervals(selected, runs, &narrowed);
    selected.swap(narrowed);
    if (selected.empty()) return Status::OK();
  }

  std::vector<GroupRunSpan> spans;
  spans.reserve(processor->group_mapper().run_count_bound());
  processor->group_mapper().AppendRunSpans(start, n, &spans);

  // Two-pointer intersection of the group tiling with the selected
  // intervals; pieces come out in ascending start order, which the
  // processor's RLE cursors rely on.
  size_t pieces = 0;
  size_t i = 0, j = 0;
  while (i < spans.size() && j < selected.size()) {
    const size_t end_span = spans[i].start + spans[i].len;
    const size_t end_sel = selected[j].start + selected[j].len;
    const size_t lo = std::max(spans[i].start, selected[j].start);
    const size_t hi = std::min(end_span, end_sel);
    if (hi > lo) {
      // Cancellation point: span granularity is coarse, so bound the check
      // frequency rather than the per-check work.
      if (ctx != nullptr && (pieces++ & 63) == 0) {
        BIPIE_RETURN_NOT_OK(ctx->CheckNotCancelled());
      }
      BIPIE_RETURN_NOT_OK(
          processor->ProcessRunSpan(spans[i].group, lo, hi - lo));
      ++stats->runs_aggregated;
      stats->rows_run_aggregated += hi - lo;
      stats->rows_selected += hi - lo;
    }
    if (end_span <= end_sel) {
      ++i;
    } else {
      ++j;
    }
  }
  return Status::OK();
}

Result<QueryResult> BIPieScan::Execute() {
  // Belt and braces under memory pressure: morsel bodies convert their own
  // bad_alloc, so anything reaching this frame came from the untracked glue
  // (work lists, contribution merge). The answer is the same structured
  // error either way.
  try {
    Result<QueryResult> result = ExecuteImpl();
    QueryContext* const ctx = options_.context;
    if (ctx != nullptr && ctx->memory_tracker().soft_limit_exceeded()) {
      Counters().soft_limit_exceeded.Increment();
    }
    return result;
  } catch (const std::bad_alloc&) {
    Counters().errors.Increment();
    return Status::ResourceExhausted("scan ran out of memory");
  }
}

Result<QueryResult> BIPieScan::ExecuteImpl() {
  stats_ = ScanStats{};
  BIPIE_TRACE_SPAN("scan.execute", "scan");
  Counters().queries.Increment();
  QueryContext* ctx = options_.context;
  if (ctx != nullptr) BIPIE_RETURN_NOT_OK(ctx->CheckNotCancelled());

  // Admission: the scan does no work — and allocates nothing — until the
  // gate grants a slot; the ticket spans the whole execution.
  AdmissionController& admission = options_.admission != nullptr
                                       ? *options_.admission
                                       : AdmissionController::Global();
  AdmissionController::Ticket admission_ticket;
  BIPIE_RETURN_NOT_OK(admission.Admit(ctx, &admission_ticket,
                                      options_.priority,
                                      &stats_.admission_wait_ns));

  // Resolve filter column indices once.
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query_.filters) {
    const int idx = table_.FindColumn(pred.column_name());
    if (idx < 0) {
      return Status::InvalidArgument("unknown filter column: " +
                                     pred.column_name());
    }
    filter_cols.push_back(idx);
  }

  // Segment elimination pass builds the scan work list.
  std::vector<size_t> work;
  for (size_t s = 0; s < table_.num_segments(); ++s) {
    const Segment& segment = table_.segment(s);
    if (segment.num_rows() == 0) continue;
    if (options_.enable_segment_elimination) {
      bool eliminated = false;
      for (size_t f = 0; f < query_.filters.size(); ++f) {
        if (query_.filters[f].EliminatesSegment(
                segment.column(filter_cols[f]))) {
          eliminated = true;
          break;
        }
      }
      if (eliminated) {
        ++stats_.segments_eliminated;
        continue;
      }
    }
    work.push_back(s);
  }
  stats_.segments_scanned = work.size();

  // The work list becomes morsels. Pooled scans chunk large segments into
  // batch-aligned ~64K-row ranges so work stealing rebalances skew; the
  // inline and legacy-spawn paths keep whole segments. Morsel order (the
  // work_index) is canonical — segment order then range order — and every
  // reduction below is ordered by it, never by completion order.
  // A pooled scan only pays off when the pool adds parallelism beyond the
  // calling thread (which already helps drain its own task group). On a
  // single-hardware-thread host with a 1-worker pool the pooled path would
  // only buy thread ping-pong, so run inline instead; BIPIE_SCHEDULER_THREADS
  // (tests, CI) widens the pool and keeps the morsel path exercised anywhere.
  const bool pooled =
      options_.num_threads == 0 &&
      (Scheduler::Global().num_workers() > 1 ||
       std::thread::hardware_concurrency() > 1);
  size_t morsel_rows =
      options_.morsel_rows == 0 ? kDefaultMorselRows : options_.morsel_rows;
  morsel_rows = (morsel_rows + kBatchRows - 1) / kBatchRows * kBatchRows;
  std::vector<Morsel> morsels;
  for (const size_t s : work) {
    const size_t rows = table_.segment(s).num_rows();
    if (pooled) {
      for (size_t start = 0; start < rows; start += morsel_rows) {
        morsels.push_back({morsels.size(), s, start,
                           std::min(morsel_rows, rows - start), start == 0});
      }
    } else {
      morsels.push_back({morsels.size(), s, 0, rows, true});
    }
  }

  std::vector<std::vector<SegmentContribution>> contributions(morsels.size());
  // Per-morsel status so error selection cannot depend on scheduling: the
  // failure reported to the caller is always the lowest-indexed real error,
  // falling back to the lowest-indexed kNotSupported rejection. A real error
  // (e.g. kOverflowRisk) must never be masked by another morsel's
  // kNotSupported, which would silently flip the hash-fallback decision with
  // execution ordering.
  std::vector<Status> morsel_status(morsels.size());
  std::vector<ScanStats> morsel_stats(morsels.size());

  if (pooled) {
    // Morsels above the lowest real-error index recorded so far may be
    // skipped: they can never win the deterministic error selection (real
    // errors outrank kNotSupported, lower index outranks higher), and their
    // contributions would be discarded with the failure anyway. Morsels at
    // or below it always run, so the true minimum is always found and, when
    // no real error exists at all, nothing is skipped and the kNotSupported
    // reduction sees every morsel.
    std::atomic<size_t> first_real_error{SIZE_MAX};
    TaskGroup group(&Scheduler::Global(), ctx);
    for (const Morsel& morsel : morsels) {
      group.Submit([this, morsel, &filter_cols, &morsel_status, &morsel_stats,
                    &contributions, &first_real_error] {
        if (morsel.work_index >
            first_real_error.load(std::memory_order_acquire)) {
          return;
        }
        Status st =
            ScanMorsel(morsel, filter_cols, &morsel_stats[morsel.work_index],
                       &contributions[morsel.work_index]);
        if (!st.ok() && st.code() != StatusCode::kNotSupported) {
          size_t cur = first_real_error.load(std::memory_order_relaxed);
          while (morsel.work_index < cur &&
                 !first_real_error.compare_exchange_weak(
                     cur, morsel.work_index, std::memory_order_acq_rel)) {
          }
        }
        morsel_status[morsel.work_index] = std::move(st);
      });
    }
    group.Wait();
  } else {
    const size_t threads = std::max<size_t>(
        1, std::min<size_t>(options_.num_threads, morsels.size()));
    if (threads <= 1) {
      // Inline path: drain the largest work items first so a pathological
      // segment (RLE-heavy, or the only survivor of elimination) is started
      // as early as possible — the order any future chunking or handoff of
      // the tail would want. Result and error selection stay canonical: the
      // reductions below run over work_index, not execution order.
      std::vector<size_t> sizes(morsels.size());
      for (size_t m = 0; m < morsels.size(); ++m) {
        sizes[m] = morsels[m].num_rows;
      }
      for (const size_t m : internal_scan::LargestFirstOrder(sizes)) {
        morsel_status[m] = ScanMorsel(morsels[m], filter_cols,
                                      &morsel_stats[m], &contributions[m]);
        // Keep scanning past kNotSupported (a later work item may surface a
        // real error that must take precedence); stop on real errors.
        if (!morsel_status[m].ok() &&
            morsel_status[m].code() != StatusCode::kNotSupported) {
          break;
        }
      }
    } else {
      // Legacy per-query model: fresh threads, whole segments claimed off a
      // shared atomic cursor (the paper's scan parallelism unit). Kept as
      // the explicit comparator the shared pool is benchmarked against.
      std::atomic<size_t> next{0};
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
          for (;;) {
            const size_t m = next.fetch_add(1);
            if (m >= morsels.size()) return;
            morsel_status[m] = ScanMorsel(morsels[m], filter_cols,
                                          &morsel_stats[m], &contributions[m]);
            if (!morsel_status[m].ok() &&
                morsel_status[m].code() != StatusCode::kNotSupported) {
              return;
            }
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
  }

  // Merge per-morsel progress stats in canonical order.
  for (const ScanStats& ms : morsel_stats) {
    stats_.batches += ms.batches;
    stats_.rows_scanned += ms.rows_scanned;
    stats_.rows_selected += ms.rows_selected;
    stats_.runs_aggregated += ms.runs_aggregated;
    stats_.rows_run_aggregated += ms.rows_run_aggregated;
    stats_.selection.gather += ms.selection.gather;
    stats_.selection.compact += ms.selection.compact;
    stats_.selection.special_group += ms.selection.special_group;
    stats_.selection.unfiltered += ms.selection.unfiltered;
    for (int a = 0; a < kNumAggregationStrategies; ++a) {
      stats_.aggregation_segments[a] += ms.aggregation_segments[a];
    }
  }

  // Bulk counter report: the work this scan actually performed, whatever
  // the outcome below (a fallback or error still burned these cycles).
  {
    ScanCounters& c = Counters();
    c.morsels.Add(morsels.size());
    c.segments_scanned.Add(stats_.segments_scanned);
    c.segments_eliminated.Add(stats_.segments_eliminated);
    c.batches.Add(stats_.batches);
    c.rows_scanned.Add(stats_.rows_scanned);
    c.rows_selected.Add(stats_.rows_selected);
    c.runs_aggregated.Add(stats_.runs_aggregated);
    c.rows_run_aggregated.Add(stats_.rows_run_aggregated);
  }

  // A cancelled query never returns a (possibly partial) result, whatever
  // mix of statuses the morsels recorded before the flag landed.
  if (ctx != nullptr && ctx->is_cancelled()) {
    Counters().cancelled.Increment();
    return Status::Cancelled("query cancelled");
  }

  // Deterministic failure choice: lowest-indexed non-kNotSupported error
  // first, then lowest-indexed kNotSupported rejection.
  Status failure;
  for (const Status& st : morsel_status) {
    if (st.ok()) continue;
    if (failure.ok() || (failure.code() == StatusCode::kNotSupported &&
                         st.code() != StatusCode::kNotSupported)) {
      failure = st;
    }
    if (failure.code() != StatusCode::kNotSupported) break;
  }

  if (!failure.ok()) {
    // Outside the specialized envelope (e.g. >255 combined groups): degrade
    // gracefully to the generic engine — unless the caller explicitly
    // forced strategies, in which case the rejection is the answer.
    if (failure.code() == StatusCode::kNotSupported &&
        !options_.overrides.selection.has_value() &&
        !options_.overrides.aggregation.has_value() &&
        !options_.overrides.byteslice.has_value()) {
      // The progress counters describe the aborted specialized scan, not the
      // query that is about to run; reset them so callers never see a mix of
      // the two runs. The segment plan (scanned/eliminated) still stands.
      stats_.batches = 0;
      stats_.rows_scanned = 0;
      stats_.rows_selected = 0;
      stats_.runs_aggregated = 0;
      stats_.rows_run_aggregated = 0;
      stats_.selection = AggregateProcessor::SelectionStats{};
      for (size_t a = 0; a < kNumAggregationStrategies; ++a) {
        stats_.aggregation_segments[a] = 0;
      }
      stats_.used_hash_fallback = true;
      Counters().hash_fallbacks.Increment();
      return ExecuteQueryHashAgg(table_, query_, ctx);
    }
    Counters().errors.Increment();
    return failure;
  }

  // Merge contributions (deterministic: morsel order, then group order).
  const size_t num_specs = query_.aggregates.size();
  std::map<GroupKey, ResultRow> merged;
  for (const auto& morsel_contributions : contributions) {
    for (const SegmentContribution& c : morsel_contributions) {
      // try_emplace makes first-contribution detection structural: testing
      // row.sums.empty() breaks down for count-only queries (num_specs == 0
      // keeps sums empty forever, so MIN/MAX seeding and group assignment
      // would re-trigger on every contribution).
      auto [it, first_contribution] = merged.try_emplace(c.key);
      ResultRow& row = it->second;
      if (first_contribution) {
        row.group = c.key;
        row.sums.assign(num_specs, 0);
      }
      row.count += c.count;
      for (size_t a = 0; a < num_specs; ++a) {
        switch (query_.aggregates[a].kind) {
          case AggregateSpec::Kind::kMin:
            row.sums[a] = first_contribution
                              ? c.values[a]
                              : std::min(row.sums[a], c.values[a]);
            break;
          case AggregateSpec::Kind::kMax:
            row.sums[a] = first_contribution
                              ? c.values[a]
                              : std::max(row.sums[a], c.values[a]);
            break;
          default:
            row.sums[a] += c.values[a];
            break;
        }
      }
    }
  }

  QueryResult result;
  result.group_column_names = query_.group_by;
  result.rows.reserve(merged.size());
  for (auto& [key, row] : merged) {
    // kCount spec slots must reflect the merged count.
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      if (query_.aggregates[a].kind == AggregateSpec::Kind::kCount) {
        row.sums[a] = static_cast<int64_t>(row.count);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

Result<QueryResult> ExecuteQuery(const Table& table, QuerySpec query,
                                 ScanOptions options) {
  BIPieScan scan(table, std::move(query), std::move(options));
  return scan.Execute();
}

ScanOptions MakeScanOptions(QueryContext* context) {
  ScanOptions options;
  options.context = context;
  if (context == nullptr) return options;
  const QuerySettings& settings = context->settings();
  options.num_threads = static_cast<size_t>(settings.num_threads());
  options.morsel_rows = static_cast<size_t>(settings.morsel_rows());
  options.enable_segment_elimination = settings.enable_segment_elimination();
  // The strategy-force strings are validated against the registry's
  // allowed list, which is generated from these same display names — a
  // non-empty value always resolves.
  const std::string& sel = settings.force_selection_strategy();
  if (!sel.empty()) {
    for (int s = 0; s < 3; ++s) {
      const auto strategy = static_cast<SelectionStrategy>(s);
      if (sel == SelectionStrategyName(strategy)) {
        options.overrides.selection = strategy;
        break;
      }
    }
    BIPIE_DCHECK(options.overrides.selection.has_value());
  }
  // Empty means "unset" (the registry always allows it): keep the default.
  const std::string& priority = settings.priority();
  if (!priority.empty()) {
    const bool parsed = ParseQueryPriority(priority, &options.priority);
    BIPIE_DCHECK(parsed);
  }
  const std::string& agg = settings.force_aggregation_strategy();
  if (!agg.empty()) {
    for (size_t a = 0; a < kNumAggregationStrategies; ++a) {
      const auto strategy = static_cast<AggregationStrategy>(a);
      if (agg == AggregationStrategyName(strategy)) {
        options.overrides.aggregation = strategy;
        break;
      }
    }
    BIPIE_DCHECK(options.overrides.aggregation.has_value());
  }
  const std::string& byteslice = settings.force_byteslice();
  if (!byteslice.empty()) {
    options.overrides.byteslice = byteslice == "on";
  }
  const std::string& cost_model = settings.cost_model();
  if (!cost_model.empty()) {
    const auto mode = ParseCostModelMode(cost_model);
    BIPIE_DCHECK(mode.has_value());
    if (mode.has_value()) options.overrides.cost_model = *mode;
  }
  return options;
}

}  // namespace bipie
