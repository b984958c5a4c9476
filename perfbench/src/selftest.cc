// Self-test of the benchmark's own machinery: self-time arithmetic, seeded
// inputs, and the oracle gate. Run through `python3 perfbench/run.py
// --selftest`, which also checks end to end that a planted mismatch fails a
// whole benchmark run.
//
//   perfbench_selftest [scratch-dir]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/scan.h"
#include "oracle.h"
#include "spans.h"
#include "sql/parser.h"
#include "storage/table_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void TestSelfTime() {
  // No children: the whole interval.
  EXPECT(SelfTimeNs(100, 200, {}) == 100);
  // Overlapping children count once: [110,150) u [130,170) = 60.
  EXPECT(SelfTimeNs(100, 200, {{110, 150}, {130, 170}}) == 40);
  // A child nested inside another adds nothing.
  EXPECT(SelfTimeNs(100, 200, {{110, 190}, {120, 130}}) == 20);
  // Children are clipped to the parent; unsorted input is fine.
  EXPECT(SelfTimeNs(100, 200, {{190, 250}, {50, 120}}) == 70);
  // Children covering everything leave no self time.
  EXPECT(SelfTimeNs(100, 200, {{100, 160}, {150, 200}}) == 0);
  // Empty or inverted spans.
  EXPECT(SelfTimeNs(100, 100, {{90, 110}}) == 0);
  EXPECT(SelfTimeNs(100, 200, {{150, 140}}) == 100);

  // By name over a tree: root [0,100) with overlapping children a [10,40)
  // and b [30,60); a has a grandchild [15,25).
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1, 0},
      {"a", 10, 40, 0, 1, 0},
      {"b", 30, 60, 0, 1, 0},
      {"c", 15, 25, 1, 1, 0},
  };
  auto self = SelfTimeByName(spans);
  EXPECT(self["root"] == 50);
  EXPECT(self["a"] == 20);
  EXPECT(self["b"] == 30);
  EXPECT(self["c"] == 10);

  SpanRecorder off(false);
  EXPECT(off.Add("x", 0, 1, -1, 0) == -1);
  EXPECT(off.spans().empty());
  SpanRecorder on(true);
  {
    ScopedSpan outer(&on, "outer");
    ScopedSpan inner(&on, "inner", outer.index(), 7);
  }
  const auto recorded = on.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == 0 && recorded[1].request_id == 7);
  EXPECT(recorded[0].start_ns <= recorded[1].start_ns &&
         recorded[1].end_ns <= recorded[0].end_ns);
  EXPECT(ToChromeTrace(recorded).find("\"name\":\"inner\"") !=
         std::string::npos);
}

std::string SavedBytes(const bipie::Table& table, const std::string& path) {
  if (!bipie::SaveTable(table, path).ok()) return {};
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string Sql(const std::vector<Statement>& stmts) {
  std::string s;
  for (const Statement& x : stmts) s += x.sql + ";\n";
  return s;
}

void TestSeededInputs(const std::string& dir) {
  for (Workload w : {Workload::kTpchQ1, Workload::kDashboardMix}) {
    WorkloadSpec spec = SpecFor(w);
    spec.rows = 3 * spec.segment_rows / 2 + 17;  // short tail segment
    if (w != Workload::kDashboardMix) {
      spec.segment_rows = 1 << 16;
      spec.rows = (1 << 17) + 5;
    }
    const bipie::Table a = MakeTable(spec, 42, 1);
    const bipie::Table b = MakeTable(spec, 42, 4);
    const bipie::Table c = MakeTable(spec, 43, 4);
    const std::string ba = SavedBytes(a, dir + "/a.bipie");
    EXPECT(!ba.empty());
    EXPECT(ba == SavedBytes(b, dir + "/b.bipie"));
    EXPECT(ba != SavedBytes(c, dir + "/c.bipie"));
    EXPECT(Sql(MakeStatements(spec, 42, a)) == Sql(MakeStatements(spec, 42, b)));
  }
  const WorkloadSpec mix = SpecFor(Workload::kDashboardMix);
  WorkloadSpec small = mix;
  small.rows = small.segment_rows * 2;
  const bipie::Table t = MakeTable(small, 1, 4);
  EXPECT(Sql(MakeStatements(mix, 5, t)) != Sql(MakeStatements(mix, 6, t)));
  EXPECT(ClientSchedule(5, 0, 128, 64) == ClientSchedule(5, 0, 128, 64));
  EXPECT(ClientSchedule(5, 0, 128, 64) != ClientSchedule(6, 0, 128, 64));
  EXPECT(ClientSchedule(5, 0, 128, 64) != ClientSchedule(5, 1, 128, 64));
}

// The SQL text and the oracle's QuerySpec describe the same statement, the
// BIPie scan agrees with the oracle on every one, and a planted wrong
// expectation is caught. Also checks the paths the mix is meant to reach.
void TestOracleGate() {
  for (Workload w :
       {Workload::kTpchQ1, Workload::kTpchQ6, Workload::kDashboardMix}) {
    WorkloadSpec spec = SpecFor(w);
    spec.segment_rows = 1 << 16;
    spec.rows = (1 << 17) + 999;
    const bipie::Table table = MakeTable(spec, 9, 4);
    const std::vector<Statement> stmts = MakeStatements(spec, 9, table);
    auto expected = ComputeExpected(table, stmts, 4);
    EXPECT(expected.ok());
    if (!expected.ok()) continue;
    size_t fallbacks = 0, run_based = 0;
    for (size_t k = 0; k < stmts.size(); ++k) {
      auto parsed = bipie::ParseQuery(stmts[k].sql, table);
      EXPECT(parsed.ok());
      if (!parsed.ok()) continue;
      bipie::BIPieScan scan(table, parsed.value().spec);
      auto got = scan.Execute();
      EXPECT(got.ok());
      if (!got.ok()) continue;
      if (scan.stats().used_hash_fallback) ++fallbacks;
      if (scan.stats().runs_aggregated > 0) ++run_based;
      std::string why;
      const bool same = SameResult(got.value(), expected.value().results[k], &why);
      if (!same) std::fprintf(stderr, "statement %zu: %s\n", k, why.c_str());
      EXPECT(same);
      bipie::QueryResult planted = expected.value().results[k];
      PlantMismatch(&planted);
      EXPECT(!SameResult(got.value(), planted, &why));
    }
    EXPECT(fallbacks == 0);  // every statement stays on the BIPie path
    // The mix's rollups reach the run-based path.
    if (w == Workload::kDashboardMix) EXPECT(run_based > 0);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".bench_out/selftest";
  std::filesystem::create_directories(dir);
  perfbench::TestSelfTime();
  perfbench::TestSeededInputs(dir);
  perfbench::TestOracleGate();
  std::filesystem::remove_all(dir);
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
