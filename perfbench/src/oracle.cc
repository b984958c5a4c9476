#include "oracle.h"

#include <atomic>
#include <thread>

#include "baseline/hash_agg.h"
#include "common/cycle_timer.h"

namespace perfbench {

bipie::Result<Expected> ComputeExpected(const bipie::Table& table,
                                        const std::vector<Statement>& stmts,
                                        size_t threads) {
  std::vector<bipie::Result<bipie::QueryResult>> results(
      stmts.size(), bipie::Status::Internal("not run"));
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> cycles{0};
  auto worker = [&] {
    for (size_t i = next++; i < stmts.size(); i = next++) {
      const uint64_t t0 = bipie::ReadCycleCounter();
      results[i] = bipie::ExecuteQueryHashAgg(table, stmts[i].spec);
      cycles += bipie::ReadCycleCounter() - t0;
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < std::min(std::max<size_t>(1, threads), stmts.size());
       ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (auto& th : pool) th.join();

  Expected out;
  for (size_t i = 0; i < stmts.size(); ++i) {
    if (!results[i].ok()) {
      return bipie::Status::Internal("oracle failed on statement " +
                                     std::to_string(i) + ": " +
                                     results[i].status().ToString());
    }
    out.results.push_back(std::move(results[i].value()));
  }
  out.cycles = cycles.load();
  out.rows = static_cast<uint64_t>(table.num_rows()) * stmts.size();
  return out;
}

namespace {
std::string GroupText(const bipie::ResultRow& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.group.size(); ++i) {
    const bipie::GroupValue& g = row.group[i];
    s += (i ? "," : "") +
         (g.is_string ? "'" + g.string_value + "'" : std::to_string(g.int_value));
  }
  return s + ")";
}
}  // namespace

bool SameResult(const bipie::QueryResult& got, const bipie::QueryResult& want,
                std::string* why) {
  if (got.group_column_names != want.group_column_names) {
    *why = "group columns differ";
    return false;
  }
  if (got.rows.size() != want.rows.size()) {
    *why = "row count " + std::to_string(got.rows.size()) + " != expected " +
           std::to_string(want.rows.size());
    return false;
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    const bipie::ResultRow& g = got.rows[r];
    const bipie::ResultRow& w = want.rows[r];
    if (g.group != w.group) {
      *why = "row " + std::to_string(r) + " group " + GroupText(g) +
             " != expected " + GroupText(w);
      return false;
    }
    if (g.count != w.count) {
      *why = "group " + GroupText(w) + " count " + std::to_string(g.count) +
             " != expected " + std::to_string(w.count);
      return false;
    }
    if (g.sums != w.sums) {
      *why = "group " + GroupText(w) + " aggregates differ";
      return false;
    }
  }
  return true;
}

void PlantMismatch(bipie::QueryResult* result) {
  if (result->rows.empty()) {
    result->rows.emplace_back();
    return;
  }
  bipie::ResultRow& row = result->rows.back();
  if (row.sums.empty()) {
    ++row.count;
  } else {
    ++row.sums.back();
  }
}

}  // namespace perfbench
