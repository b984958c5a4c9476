// Workload definitions of the repository benchmark: the seeded input tables,
// the statement streams and the client setup of each named workload.
//
// Every input is a pure function of (workload, seed). The generators use
// their own random stream (SplitMix below), not the library's, so a change
// to the program cannot change the data it is measured on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "storage/table.h"

namespace perfbench {

enum class Workload { kTpchQ1, kTpchQ6, kDashboardMix };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

// SplitMix64: tiny, seedable and stable across library versions.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi] inclusive.
  int64_t InRange(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed from a seed and a salt.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

// One statement of a workload: the SQL text the service receives and the
// equivalent QuerySpec, built independently of the SQL parser, that the
// hash-aggregation oracle runs.
struct Statement {
  std::string sql;
  bipie::QuerySpec spec;
};

struct WorkloadSpec {
  Workload workload = Workload::kTpchQ1;
  // Table the statements read; also the stem of the cached file name.
  // tpch_q1 and tpch_q6 share one lineitem file per seed.
  std::string table_name;
  size_t rows = 0;
  size_t segment_rows = 0;
  // Closed-loop clients, each with its own connection.
  size_t clients = 1;
  // Session num_threads for every client (0 = the shared morsel pool).
  uint64_t num_threads = 1;
};

WorkloadSpec SpecFor(Workload w);

// Builds the workload's table for `seed` (segments built on `threads`
// threads; the bytes do not depend on the thread count).
bipie::Table MakeTable(const WorkloadSpec& spec, uint64_t seed,
                       size_t threads);

// The workload's distinct statements for `seed`, resolved against the
// schema of MakeTable's table.
std::vector<Statement> MakeStatements(const WorkloadSpec& spec, uint64_t seed,
                                      const bipie::Table& table);

// Statement indices client `client` sends, in order, wrapping around:
// seeded permutations of all statements, back to back.
std::vector<uint32_t> ClientSchedule(uint64_t seed, size_t client,
                                     size_t num_statements, size_t length);

// Cached table file for (spec, seed): generated on first use, written to a
// temporary name and renamed into place. `key` separates caches made by
// different versions of the encoder. Keeps at most `keep` files per table
// name, dropping the oldest.
bipie::Result<std::string> EnsureTableFile(const WorkloadSpec& spec,
                                           uint64_t seed,
                                           const std::string& cache_dir,
                                           const std::string& key,
                                           size_t keep);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
