// Reproduces Table 4: sample performance of Multi-Aggregate SUM.
//
// 32 groups; rows are (number of sums, input byte sizes) combinations from
// the paper, reported as cycles/row/sum. Paper values: 8-2 -> 1.37,
// 8-4-1 -> 1.43, 8-8-4-2 -> 0.91, 8-4-4-2-2 -> 0.77, 4-4-2-2-2 -> 0.75 —
// more sums per register means higher efficiency per sum.
//
// One extra cell (not in the paper) has TPC-H Q1's shape: three 8-byte
// sums plus a 2- and a 1-byte sum over 4 groups with Q1's skew (49% / 25% /
// 25% / 1%), fed the way the scan feeds it — one cache-resident 4096-row
// batch per call — rather than streamed from memory like the paper cells.
// With so few groups, consecutive rows often share a group, the case the
// accumulator copies exist for.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "vector/agg_multi.h"

using namespace bipie;        // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

// Group ids drawn with the given weights (summing to 1).
AlignedBuffer MakeSkewedGroups(size_t n, const std::vector<double>& weights,
                               uint64_t seed) {
  AlignedBuffer groups(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.NextDouble();
    size_t g = 0;
    while (g + 1 < weights.size() && u >= weights[g]) u -= weights[g++];
    groups.data()[i] = static_cast<uint8_t>(g);
  }
  return groups;
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Table 4: multi-aggregate SUM, 32 groups, cycles/row/sum",
      "BIPie SIGMOD'18 Table 4 (paper: 1.37 / 1.43 / 0.91 / 0.77 / 0.75)");
  const size_t n = BenchRows();
  constexpr int kGroups = 32;
  const AlignedBuffer groups32 = MakeGroups(n, kGroups, 9);
  const AlignedBuffer groups_q1 =
      MakeSkewedGroups(n, {0.25, 0.01, 0.49, 0.25}, 9);

  struct Config {
    std::vector<int> input_bytes;  // paper's raw input sizes
    double paper;                  // < 0: not a paper cell
    int groups = kGroups;
  };
  const Config configs[] = {
      {{8, 2}, 1.37},          {{8, 4, 1}, 1.43},
      {{8, 8, 4, 2}, 0.91},    {{8, 4, 4, 2, 2}, 0.77},
      {{4, 4, 2, 2, 2}, 0.75}, {{8, 8, 8, 2, 1}, -1.0, 4}};

  std::printf("%6s %-14s %10s %12s\n", "#sums", "sizes (bytes)", "paper",
              "measured");
  double first = 0, last = 0;
  for (const Config& config : configs) {
    // Expansion rule (§5.4): 1-2 byte inputs -> 32-bit slots fed as u32
    // arrays; 4-8 byte inputs -> 64-bit slots fed as i64 arrays.
    std::vector<MultiAggregator::ColumnDesc> descs;
    std::vector<AlignedBuffer> arrays;
    std::vector<const void*> ptrs;
    int seed = 70;
    for (int raw : config.input_bytes) {
      const bool narrow = raw <= 2;
      descs.push_back({narrow ? 4 : 8});
      arrays.push_back(MakeDecodedValues(
          n, raw == 1 ? 8 : raw == 2 ? 15 : raw == 4 ? 28 : 40,
          narrow ? 4 : 8, seed++));
    }
    for (auto& a : arrays) ptrs.push_back(a.data());

    std::string sizes;
    for (size_t i = 0; i < config.input_bytes.size(); ++i) {
      if (i > 0) sizes += "-";
      sizes += std::to_string(config.input_bytes[i]);
    }
    const bool q1_shape = config.groups != kGroups;
    const uint8_t* groups =
        q1_shape ? groups_q1.data() : groups32.data();
    // The Q1 cell walks one batch-sized window over and over.
    const size_t window = q1_shape ? std::min<size_t>(n, 4096) : n;

    MultiAggregator agg;
    const Status st = agg.Configure(descs, config.groups);
    BIPIE_DCHECK(st.ok());
    std::vector<int64_t> sums(
        static_cast<size_t>(config.groups) * descs.size(), 0);
    const std::string label =
        sizes + "/g" + std::to_string(config.groups) + (q1_shape ? "q1" : "");
    const double cycles = MeasureCyclesPerRow(n, label, [&] {
      for (size_t done = 0; done < n; done += window) {
        agg.Process(groups, ptrs.data(), std::min(window, n - done));
      }
      agg.Flush(sums.data());
      Consume(sums.data(), sums.size() * 8);
    });
    const double per_sum = cycles / static_cast<double>(descs.size());

    if (q1_shape) {
      std::printf("%6zu %-14s %10s %12.2f  (Q1 shape: 4 skewed groups)\n",
                  config.input_bytes.size(), sizes.c_str(), "-", per_sum);
      continue;
    }
    std::printf("%6zu %-14s %10.2f %12.2f\n", config.input_bytes.size(),
                sizes.c_str(), config.paper, per_sum);
    if (config.input_bytes.size() == 2) first = per_sum;
    if (config.input_bytes.size() == 5) last = per_sum;
  }
  std::printf(
      "\nshape check: 5 sums cheaper per sum than 2 sums (paper ~1.8x): "
      "%.2fx\n",
      first / last);
  return 0;
}
