// Byteslice early-pruning scan vs the bit-packed filter (DESIGN.md §16):
// for selective predicates on wide values the plane kernels touch ~1/np
// of the data, while the bit-packed filter unpacks every value. Sweep is
// selectivity x bit width, both paths evaluating the identical
// `v < literal` predicate batch-at-a-time (4096 rows, the scan's batch
// size) over identical value streams.
//
//   byteslice   ByteSliceCompare over np byte planes, early exit armed
//   bitpacked   BitPackedSelect: unpack and compare in registers, the
//               scan's filter on a bit-packed column
//
// Expected shape: the byteslice path wins at wide widths, most above 32
// bits where bit-packed values need 8-byte lanes; at narrow widths the
// in-register bit-packed filter is as fast or faster. At ~100%
// selectivity on equality-heavy data the pruning cannot fire at all —
// which is why strategy.cc gates admission on the estimated selectivity.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "encoding/byteslice.h"
#include "expr/predicate.h"
#include "vector/byteslice_scan.h"

using namespace bipie;         // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

constexpr size_t kBatch = 4096;

struct Cell {
  double byteslice_cycles = 0;
  double bitpacked_cycles = 0;
};

Cell MeasureCell(size_t n, int w, double selectivity) {
  // Uniform values over the full width: `v < lit` at the quantile hits the
  // target selectivity exactly in expectation.
  std::vector<uint64_t> values(n);
  Rng rng(1000 + static_cast<uint64_t>(w * 100 + selectivity * 10));
  const uint64_t mask = LowBitsMask(w);
  for (auto& v : values) v = rng.Next() & mask;
  const uint64_t lit =
      static_cast<uint64_t>(selectivity * static_cast<double>(mask));

  AlignedBuffer planes(ByteSliceBytes(n, w));
  ByteSlicePack(values.data(), n, w, planes.data());
  AlignedBuffer packed(BitPackedBytes(n, w) + 8);
  BitPack(values.data(), n, w, packed.data());

  const int np = ByteSlicePlanes(w);
  const uint64_t shifted = ByteSliceShift(lit, w);
  AlignedBuffer sel(kBatch);

  char label[64];
  Cell cell;
  std::snprintf(label, sizeof(label), "w%d/sel%02d/byteslice", w,
                static_cast<int>(selectivity * 100));
  cell.byteslice_cycles = MeasureCyclesPerRow(n, label, [&] {
    for (size_t start = 0; start < n; start += kBatch) {
      const size_t m = std::min(kBatch, n - start);
      ByteSliceCompare(planes.data(), n, np, start, m, CompareOp::kLt,
                       shifted, 0, sel.data());
      Consume(sel.data(), m);
    }
  });
  std::snprintf(label, sizeof(label), "w%d/sel%02d/bitpacked", w,
                static_cast<int>(selectivity * 100));
  cell.bitpacked_cycles = MeasureCyclesPerRow(n, label, [&] {
    for (size_t start = 0; start < n; start += kBatch) {
      const size_t m = std::min(kBatch, n - start);
      // v < lit as the offset range [0, lit - 1] (lit >= 1 in every cell).
      BitPackedSelect(packed.data(), start, m, w, {0, lit - 1, false},
                      false, sel.data());
      Consume(sel.data(), m);
    }
  });
  return cell;
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Byteslice early-pruning scan vs the bit-packed filter",
      "byte-planar predicate kernels, selectivity x width sweep "
      "(DESIGN.md §16)");
  BenchJsonReport::Get().SetName("byteslice");

  const size_t n = BenchRows();
  const int widths[] = {8, 12, 17, 25, 33};
  const double selectivities[] = {0.01, 0.05, 0.10, 0.50, 0.90};

  std::printf("%-6s %-6s %14s %14s %10s\n", "width", "sel", "byteslice c/r",
              "bitpacked c/r", "speedup");
  double min_selective_speedup = 1e30;
  for (const int w : widths) {
    for (const double s : selectivities) {
      const Cell cell = MeasureCell(n, w, s);
      const double speedup = cell.byteslice_cycles > 0
                                 ? cell.bitpacked_cycles / cell.byteslice_cycles
                                 : 0.0;
      std::printf("%-6d %-6.2f %14.3f %14.3f %9.2fx\n", w, s,
                  cell.byteslice_cycles, cell.bitpacked_cycles, speedup);
      if (w >= 17 && s <= 0.10 && speedup < min_selective_speedup) {
        min_selective_speedup = speedup;
      }
    }
  }
  std::printf(
      "\nmin speedup over the bit-packed filter at sel<=0.10, w>=17: "
      "%.2fx\n",
      min_selective_speedup);
  BenchJsonReport::Get().Add(
      "summary", {{"min_selective_speedup", min_selective_speedup}});
  return 0;
}
