// Kernel layer: cycles per value of the sequential bit-unpack kernels
// (encoding/bitpack.h) per ISA tier x bit width x output word, plus the
// fused range filter (BitPackedSelect) per tier x width.
//
// Each cell processes BIPIE_BENCH_ROWS values in 4096-value batches, the
// scan's batch size, cycling over a 64K-value packed block that stays in
// L2, so the number is the kernel's decode cost and not memory bandwidth
// (the query benches cover that). Labels are "<tier>/w<width>/u<bits>" for
// unpack cells, e.g. "avx2/w12/u16", and "<tier>/w<width>/select" for the
// filter; the metric is cycles_per_row, i.e. cycles per value. The widths
// sit on both sides of every window-shape boundary (8 | 25 | 57 bits) and
// include the TPC-H Q1/Q6 filter widths (4, 12, 13).
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/cpu.h"

using namespace bipie;         // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

constexpr size_t kBatch = 4096;
constexpr size_t kBlock = size_t{1} << 16;

// Runs fn(start, m) over `rows` values in batches, wrapping around the
// block.
template <typename Fn>
void ForEachBatch(size_t rows, Fn&& fn) {
  for (size_t done = 0; done < rows; done += kBatch) {
    const size_t start = done % kBlock;
    fn(start, std::min(kBatch, rows - done));
  }
}

}  // namespace

int main() {
  PrintBenchHeader("Bit-unpack kernels, cycles/value",
                   "sequential unpack of bit-packed columns (§2.2) per ISA "
                   "tier x width x word, and the fused range filter");
  BenchJsonReport::Get().SetName("unpack");

  const size_t rows = std::max(BenchRows(), kBatch);
  const int widths[] = {1, 2, 4, 12, 13, 24, 25, 30, 40};
  const IsaTier detected = DetectIsaTier();
  AlignedBuffer out(kBatch * 8);
  AlignedBuffer sel(kBatch);

  std::printf("%-8s %-6s %-6s %12s\n", "tier", "width", "word", "cycles/val");
  for (int t = 0; t <= static_cast<int>(detected); ++t) {
    const IsaTier tier = static_cast<IsaTier>(t);
    SetIsaTierForTesting(tier);
    for (const int w : widths) {
      const AlignedBuffer packed = MakePackedColumn(kBlock + kBatch, w, w);
      char label[64];
      for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
        std::snprintf(label, sizeof(label), "%s/w%d/u%d", IsaTierName(tier),
                      w, word * 8);
        const double cycles = MeasureCyclesPerRow(rows, label, [&] {
          ForEachBatch(rows, [&](size_t start, size_t m) {
            BitUnpackToWord(packed.data(), start, m, w, out.data(), word);
            Consume(out.data(), m * word);
          });
        });
        std::printf("%-8s %-6d u%-5d %12.3f\n", IsaTierName(tier), w,
                    word * 8, cycles);
      }
      // A range that keeps about half the values: the verdicts are
      // unpredictable, as for a real filter.
      const PackedRange range{0, LowBitsMask(w) / 2, false};
      std::snprintf(label, sizeof(label), "%s/w%d/select", IsaTierName(tier),
                    w);
      const double cycles = MeasureCyclesPerRow(rows, label, [&] {
        ForEachBatch(rows, [&](size_t start, size_t m) {
          BitPackedSelect(packed.data(), start, m, w, range, false,
                          sel.data());
          Consume(sel.data(), m);
        });
      });
      std::printf("%-8s %-6d %-6s %12.3f\n", IsaTierName(tier), w, "select",
                  cycles);
    }
  }
  SetIsaTierForTesting(detected);
  return 0;
}
