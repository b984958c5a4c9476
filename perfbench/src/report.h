// Named metrics and the order statistics the benchmark reports.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 1;  // measurements the value summarizes
};
using Metrics = std::vector<Metric>;

// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
