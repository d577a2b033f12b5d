#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {

/// One reported number: `workload/name value unit` on its own line, and an
/// entry of the final JSON object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
