//===- perfbench/src/Stats.h - Sample summaries ----------------*- C++ -*-===//
///
/// \file
/// Medians and percentiles over timing samples. A tail percentile is only
/// reported where at least ten samples lie beyond it; with fewer samples
/// the highest percentile is not resolved and a lower one is used.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile \p Q in [0, 1] of ascending \p Sorted
/// (0 for an empty sample).
inline double quantileSorted(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantileSorted(V, 0.5);
}

/// A resolved tail percentile: which one, and its value.
struct Tail {
  unsigned PerMille = 0; ///< 990 = p99.
  double Value = 0;
};

/// The highest percentile among p99, p95, p90, p75 and p50 (capped at
/// \p MaxPerMille) that has at least \p MinBeyond samples beyond it, or
/// nullopt when even the median has fewer.
inline std::optional<Tail> highestResolvedPercentile(std::vector<double> V,
                                                     unsigned MaxPerMille = 990,
                                                     uint64_t MinBeyond = 10) {
  std::sort(V.begin(), V.end());
  for (unsigned PM : {990u, 950u, 900u, 750u, 500u}) {
    if (PM > MaxPerMille)
      continue;
    // Samples beyond the percentile: n * (1 - PM/1000), in integers.
    if (static_cast<uint64_t>(V.size()) * (1000 - PM) >= MinBeyond * 1000)
      return Tail{PM, quantileSorted(V, PM / 1000.0)};
  }
  return std::nullopt;
}

/// Num / Den, or 0 when Den is 0 (an unexercised layer reads 0).
inline double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

} // namespace perfbench

#endif // PERFBENCH_STATS_H
