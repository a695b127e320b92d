// Percentile selection for every latency figure the benchmark prints.
//
// One rule, in one place: a tail is only reported where the sample set
// can support it. Fewer than kMinTailSamples samples give the median
// alone. Otherwise the reported tail is the highest percentile of
// kTailLadder that still has at least kMinBeyond samples ranked above
// it, and it travels with its sample count. A p99 taken from 36
// requests is the maximum of 36 requests, which repeats from run to run
// no better than the maximum does.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 40;
inline constexpr std::size_t kMinBeyond = 10;
inline constexpr double kTailLadder[] = {75.0, 90.0, 95.0, 99.0,
                                         99.9, 99.99, 99.999};

/// 1-based nearest rank of percentile @p p (0 < p <= 100) among @p n
/// samples.
inline std::size_t nearestRank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Median of @p v (mean of the middle two for an even count); NaN when
/// @p v is empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(v.begin(), v.begin() + mid);
  return (lower + upper) / 2.0;
}

/// The deepest tail a sample set supports.
struct Tail {
  double percentile = 0.0;  ///< 50 when only the median is reported
  double value = std::numeric_limits<double>::quiet_NaN();
  std::size_t samples = 0;
  std::size_t beyond = 0;   ///< samples ranked above the reported value
};

inline Tail tailOf(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  if (samples.size() < kMinTailSamples) {
    t.percentile = 50.0;
    t.value = median(samples);
    t.beyond = samples.size() / 2;
    return t;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double p : kTailLadder) {
    const std::size_t rank = nearestRank(n, p);
    if (n - rank < kMinBeyond) break;
    t.percentile = p;
    t.value = samples[rank - 1];
    t.beyond = n - rank;
  }
  return t;
}

}  // namespace perfbench
