#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "support/status.h"

namespace prose {

double median(std::span<const double> xs) {
  PROSE_CHECK(!xs.empty());
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double mean(std::span<const double> xs) {
  PROSE_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double l2_norm(std::span<const double> xs) {
  // Scaled accumulation to avoid overflow on large magnitudes.
  double scale = 0.0;
  double ssq = 1.0;
  for (double x : xs) {
    if (x == 0.0) continue;
    const double ax = std::abs(x);
    if (scale < ax) {
      ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
      scale = ax;
    } else {
      ssq += (ax / scale) * (ax / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

double relative_error(double baseline, double variant) {
  const double diff = std::abs(baseline - variant);
  if (diff == 0.0) return 0.0;
  if (baseline == 0.0) return std::numeric_limits<double>::infinity();
  return diff / std::abs(baseline);
}

}  // namespace prose
