// Small statistics kit used by the speedup metric (Eq. 1 of the paper) and
// the correctness metrics (L2 norms over time/grid). `mean` and `stddev` are
// the noise model's test oracle (support_rng_test checks the requested RSD).
#pragma once

#include <span>

namespace prose {

/// Median of a sample (averaging the middle pair for even sizes).
/// Requires a non-empty sample.
double median(std::span<const double> xs);

double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double stddev(std::span<const double> xs);

/// Euclidean (L2) norm. Used for "L2-norm over time" correctness metrics.
double l2_norm(std::span<const double> xs);

/// |a - b| / |a|, with the convention 0/0 == 0 and x/0 == inf for x != 0.
/// This is exactly the paper's relative-error expression
/// |(out_baseline - out_variant) / out_baseline|.
double relative_error(double baseline, double variant);

}  // namespace prose
