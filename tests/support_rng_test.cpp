// RNG determinism and distribution sanity tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/rng.h"
#include "support/stats.h"

namespace prose {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(5)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 5, n / 50);  // within 10% of expectation
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, LognormalNoiseHasRequestedRsd) {
  // The paper observed 1% RSD on MPAS-A/ADCIRC and 9% on MOM6; the noise
  // model must reproduce a requested RSD around a unit mean.
  for (const double rsd : {0.01, 0.09}) {
    Rng rng(17);
    std::vector<double> xs(100000);
    for (double& x : xs) x = rng.lognormal_noise(rsd);
    EXPECT_NEAR(mean(xs), 1.0, 0.005) << "rsd=" << rsd;
    EXPECT_NEAR(stddev(xs) / mean(xs), rsd, rsd * 0.1) << "rsd=" << rsd;
  }
}

TEST(Rng, LognormalNoiseZeroRsdIsExactlyOne) {
  Rng rng(19);
  EXPECT_DOUBLE_EQ(rng.lognormal_noise(0.0), 1.0);
}

TEST(Rng, ForkIsIndependentOfParentDraws) {
  Rng a(23);
  Rng fork_early = a.fork(5);
  a.next_u64();
  a.next_u64();
  Rng b(23);
  Rng fork_late = b.fork(5);
  // Forked streams depend only on the state at fork time, which is equal
  // here because both parents made zero draws before forking.
  EXPECT_EQ(fork_early.next_u64(), fork_late.next_u64());
}

TEST(Rng, ForkStreamsDiffer) {
  Rng a(29);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(SplitMix, KnownSequenceIsStable) {
  // Guard against accidental algorithm changes: values must be stable
  // across builds for experiment reproducibility.
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm2.next(), first);
}

}  // namespace
}  // namespace prose
