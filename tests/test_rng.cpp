#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

namespace eefei {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double mean = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  mean /= kN;
  EXPECT_NEAR(mean, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const auto idx = rng.uniform_index(10);
    ASSERT_LT(idx, 10u);
    ++counts[static_cast<std::size_t>(idx)];
  }
  // Chi-squared-ish sanity: each bucket within 10% of expectation.
  for (const int c : counts) {
    EXPECT_NEAR(c, kN / 10, kN / 100);
  }
}

TEST(Rng, UniformIndexOfOneIsZero) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_index(1), 0u);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double mean = 0.0, var = 0.0;
  constexpr int kN = 40000;
  std::vector<double> xs(kN);
  for (auto& x : xs) x = rng.normal();
  for (const double x : xs) mean += x;
  mean /= kN;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= kN - 1;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(12);
  double mean = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) mean += rng.normal(10.0, 2.0);
  mean /= kN;
  EXPECT_NEAR(mean, 10.0, 0.1);
}

TEST(Rng, DiscardNormalAdvancesLikeNormal) {
  Rng drawn(2024), skipped(2024);
  for (int i = 0; i < 1000; ++i) {
    (void)drawn.normal();
    skipped.discard_normal();
  }
  EXPECT_EQ(drawn.next(), skipped.next());
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(15);
  double mean = 0.0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) mean += rng.exponential(2.0);
  mean /= kN;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng rng(16);
  for (const double shape : {0.5, 1.0, 2.5, 7.0}) {
    double mean = 0.0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) mean += rng.gamma(shape);
    mean /= kN;
    EXPECT_NEAR(mean, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng a = parent1.split(0);
  Rng b = parent2.split(0);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());

  Rng parent3(99);
  Rng c = parent3.split(1);
  // A different stream id must give a different sequence.
  Rng parent4(99);
  Rng d = parent4.split(0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c.next() == d.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be identical
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ShuffleUniformFirstPosition) {
  // Every element should land in position 0 roughly equally often.
  std::vector<int> counts(5, 0);
  for (std::uint64_t s = 0; s < 5000; ++s) {
    Rng rng(s);
    std::vector<int> v{0, 1, 2, 3, 4};
    rng.shuffle(v);
    ++counts[static_cast<std::size_t>(v[0])];
  }
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

}  // namespace
}  // namespace eefei
