#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace ww::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ChildStreamsAreIndependentAndStable) {
  const Rng root(7);
  Rng c1 = root.child("trace");
  Rng c2 = root.child("trace");
  Rng c3 = root.child("weather");
  EXPECT_EQ(c1(), c2());
  Rng c1b = root.child("trace");
  c1b();  // advance one
  EXPECT_NE(c1(), c3());
}

TEST(Rng, ChildOrderMatters) {
  const Rng root(9);
  Rng ab = root.child("a").child("b");
  Rng ba = root.child("b").child("a");
  EXPECT_NE(ab(), ba());
}

TEST(Rng, IndexedChildren) {
  const Rng root(11);
  Rng c0 = root.child(std::uint64_t{0});
  Rng c1 = root.child(std::uint64_t{1});
  EXPECT_NE(c0(), c1());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, UniformIntDegenerate) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(7, 7), 7);
  EXPECT_EQ(rng.uniform_int(9, 3), 9);  // lo >= hi returns lo
}

// Spans above INT64_MAX, where hi - lo overflows in signed arithmetic.
TEST(Rng, UniformIntWideSpans) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Over the full range every 64-bit draw is already uniform, so each call
  // returns the next raw draw.
  Rng rng(61);
  Rng raw(61);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(rng.uniform_int(kMin, kMax), static_cast<std::int64_t>(raw()));

  // [-1, kMax] spans 2^63 + 1 values; [kMin, 1] and [kMin / 2, kMax] are
  // wider than INT64_MAX too.  Every draw stays in range and both halves
  // of each range are reached.
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {-1, kMax}, {kMin, 1}, {kMin / 2, kMax}};
  for (const auto& [lo, hi] : ranges) {
    int lower_half = 0;
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t v = rng.uniform_int(lo, hi);
      ASSERT_GE(v, lo);
      ASSERT_LE(v, hi);
      lower_half += v < lo / 2 + hi / 2;
    }
    EXPECT_GT(lower_half, 800) << lo << " " << hi;
    EXPECT_LT(lower_half, 1200) << lo << " " << hi;
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LognormalMean) {
  Rng rng(23);
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  const double mu = 1.0;
  const double sigma = 0.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  EXPECT_NEAR(sum / n, std::exp(mu + 0.5 * sigma * sigma), 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  const double lambda = 0.25;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.1);
}

TEST(Rng, GammaMeanAndVariance) {
  Rng rng(31);
  const double shape = 3.0;
  const double scale = 2.0;
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(shape, scale);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, shape * scale, 0.08);
  EXPECT_NEAR(sq / n - mean * mean, shape * scale * scale, 0.4);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(37);
  const double shape = 0.5;
  const double scale = 1.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(shape, scale);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(43);
  const std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(47);
  EXPECT_THROW((void)rng.weighted_index({}), std::invalid_argument);
  EXPECT_THROW((void)rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  // A NaN weight makes the sum NaN, which a `total <= 0` check lets
  // through, and a negative weight would only shift the others' shares.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& bad :
       {std::vector<double>{kNan, 1.0}, std::vector<double>{1.0, kNan},
        std::vector<double>{-5.0, 1.0, 10.0}, std::vector<double>{1.0, -1e-300},
        std::vector<double>{kInf, 1.0}, std::vector<double>{1.0, -kInf}})
    EXPECT_THROW((void)rng.weighted_index(bad), std::invalid_argument)
        << bad[0] << ", " << bad[1];
  // Zero weights beside a positive one stay valid.
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(rng.weighted_index({0.0, 2.0, 0.0}), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(HashLabel, DistinctLabels) {
  EXPECT_NE(hash_label("carbon"), hash_label("water"));
  EXPECT_EQ(hash_label("x"), hash_label("x"));
}

}  // namespace
}  // namespace ww::util
