#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace ww::util {
namespace {

TEST(RunningStats, Empty) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.37) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, Median) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, Rejects) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> v = {1.0};
  EXPECT_THROW((void)percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
  // NaN compares false against both bounds; casting its rank to an index
  // would be undefined behaviour (two samples, so the rank is computed).
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW(
      (void)percentile(two, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(Correlation, PerfectPositiveAndNegative) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  std::vector<double> yn = {10, 8, 6, 4, 2};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, yn), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(x, c), 0.0);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.5, 1e-9);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps to first bin
  h.add(100.0);   // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  // Regression: an infinite bound made hi - lo infinite, so bin_lo and
  // quantile returned NaN.  A span that overflows is rejected too.
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Histogram(0.0, inf, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(-inf, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(-inf, inf, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(-1e308, 1e308, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(nan, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, nan, 10), std::invalid_argument);
}

TEST(Histogram, NonFiniteSamplesGoToDropBucket) {
  // Regression: (NaN - lo) / span * bins cast to an integer is undefined
  // behaviour, as is the cast of any scaled value outside the integer
  // range (e.g. 1e300).  The sanitize CI job builds with
  // -fsanitize=float-cast-overflow, so this test aborts there if either
  // guard regresses.
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.dropped(), 3u);
  std::size_t binned = 0;
  for (std::size_t i = 0; i < h.bins(); ++i) binned += h.bin_count(i);
  EXPECT_EQ(binned, 1u);  // non-finite samples never reach a bin

  // Huge but finite samples are still mass-conserving edge-bin clamps.
  h.add(1e300);
  h.add(-1e300);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.dropped(), 3u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, QuantileSingleBinMidpoint) {
  // All mass in one bin: every quantile interpolates inside that bin by
  // the midpoint convention ((k - 0.5) / c of the bin width).
  Histogram h(0.0, 10.0, 10);
  h.add(3.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 3.5);  // 1 sample: bin midpoint
  h.add(3.5);
  h.add(3.5);
  h.add(3.5);
  // 4 samples in bin [3, 4): ranks 2 and 4 sit at 1.5/4 and 3.5/4.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 3.0 + 1.5 / 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.00), 3.0 + 3.5 / 4.0);
}

TEST(Histogram, QuantileAcrossBins) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);  // one sample per bin
  // Rank r lands in bin r-1, whose single sample sits at its midpoint.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 49.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 94.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 98.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);  // rank clamps to 1
}

TEST(Histogram, QuantileEmptyAndRejects) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty: defined as 0
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Histogram, QuantileIgnoresDropped) {
  // Non-finite samples sit in the drop bucket, not the rank order.
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(7.5);
  EXPECT_EQ(h.dropped(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.5);
}

TEST(Histogram, MergeMatchesSequential) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  Histogram all(0.0, 10.0, 10);
  for (int i = 0; i < 40; ++i) {
    const double x = (i * 7) % 11;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  b.add(std::numeric_limits<double>::quiet_NaN());
  all.add(std::numeric_limits<double>::quiet_NaN());
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  EXPECT_EQ(a.dropped(), all.dropped());
  for (std::size_t i = 0; i < all.bins(); ++i)
    EXPECT_EQ(a.bin_count(i), all.bin_count(i));
  EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
}

TEST(Histogram, MergeRejectsLayoutMismatch) {
  Histogram a(0.0, 10.0, 10);
  Histogram bins(0.0, 10.0, 20);
  Histogram range(0.0, 20.0, 10);
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

}  // namespace
}  // namespace ww::util
