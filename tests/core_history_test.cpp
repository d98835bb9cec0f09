#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "core/history.hpp"
#include "util/rng.hpp"

namespace ww::core {
namespace {

/// Reference learner: a deque of freshly normalized observations, summed
/// oldest to newest.  The ring-buffer learner must match it bit for bit.
class DequeHistory {
 public:
  explicit DequeHistory(int window) : window_(window) {}

  void observe(const std::vector<double>& ci, const std::vector<double>& wi) {
    carbon_.push_back(normalized(ci));
    water_.push_back(normalized(wi));
    if (static_cast<int>(carbon_.size()) > window_) carbon_.pop_front();
    if (static_cast<int>(water_.size()) > window_) water_.pop_front();
  }
  [[nodiscard]] double carbon_ref(int r) const { return mean(carbon_, r); }
  [[nodiscard]] double water_ref(int r) const { return mean(water_, r); }

 private:
  static std::vector<double> normalized(const std::vector<double>& v) {
    const double mx = *std::max_element(v.begin(), v.end());
    std::vector<double> out(v.size(), 0.0);
    if (mx > 0.0)
      for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] / mx;
    return out;
  }
  static double mean(const std::deque<std::vector<double>>& obs, int r) {
    if (obs.empty()) return 0.0;
    double total = 0.0;
    for (const auto& o : obs) total += o[static_cast<std::size_t>(r)];
    return total / static_cast<double>(obs.size());
  }

  int window_;
  std::deque<std::vector<double>> carbon_;
  std::deque<std::vector<double>> water_;
};

class HistoryRingMatchesDeque : public ::testing::TestWithParam<int> {};

TEST_P(HistoryRingMatchesDeque, BitIdenticalOverSeededObservations) {
  const int window = GetParam();
  constexpr int kRegions = 5;
  util::Rng rng(static_cast<std::uint64_t>(window) * 101 + 3);
  HistoryLearner ring(kRegions, window);
  DequeHistory ref(window);
  std::vector<double> ci(kRegions);
  std::vector<double> wi(kRegions);
  for (int step = 0; step < 500; ++step) {
    for (int r = 0; r < kRegions; ++r) {
      ci[static_cast<std::size_t>(r)] = rng.uniform(0.0, 900.0);
      // Occasional all-zero water rows exercise the zero-max branch.
      wi[static_cast<std::size_t>(r)] =
          step % 37 == 0 ? 0.0 : rng.uniform(0.0, 12.0);
    }
    ring.observe(ci, wi);
    ref.observe(ci, wi);
    ASSERT_EQ(ring.observations(), std::min(step + 1, window));
    for (int r = 0; r < kRegions; ++r) {
      ASSERT_EQ(ring.carbon_ref(r), ref.carbon_ref(r))
          << "window " << window << " step " << step << " region " << r;
      ASSERT_EQ(ring.water_ref(r), ref.water_ref(r))
          << "window " << window << " step " << step << " region " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, HistoryRingMatchesDeque,
                         ::testing::Values(1, 2, 10, 13));

TEST(HistoryLearner, ZeroBeforeObservations) {
  const HistoryLearner h(3, 10);
  EXPECT_DOUBLE_EQ(h.carbon_ref(0), 0.0);
  EXPECT_DOUBLE_EQ(h.water_ref(2), 0.0);
  EXPECT_EQ(h.observations(), 0);
}

TEST(HistoryLearner, NormalizesByBatchMax) {
  HistoryLearner h(3, 10);
  h.observe({100.0, 50.0, 25.0}, {2.0, 4.0, 1.0});
  EXPECT_DOUBLE_EQ(h.carbon_ref(0), 1.0);
  EXPECT_DOUBLE_EQ(h.carbon_ref(1), 0.5);
  EXPECT_DOUBLE_EQ(h.carbon_ref(2), 0.25);
  EXPECT_DOUBLE_EQ(h.water_ref(1), 1.0);
  EXPECT_DOUBLE_EQ(h.water_ref(0), 0.5);
}

TEST(HistoryLearner, WindowMean) {
  HistoryLearner h(2, 10);
  h.observe({1.0, 0.0}, {1.0, 1.0});
  h.observe({0.0, 1.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(h.carbon_ref(0), 0.5);
  EXPECT_DOUBLE_EQ(h.carbon_ref(1), 0.5);
}

TEST(HistoryLearner, WindowEvictsOldest) {
  HistoryLearner h(1, 3);
  h.observe({1.0}, {1.0});
  h.observe({1.0}, {1.0});
  h.observe({1.0}, {1.0});
  EXPECT_EQ(h.observations(), 3);
  // A fourth observation evicts the first; window stays at 3.
  h.observe({1.0}, {1.0});
  EXPECT_EQ(h.observations(), 3);
}

TEST(HistoryLearner, SlidingWindowTracksRegimeChange) {
  HistoryLearner h(2, 4);
  for (int i = 0; i < 4; ++i) h.observe({1.0, 0.2}, {1.0, 1.0});
  EXPECT_GT(h.carbon_ref(0), h.carbon_ref(1));
  // Regime flips; after a full window the ordering follows.
  for (int i = 0; i < 4; ++i) h.observe({0.2, 1.0}, {1.0, 1.0});
  EXPECT_LT(h.carbon_ref(0), h.carbon_ref(1));
}

TEST(HistoryLearner, AllZeroObservationIsSafe) {
  HistoryLearner h(2, 4);
  h.observe({0.0, 0.0}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(h.carbon_ref(0), 0.0);
  EXPECT_DOUBLE_EQ(h.water_ref(1), 0.0);
}

TEST(HistoryLearner, Validation) {
  EXPECT_THROW(HistoryLearner(0, 5), std::invalid_argument);
  EXPECT_THROW(HistoryLearner(3, 0), std::invalid_argument);
  HistoryLearner h(2, 4);
  EXPECT_THROW(h.observe({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace ww::core
