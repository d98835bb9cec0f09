// Randomized stress of CapacityTimeline against a naive reference that
// stores raw intervals, including interleaved pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "dc/capacity_timeline.hpp"
#include "util/rng.hpp"

namespace ww::dc {
namespace {

/// Naive reference: keeps every interval, answers queries by scanning.
class NaiveTimeline {
 public:
  void reserve(double s, double e) { intervals_.emplace_back(s, e); }

  [[nodiscard]] int occupancy_at(double t) const {
    int occ = 0;
    for (const auto& [s, e] : intervals_)
      if (s <= t && t < e) ++occ;
    return occ;
  }

  [[nodiscard]] int max_occupancy(double start, double end) const {
    // Peak over event points within [start, end) plus the entry occupancy.
    int peak = occupancy_at(start);
    for (const auto& [s, e] : intervals_) {
      if (s > start && s < end) peak = std::max(peak, occupancy_at(s));
      (void)e;
    }
    return peak;
  }

 private:
  std::vector<std::pair<double, double>> intervals_;
};

class TimelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(TimelineProperty, MatchesNaiveReferenceUnderPruning) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  CapacityTimeline tl(1000000);  // effectively uncapped: we compare counts
  NaiveTimeline ref;

  double now = 0.0;
  for (int step = 0; step < 400; ++step) {
    const double start = now + rng.uniform(0.0, 200.0);
    const double dur = rng.uniform(1.0, 300.0);
    tl.reserve(start, start + dur);
    ref.reserve(start, start + dur);

    if (rng.bernoulli(0.2)) {
      now += rng.uniform(0.0, 100.0);
      tl.prune(now);
      // The reference keeps everything; queries stay >= `now` so pruning
      // must be observationally invisible.
    }

    // Randomized point and window queries at or after the prune horizon.
    for (int q = 0; q < 3; ++q) {
      const double t = now + rng.uniform(0.0, 500.0);
      ASSERT_EQ(tl.occupancy_at(t), ref.occupancy_at(t))
          << "param " << GetParam() << " step " << step << " t " << t;
      const double w0 = now + rng.uniform(0.0, 400.0);
      const double w1 = w0 + rng.uniform(1.0, 300.0);
      ASSERT_EQ(tl.max_occupancy(w0, w1), ref.max_occupancy(w0, w1))
          << "param " << GetParam() << " step " << step;
    }
  }
}

TEST_P(TimelineProperty, FitsConsistentWithMaxOccupancy) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  const int cap = static_cast<int>(rng.uniform_int(1, 8));
  CapacityTimeline tl(cap);

  int placed = 0;
  for (int step = 0; step < 300; ++step) {
    const double start = rng.uniform(0.0, 1000.0);
    const double end = start + rng.uniform(1.0, 200.0);
    const bool fits = tl.fits(start, end);
    ASSERT_EQ(fits, tl.max_occupancy(start, end) < cap);
    if (fits) {
      tl.reserve(start, end);
      ++placed;
      // Invariant: never exceed capacity anywhere.
      ASSERT_LE(tl.max_occupancy(0.0, 2000.0), cap);
    }
  }
  EXPECT_GT(placed, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimelineProperty, ::testing::Range(0, 20));

/// Reference: the per-time delta map the sorted vector replaced, with the
/// same prune folding and the same event count (entries whose net delta
/// returned to zero included).
class MapTimeline {
 public:
  void reserve(double start, double end) {
    deltas_[start] += 1;
    deltas_[end] -= 1;
  }
  void prune(double now) {
    auto it = deltas_.begin();
    while (it != deltas_.end() && it->first <= now) {
      base_ += it->second;
      it = deltas_.erase(it);
    }
  }
  [[nodiscard]] int occupancy_at(double t) const {
    int occ = base_;
    for (const auto& [time, delta] : deltas_) {
      if (time > t) break;
      occ += delta;
    }
    return occ;
  }
  [[nodiscard]] int max_occupancy(double start, double end) const {
    int occ = base_;
    auto it = deltas_.begin();
    for (; it != deltas_.end() && it->first <= start; ++it) occ += it->second;
    int peak = occ;
    for (; it != deltas_.end() && it->first < end; ++it) {
      occ += it->second;
      peak = std::max(peak, occ);
    }
    return peak;
  }
  [[nodiscard]] std::size_t event_count() const { return deltas_.size(); }
  [[nodiscard]] const std::map<double, int>& deltas() const { return deltas_; }

 private:
  int base_ = 0;
  std::map<double, int> deltas_;
};

class TimelineMatchesMap : public ::testing::TestWithParam<int> {};

TEST_P(TimelineMatchesMap, SameQueriesAndEventCount) {
  // Times on a coarse integer grid, so starts and ends coincide often and
  // many events net to zero (one reservation ending where another starts).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 13);
  CapacityTimeline tl(1000000);
  MapTimeline ref;
  double now = 0.0;
  bool saw_zero_delta = false;
  for (int step = 0; step < 600; ++step) {
    const double start =
        now + static_cast<double>(rng.uniform_int(0, 12));
    const double end = start + static_cast<double>(rng.uniform_int(1, 8));
    tl.reserve(start, end);
    ref.reserve(start, end);
    if (rng.bernoulli(0.15) && !ref.deltas().empty()) {
      // Prune exactly at an existing event time.
      const auto pick = static_cast<std::ptrdiff_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ref.deltas().size()) - 1));
      now = std::max(now, std::next(ref.deltas().begin(), pick)->first);
      tl.prune(now);
      ref.prune(now);
    }
    ASSERT_EQ(tl.event_count(), ref.event_count())
        << "param " << GetParam() << " step " << step;
    for (const auto& [time, delta] : ref.deltas())
      saw_zero_delta = saw_zero_delta || delta == 0;
    for (double t = now; t <= now + 24.0; t += 0.5) {
      ASSERT_EQ(tl.occupancy_at(t), ref.occupancy_at(t))
          << "param " << GetParam() << " step " << step << " t " << t;
      ASSERT_EQ(tl.max_occupancy(t, t + 3.0), ref.max_occupancy(t, t + 3.0))
          << "param " << GetParam() << " step " << step << " t " << t;
    }
  }
  EXPECT_TRUE(saw_zero_delta);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimelineMatchesMap, ::testing::Range(0, 8));

}  // namespace
}  // namespace ww::dc
