// Per-region server-capacity reservation timeline.
//
// Supports the two capacity views the schedulers need: the instantaneous
// remaining capacity cap(n) that WaterWise's MILP consumes (Eq. 10), and
// future-interval queries for the greedy-optimal oracles, which reserve
// (region, start-time) slots against future availability.  Events older than
// the prune point fold into a base count so the structure stays small over
// multi-day campaigns.  The deltas live in one time-sorted vector, so a
// steady campaign reserves and prunes without allocating once the vector
// has grown to the region's working set.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ww::dc {

class CapacityTimeline {
 public:
  explicit CapacityTimeline(int capacity);

  [[nodiscard]] int capacity() const noexcept { return capacity_; }

  /// Occupancy at instant t (reservations with start <= t < end).
  [[nodiscard]] int occupancy_at(double t) const;

  /// Peak occupancy over [start, end).
  [[nodiscard]] int max_occupancy(double start, double end) const;

  /// True when one more reservation fits everywhere in [start, end).
  [[nodiscard]] bool fits(double start, double end) const {
    return max_occupancy(start, end) < capacity_;
  }

  /// Records a reservation; caller is responsible for checking fits().
  void reserve(double start, double end);

  /// Folds events at or before `now` into the base occupancy.  Queries for
  /// times >= now remain exact; earlier times are no longer queryable.
  void prune(double now);

  [[nodiscard]] std::size_t event_count() const noexcept {
    return deltas_.size();
  }

 private:
  /// Adds `delta` to the event at time t, creating it in sorted position.
  /// An event whose net delta returns to zero stays (and counts).
  void add_delta(double t, int delta);

  int capacity_;
  int base_ = 0;  ///< Reservations spanning the pruned horizon.
  /// (time, net occupancy change), strictly increasing in time.
  std::vector<std::pair<double, int>> deltas_;
};

}  // namespace ww::dc
