// Per-region server-capacity reservation timeline.
//
// Supports the two capacity views the schedulers need: the instantaneous
// remaining capacity cap(n) that WaterWise's MILP consumes (Eq. 10), and
// future-interval queries for the greedy-optimal oracles, which reserve
// (region, start-time) slots against future availability.  The simulator
// admits a placement with try_reserve(), which checks the peak and inserts
// both events in one pass over the deltas.  Events older than
// the prune point fold into a base count so the structure stays small over
// multi-day campaigns.  The deltas live in one time-sorted vector, so a
// steady campaign reserves and prunes without allocating once the vector
// has grown to the region's working set.
#pragma once

#include <cstddef>
#include <type_traits>
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

  /// Records a reservation when one more fits under `cap` everywhere in
  /// [start, end), that is when max_occupancy(start, end) < cap, and
  /// returns whether it did.  One scan finds the peak and both insertion
  /// points, and one shift makes room for the new events.  Throws
  /// std::invalid_argument unless end > start.
  [[nodiscard]] bool try_reserve(double start, double end, int cap);

  /// Records a reservation without a capacity check.
  void reserve(double start, double end);

  /// Folds events at or before `now` into the base occupancy.  Queries for
  /// times >= now remain exact; earlier times are no longer queryable.
  void prune(double now);

  [[nodiscard]] std::size_t event_count() const noexcept {
    return deltas_.size();
  }

 private:
  /// Net occupancy change at one instant.  Trivially copyable, so the
  /// shifts that make room for new events are plain memmoves.
  struct Event {
    double time;
    int delta;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

  int capacity_;
  int base_ = 0;  ///< Reservations spanning the pruned horizon.
  /// Strictly increasing in time.  A reservation adds +1 at its start and
  /// -1 at its end, merging into an event already at that time; an event
  /// whose net change returns to zero stays (and counts).
  std::vector<Event> deltas_;
};

}  // namespace ww::dc
