#include "dc/capacity_timeline.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ww::dc {

CapacityTimeline::CapacityTimeline(int capacity) : capacity_(capacity) {
  if (capacity <= 0)
    throw std::invalid_argument("CapacityTimeline: capacity must be positive");
}

int CapacityTimeline::occupancy_at(double t) const {
  int occ = base_;
  for (const Event& e : deltas_) {
    if (e.time > t) break;
    occ += e.delta;
  }
  return occ;
}

int CapacityTimeline::max_occupancy(double start, double end) const {
  // Occupancy entering the window, then scan events inside it.
  int occ = base_;
  auto it = deltas_.begin();
  for (; it != deltas_.end() && it->time <= start; ++it) occ += it->delta;
  int peak = occ;
  for (; it != deltas_.end() && it->time < end; ++it) {
    occ += it->delta;
    peak = std::max(peak, occ);
  }
  return peak;
}

bool CapacityTimeline::try_reserve(double start, double end, int cap) {
  if (!(end > start))
    throw std::invalid_argument("CapacityTimeline: end must exceed start");
  // The scan max_occupancy() makes, keeping where it stopped: i is the first
  // event after `start`, j the first at or after `end`.
  const std::size_t n = deltas_.size();
  int occ = base_;
  std::size_t i = 0;
  for (; i < n && deltas_[i].time <= start; ++i) occ += deltas_[i].delta;
  int peak = occ;
  std::size_t j = i;
  for (; j < n && deltas_[j].time < end; ++j) {
    occ += deltas_[j].delta;
    peak = std::max(peak, occ);
  }
  if (peak >= cap) return false;

  // An event already at `start` is deltas_[i - 1], one at `end` deltas_[j].
  const bool start_new = i == 0 || deltas_[i - 1].time != start;
  const bool end_new = j == n || deltas_[j].time != end;
  const std::size_t grow = (start_new ? 1 : 0) + (end_new ? 1 : 0);
  if (grow > 0) {
    deltas_.resize(n + grow);
    Event* const d = deltas_.data();
    std::move_backward(d + j, d + n, d + n + grow);
    if (start_new) std::move_backward(d + i, d + j, d + j + 1);
  }
  if (start_new)
    deltas_[i] = {start, +1};
  else
    ++deltas_[i - 1].delta;
  // The events in [i, j) moved up by one when a start event was inserted.
  const std::size_t at_end = j + (start_new ? 1 : 0);
  if (end_new)
    deltas_[at_end] = {end, -1};
  else
    --deltas_[at_end].delta;
  return true;
}

void CapacityTimeline::reserve(double start, double end) {
  (void)try_reserve(start, end, std::numeric_limits<int>::max());
}

void CapacityTimeline::prune(double now) {
  auto it = deltas_.begin();
  for (; it != deltas_.end() && it->time <= now; ++it) base_ += it->delta;
  deltas_.erase(deltas_.begin(), it);
}

}  // namespace ww::dc
