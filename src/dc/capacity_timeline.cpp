#include "dc/capacity_timeline.hpp"

#include <algorithm>
#include <stdexcept>

namespace ww::dc {

CapacityTimeline::CapacityTimeline(int capacity) : capacity_(capacity) {
  if (capacity <= 0)
    throw std::invalid_argument("CapacityTimeline: capacity must be positive");
}

int CapacityTimeline::occupancy_at(double t) const {
  int occ = base_;
  for (const auto& [time, delta] : deltas_) {
    if (time > t) break;
    occ += delta;
  }
  return occ;
}

int CapacityTimeline::max_occupancy(double start, double end) const {
  // Occupancy entering the window, then scan events inside it.
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

void CapacityTimeline::add_delta(double t, int delta) {
  const auto it = std::lower_bound(
      deltas_.begin(), deltas_.end(), t,
      [](const std::pair<double, int>& e, double key) { return e.first < key; });
  if (it != deltas_.end() && it->first == t)
    it->second += delta;
  else
    deltas_.insert(it, {t, delta});
}

void CapacityTimeline::reserve(double start, double end) {
  if (!(end > start))
    throw std::invalid_argument("CapacityTimeline: end must exceed start");
  add_delta(start, +1);
  add_delta(end, -1);
}

void CapacityTimeline::prune(double now) {
  auto it = deltas_.begin();
  for (; it != deltas_.end() && it->first <= now; ++it) base_ += it->second;
  deltas_.erase(deltas_.begin(), it);
}

}  // namespace ww::dc
