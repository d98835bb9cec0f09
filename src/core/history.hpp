// History learner (Eq. 8's CO2_ref / H2O_ref terms).
//
// WaterWise biases the objective with the recent normalized carbon and water
// footprint of every region over a sliding window (default 10 observations,
// weight lambda_ref = 0.1), nudging placements away from regions that have
// been persistently expensive and damping oscillation between regions.
//
// The window means are computed at observe time, once per observation for
// all regions, so carbon_ref / water_ref are array reads.  Each region's
// sum runs oldest observation first, exactly as a per-call mean would.
#pragma once

#include <cstddef>
#include <vector>

namespace ww::core {

class HistoryLearner {
 public:
  HistoryLearner(int num_regions, int window);

  /// Records one batch observation: per-region carbon and water intensity,
  /// normalized internally by the batch max so values are comparable across
  /// time (each entry lands in [0, 1]).
  void observe(const std::vector<double>& carbon_intensity,
               const std::vector<double>& water_intensity);

  /// Window-mean normalized carbon footprint of region r (0 before any
  /// observation), as of the last observe().
  [[nodiscard]] double carbon_ref(int region) const {
    return carbon_mean_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] double water_ref(int region) const {
    return water_mean_[static_cast<std::size_t>(region)];
  }

  [[nodiscard]] int window() const noexcept { return window_; }
  [[nodiscard]] int observations() const noexcept { return count_; }

 private:
  int num_regions_;
  int window_;
  int oldest_ = 0;  ///< Ring row of the oldest observation.
  int count_ = 0;   ///< Observations held, at most window_.
  /// Row-major window_ x num_regions_ rings of normalized observations.
  std::vector<double> carbon_;
  std::vector<double> water_;
  /// Per-region window means, refreshed by every observe().
  std::vector<double> carbon_mean_;
  std::vector<double> water_mean_;
};

}  // namespace ww::core
