// History learner (Eq. 8's CO2_ref / H2O_ref terms).
//
// WaterWise biases the objective with the recent normalized carbon and water
// footprint of every region over a sliding window (default 10 observations,
// weight lambda_ref = 0.1), nudging placements away from regions that have
// been persistently expensive and damping oscillation between regions.
#pragma once

#include <deque>
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
  /// observation).
  [[nodiscard]] double carbon_ref(int region) const;
  [[nodiscard]] double water_ref(int region) const;

  [[nodiscard]] int window() const noexcept { return window_; }
  [[nodiscard]] int observations() const noexcept { return count_; }

 private:
  /// Window mean of region r over one ring, oldest observation first.
  [[nodiscard]] double window_mean(const std::vector<double>& ring,
                                   int region) const;

  int num_regions_;
  int window_;
  int oldest_ = 0;  ///< Ring row of the oldest observation.
  int count_ = 0;   ///< Observations held, at most window_.
  /// Row-major window_ x num_regions_ rings of normalized observations.
  std::vector<double> carbon_;
  std::vector<double> water_;
};

}  // namespace ww::core
