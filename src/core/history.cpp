#include "core/history.hpp"

#include <algorithm>
#include <stdexcept>

namespace ww::core {

HistoryLearner::HistoryLearner(int num_regions, int window)
    : num_regions_(num_regions), window_(window) {
  if (num_regions <= 0 || window <= 0)
    throw std::invalid_argument("HistoryLearner: bad dimensions");
  const std::size_t cells =
      static_cast<std::size_t>(window) * static_cast<std::size_t>(num_regions);
  carbon_.assign(cells, 0.0);
  water_.assign(cells, 0.0);
}

namespace {
/// Writes v normalized by its max (all zeros when the max is not positive)
/// to `out`.
void normalize_into(const std::vector<double>& v, double* out) {
  const double mx = *std::max_element(v.begin(), v.end());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = mx > 0.0 ? v[i] / mx : 0.0;
}
}  // namespace

void HistoryLearner::observe(const std::vector<double>& carbon_intensity,
                             const std::vector<double>& water_intensity) {
  if (static_cast<int>(carbon_intensity.size()) != num_regions_ ||
      static_cast<int>(water_intensity.size()) != num_regions_)
    throw std::invalid_argument("HistoryLearner: observation size mismatch");
  int row = 0;
  if (count_ < window_) {
    row = (oldest_ + count_) % window_;
    ++count_;
  } else {
    // Full window: the newest observation overwrites the oldest.
    row = oldest_;
    oldest_ = (oldest_ + 1) % window_;
  }
  const std::size_t at =
      static_cast<std::size_t>(row) * static_cast<std::size_t>(num_regions_);
  normalize_into(carbon_intensity, carbon_.data() + at);
  normalize_into(water_intensity, water_.data() + at);
}

double HistoryLearner::window_mean(const std::vector<double>& ring,
                                   int region) const {
  if (count_ == 0) return 0.0;
  double total = 0.0;
  for (int i = 0; i < count_; ++i) {
    const int row = (oldest_ + i) % window_;
    total += ring[static_cast<std::size_t>(row) *
                      static_cast<std::size_t>(num_regions_) +
                  static_cast<std::size_t>(region)];
  }
  return total / static_cast<double>(count_);
}

double HistoryLearner::carbon_ref(int region) const {
  return window_mean(carbon_, region);
}

double HistoryLearner::water_ref(int region) const {
  return window_mean(water_, region);
}

}  // namespace ww::core
