#include "env/weather.hpp"

#include <algorithm>
#include <cmath>

namespace ww::env {

double wue_from_wet_bulb(double wet_bulb_c) {
  // Quadratic fit to cooling-tower evaporation: ~0.4 L/kWh at 5C wet-bulb,
  // ~3 L/kWh at 15C, ~6.5 L/kWh at 25C, ~8.5 L/kWh at 30C — matching the
  // 0-8 L/kWh regional range of Fig. 2(c).  Floor models drift/blowdown.
  const double w = -0.72 + 0.198 * wet_bulb_c + 0.0036 * wet_bulb_c * wet_bulb_c;
  return std::max(0.05, w);
}

WeatherModel::WeatherModel(WeatherConfig config, util::Rng rng,
                           int horizon_hours)
    : DayBlocks(horizon_hours, "WeatherModel"),
      config_(config),
      innovation_(config_.noise_stddev_c *
                  std::sqrt(1.0 - config_.noise_rho * config_.noise_rho)),
      rng_(rng),
      samples_(static_cast<std::size_t>(horizon_hours)) {}

void WeatherModel::generate(std::size_t begin, std::size_t end) const {
  for (std::size_t h = begin; h < end; ++h) {
    const double day = static_cast<double>(h) / 24.0;
    const double hour_of_day = static_cast<double>(h % 24);
    const double annual =
        config_.annual_amplitude_c *
        std::cos(2.0 * M_PI * (day - config_.peak_day_of_year) / 365.0);
    const double diurnal =
        config_.diurnal_amplitude_c *
        std::cos(2.0 * M_PI * (hour_of_day - config_.peak_hour_utc) / 24.0);
    noise_ = config_.noise_rho * noise_ + innovation_ * rng_.normal();
    samples_[h] = config_.mean_c + annual + diurnal + noise_;
  }
}

double WeatherModel::wet_bulb_c(const HourPoint& p) const {
  return interpolate(samples_.data(), p);
}

}  // namespace ww::env
