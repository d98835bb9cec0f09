// Regional wet-bulb temperature synthesis and the WUE cooling model.
//
// The paper sources wet-bulb temperature from Meteologix and derives Water
// Usage Effectiveness (WUE) from it [32].  Offline we synthesize a per-region
// wet-bulb series as annual + diurnal sinusoids plus AR(1) weather noise,
// calibrated so regional WUE averages reproduce Fig. 2(c) (Mumbai and Madrid
// high, Zurich low).  WUE follows the standard cooling-tower evaporation
// curve: monotonically increasing in wet-bulb temperature.
#pragma once

#include "env/day_blocks.hpp"
#include "util/rng.hpp"

namespace ww::env {

/// Cooling-tower WUE (L per kWh of IT energy) as a function of wet-bulb
/// temperature in Celsius.  Monotone non-decreasing, clamped below at the
/// drift/blowdown floor.
[[nodiscard]] double wue_from_wet_bulb(double wet_bulb_c);

struct WeatherConfig {
  double mean_c = 12.0;          ///< Annual mean wet-bulb temperature.
  double annual_amplitude_c = 8.0;
  double diurnal_amplitude_c = 3.0;
  double noise_stddev_c = 1.5;   ///< AR(1) innovation scale.
  double noise_rho = 0.92;       ///< AR(1) hourly persistence.
  double peak_day_of_year = 200; ///< Warmest day (July in the north).
  double peak_hour_utc = 14.0;   ///< Warmest hour of day.
};

/// Deterministic hourly wet-bulb series.
class WeatherModel final : public DayBlocks {
 public:
  /// `horizon_hours` samples are drawn from `rng`, a day at a time on first
  /// read (env/day_blocks.hpp); every value is the same whatever order the
  /// queries come in.  Queries are const and thread-safe.
  WeatherModel(WeatherConfig config, util::Rng rng, int horizon_hours);

  /// Wet-bulb temperature at point `p` of this model's horizon; linear
  /// interpolation between hourly samples, clamped at the horizon.
  [[nodiscard]] double wet_bulb_c(const HourPoint& p) const;
  /// The same at time t (seconds since epoch start).
  [[nodiscard]] double wet_bulb_c(double t_seconds) const {
    return wet_bulb_c(point(t_seconds));
  }

  [[nodiscard]] double wue(const HourPoint& p) const {
    return wue_from_wet_bulb(wet_bulb_c(p));
  }

  [[nodiscard]] const WeatherConfig& config() const noexcept { return config_; }

 private:
  void generate(std::size_t begin, std::size_t end) const override;

  WeatherConfig config_;
  double innovation_;  ///< AR(1) innovation scale.
  // Generator state, advanced one hour per generated sample.
  mutable util::Rng rng_;
  mutable double noise_ = 0.0;
  /// Hourly wet-bulb temperatures at full horizon; the pages of days never
  /// read are never touched.
  HourlyRows<double> samples_;
};

}  // namespace ww::env
