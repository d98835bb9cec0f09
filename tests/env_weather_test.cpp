#include <gtest/gtest.h>

#include <stdexcept>

#include "env/weather.hpp"

namespace ww::env {
namespace {

TEST(Wue, MonotoneInWetBulb) {
  double prev = 0.0;
  for (double t = -5.0; t <= 35.0; t += 0.5) {
    const double w = wue_from_wet_bulb(t);
    EXPECT_GE(w, prev - 1e-12) << "t=" << t;
    prev = w;
  }
}

TEST(Wue, FlooredAtDriftMinimum) {
  EXPECT_DOUBLE_EQ(wue_from_wet_bulb(-20.0), 0.05);
  EXPECT_GT(wue_from_wet_bulb(25.0), 5.0);
  EXPECT_LT(wue_from_wet_bulb(30.0), 10.0);  // stays in Fig. 2c's range
}

TEST(Weather, MeanNearConfigured) {
  WeatherConfig cfg;
  cfg.mean_c = 12.0;
  const WeatherModel model(cfg, util::Rng(1), 24 * 365);
  double total = 0.0;
  const int samples = 24 * 365;
  for (int h = 0; h < samples; ++h) total += model.wet_bulb_c(h * 3600.0);
  EXPECT_NEAR(total / samples, 12.0, 1.0);
}

TEST(Weather, AnnualSeasonality) {
  WeatherConfig cfg;
  cfg.mean_c = 10.0;
  cfg.annual_amplitude_c = 8.0;
  cfg.peak_day_of_year = 200;
  cfg.noise_stddev_c = 0.1;
  const WeatherModel model(cfg, util::Rng(2), 24 * 365);
  // Mid-July (day ~200) should be much warmer than mid-January (day ~15).
  double summer = 0.0;
  double winter = 0.0;
  for (int h = 0; h < 24; ++h) {
    summer += model.wet_bulb_c((200.0 * 24 + h) * 3600.0);
    winter += model.wet_bulb_c((15.0 * 24 + h) * 3600.0);
  }
  EXPECT_GT(summer / 24 - winter / 24, 10.0);
}

TEST(Weather, DiurnalCycle) {
  WeatherConfig cfg;
  cfg.diurnal_amplitude_c = 4.0;
  cfg.noise_stddev_c = 0.05;
  cfg.peak_hour_utc = 14.0;
  const WeatherModel model(cfg, util::Rng(3), 24 * 30);
  // Average 2pm sample should be warmer than average 2am sample.
  double day = 0.0;
  double night = 0.0;
  for (int d = 0; d < 30; ++d) {
    day += model.wet_bulb_c((d * 24 + 14) * 3600.0);
    night += model.wet_bulb_c((d * 24 + 2) * 3600.0);
  }
  EXPECT_GT(day - night, 30.0 * 4.0);  // ~2*amplitude per day
}

TEST(Weather, DeterministicAndInterpolated) {
  const WeatherConfig cfg;
  const WeatherModel a(cfg, util::Rng(4), 24 * 10);
  const WeatherModel b(cfg, util::Rng(4), 24 * 10);
  EXPECT_DOUBLE_EQ(a.wet_bulb_c(12345.0), b.wet_bulb_c(12345.0));
  // Interpolation: value at half-hour lies between the hourly samples.
  const double h0 = a.wet_bulb_c(0.0);
  const double h1 = a.wet_bulb_c(3600.0);
  const double mid = a.wet_bulb_c(1800.0);
  EXPECT_GE(mid, std::min(h0, h1) - 1e-12);
  EXPECT_LE(mid, std::max(h0, h1) + 1e-12);
}

TEST(Weather, ClampsOutsideHorizon) {
  const WeatherModel model(WeatherConfig{}, util::Rng(5), 24);
  EXPECT_NO_THROW((void)model.wet_bulb_c(-100.0));
  EXPECT_NO_THROW((void)model.wet_bulb_c(1e9));
  // The point form reads the same clamped rows; a point computed on a
  // longer horizon is refused instead of read past the last row.
  EXPECT_EQ(model.wet_bulb_c(hour_point(1e9, 24)), model.wet_bulb_c(1e9));
  EXPECT_THROW((void)model.wet_bulb_c(hour_point(1e9, 48)), std::out_of_range);
}

TEST(Weather, RejectsBadHorizon) {
  EXPECT_THROW(WeatherModel(WeatherConfig{}, util::Rng(1), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ww::env
