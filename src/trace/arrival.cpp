#include "trace/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace ww::trace {

double diurnal_factor(DiurnalShape shape, double swing, double peak_hour,
                      double t_seconds) {
  const double hour = std::fmod(t_seconds / 3600.0, 24.0);
  switch (shape) {
    case DiurnalShape::Flat:
      return 1.0;
    case DiurnalShape::SinglePeak:
      return 1.0 + swing * std::cos(2.0 * M_PI * (hour - peak_hour) / 24.0);
    case DiurnalShape::DoublePeak: {
      // Two peaks 10 hours apart; mean of the cosine pair is zero.
      const double a = std::cos(2.0 * M_PI * (hour - peak_hour) / 24.0);
      const double b = std::cos(2.0 * M_PI * (hour - (peak_hour - 10.0)) / 24.0);
      return 1.0 + 0.5 * swing * (a + b);
    }
  }
  return 1.0;
}

namespace {

/// Throws std::invalid_argument naming `field` unless `value` is finite and
/// >= 0 (the negated comparison also rejects NaN).
void require_finite_nonnegative(const char* field, double value) {
  if (!(value >= 0.0 && std::isfinite(value)))
    throw std::invalid_argument(std::string("generate_arrivals: ") + field +
                                " " + std::to_string(value) +
                                " must be finite and >= 0");
}

}  // namespace

std::vector<double> generate_arrivals(const ArrivalConfig& config,
                                      double horizon_seconds, util::Rng rng) {
  // Each rule keeps the loop below finite: a NaN horizon is never reached,
  // a negative rate steps t backwards, and a non-positive sojourn mean stops
  // state_until from advancing.  The swing rule is the squeeze's premise.
  require_finite_nonnegative("horizon_seconds", horizon_seconds);
  require_finite_nonnegative("base_rate_per_s", config.base_rate_per_s);
  require_finite_nonnegative("diurnal_swing", config.diurnal_swing);
  require_finite_nonnegative("burst_rate_multiplier",
                             config.burst_rate_multiplier);
  require_finite_nonnegative("calm_rate_multiplier",
                             config.calm_rate_multiplier);
  for (const auto& [field, mean] :
       {std::pair{"mean_burst_seconds", config.mean_burst_seconds},
        std::pair{"mean_calm_seconds", config.mean_calm_seconds}})
    if (!(mean > 0.0))
      throw std::invalid_argument(std::string("generate_arrivals: ") + field +
                                  " " + std::to_string(mean) +
                                  " must be > 0");

  // Upper bound on the instantaneous rate, for thinning.
  const double rate_max = config.base_rate_per_s *
                          (1.0 + config.diurnal_swing) *
                          std::max(config.burst_rate_multiplier, 1.0);
  require_finite_nonnegative("rate bound", rate_max);

  // The expected count plus 10 %, capped so that a huge rate cannot ask
  // for an unrepresentable reservation.
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(std::clamp(
      config.base_rate_per_s * horizon_seconds * 1.1, 16.0, 1e7)));

  // MMPP state evolves on its own exponential clock.
  bool bursting = false;
  double state_until = rng.exponential(1.0 / config.mean_calm_seconds);

  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate_max);
    if (t >= horizon_seconds) break;
    while (t > state_until) {
      bursting = !bursting;
      state_until += rng.exponential(
          1.0 / (bursting ? config.mean_burst_seconds : config.mean_calm_seconds));
    }
    const double mult =
        bursting ? config.burst_rate_multiplier : config.calm_rate_multiplier;
    // Thinning accepts when x < base * d, d the diurnal factor.  With
    // base >= 0 and d in [1 - swing, 1 + swing] (the invariant
    // Arrivals.DiurnalFactorWithinSwingBounds checks), monotone rounding
    // puts base * d between the two bounds below, so they decide a
    // candidate exactly as the full test would; diurnal_factor runs only
    // for candidates between them.
    const double base = config.base_rate_per_s * mult;
    const double x = rng.uniform() * rate_max;
    if (x >= base * (1.0 + config.diurnal_swing)) continue;
    if (x < base * (1.0 - config.diurnal_swing) ||
        x < base * diurnal_factor(config.shape, config.diurnal_swing,
                                  config.peak_hour, t))
      arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace ww::trace
