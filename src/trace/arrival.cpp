#include "trace/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

FactorBounds diurnal_bounds(DiurnalShape shape, double swing,
                            double peak_hour, std::size_t bin) {
  constexpr double kWidth = 86400.0 / static_cast<double>(kDiurnalBins);
  constexpr double kSlackSeconds = 1.0;
  const double centre = (static_cast<double>(bin) + 0.5) * kWidth;
  const double d = diurnal_factor(shape, swing, peak_hour, centre);
  const double per_second = swing * 2.0 * M_PI / 86400.0;
  const double margin = 1e-9 * (1.0 + swing * (1.0 + std::fabs(peak_hour)));
  const double pad = per_second * (0.5 * kWidth + kSlackSeconds) + margin;
  return {std::fmax(d - pad, 1.0 - swing), std::fmin(d + pad, 1.0 + swing)};
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

  // The squeeze's bounds for each MMPP state (calm 0, burst 1), scaled by
  // the state's base rate, one row per bin and a last row that decides
  // nothing, for the times diurnal_bin cannot place.
  const DiurnalShape shape = config.shape;
  const double swing = config.diurnal_swing;
  const double peak = config.peak_hour;
  const double calm = config.base_rate_per_s * config.calm_rate_multiplier;
  const double burst = config.base_rate_per_s * config.burst_rate_multiplier;
  const double base[2] = {calm, burst};
  constexpr std::size_t kRow = kDiurnalBins + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<FactorBounds> bands(2 * kRow);
  for (std::size_t k = 0; k < kDiurnalBins; ++k) {
    const FactorBounds b = diurnal_bounds(shape, swing, peak, k);
    for (std::size_t s = 0; s < 2; ++s)
      bands[s * kRow + k] = {base[s] * b.lo, base[s] * b.hi};
  }
  for (std::size_t s = 0; s < 2; ++s)
    bands[s * kRow + kDiurnalBins] = {-kInf, kInf};

  // The expected count plus 10 %, capped so that a huge rate cannot ask
  // for an unrepresentable reservation.  The buffer is sized to the whole
  // reservation; every candidate is stored at arrivals[n] and kept by
  // advancing n.  A full buffer doubles only for a candidate that is kept,
  // as push_back would.
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(std::clamp(
      config.base_rate_per_s * horizon_seconds * 1.1, 16.0, 1e7)));
  std::size_t room = arrivals.capacity();
  arrivals.resize(room);
  double* out = arrivals.data();
  std::size_t n = 0;

  // MMPP state evolves on its own exponential clock.
  std::size_t state = 0;
  double state_until = rng.exponential(1.0 / config.mean_calm_seconds);

  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate_max);
    if (t >= horizon_seconds) break;
    while (t > state_until) {
      state ^= 1;
      state_until += rng.exponential(
          1.0 / (state ? config.mean_burst_seconds : config.mean_calm_seconds));
    }
    // Thinning accepts when x < base * d, d the diurnal factor.  `zone`
    // counts the bounds x is at or above: 0 accepts, 2 rejects, and only 1,
    // the band between them, runs diurnal_factor.  Counting compiles to
    // flag arithmetic and t is stored whether or not it is kept, so the
    // one branch left is on the rare band, not on the outcome.
    const FactorBounds& band = bands[state * kRow + diurnal_bin(t)];
    const double x = rng.uniform() * rate_max;
    const int zone = int{x >= band.lo} + int{x >= band.hi};
    bool take = zone == 0;
    if (zone == 1)
      take = x < base[state] * diurnal_factor(shape, swing, peak, t);
    if (n == room) {
      if (!take) continue;
      room *= 2;
      arrivals.resize(room);
      out = arrivals.data();
    }
    out[n] = t;
    n += take;
  }
  arrivals.resize(n);
  return arrivals;
}

}  // namespace ww::trace
