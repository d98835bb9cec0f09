#include "env/energy_mix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ww::env {

namespace {

constexpr std::size_t idx(EnergySource s) {
  return static_cast<std::size_t>(static_cast<int>(s));
}

/// Daylight factor in [0, ~2]: zero at night, normalized so its daily mean
/// is ~1 (so the base solar share is also the time-average share).
double daylight_factor(double hour_of_day, double day_of_year) {
  // Longer days in summer: half-day length varies 4..8 hours around noon.
  const double season =
      std::cos(2.0 * M_PI * (day_of_year - 172.0) / 365.0);  // peak ~Jun 21
  const double half_day = 6.0 + 2.0 * season;
  const double x = (hour_of_day - 12.0) / half_day;
  if (std::abs(x) >= 1.0) return 0.0;
  const double shape = std::cos(0.5 * M_PI * x);
  // Mean of cos(pi/2 x) over [-1,1] scaled by duty cycle ~ (2/pi)*(2*half/24).
  const double daily_mean = (2.0 / M_PI) * (2.0 * half_day / 24.0);
  return shape * shape / std::max(0.05, daily_mean);
}

}  // namespace

EnergyMixModel::EnergyMixModel(MixConfig config, util::Rng rng,
                               int horizon_hours)
    : DayBlocks(horizon_hours, "EnergyMixModel"),
      config_(config),
      innovation_(config_.wind_noise *
                  std::sqrt(1.0 - config_.wind_noise_rho *
                                      config_.wind_noise_rho)),
      rng_(rng),
      rows_(static_cast<std::size_t>(horizon_hours)) {
  // Normalize base shares.
  double total = std::accumulate(config_.base_share.begin(),
                                 config_.base_share.end(), 0.0);
  if (total <= 0.0)
    throw std::invalid_argument("EnergyMixModel: base shares must be positive");
  for (double& s : config_.base_share) s /= total;
}

void EnergyMixModel::generate(std::size_t begin, std::size_t end) const {
  for (std::size_t h = begin; h < end; ++h) {
    const double day_of_year = std::fmod(static_cast<double>(h) / 24.0, 365.0);
    const double hour_of_day = static_cast<double>(h % 24);

    auto share = config_.base_share;

    // Solar follows the daylight curve.
    const double solar_mult =
        (1.0 - config_.solar_diurnal_swing) +
        config_.solar_diurnal_swing * daylight_factor(hour_of_day, day_of_year);
    share[idx(EnergySource::Solar)] *= solar_mult;

    // Wind swings stochastically with hourly persistence.
    wind_swing_ =
        config_.wind_noise_rho * wind_swing_ + innovation_ * rng_.normal();
    share[idx(EnergySource::Wind)] *=
        std::max(0.05, 1.0 + std::clamp(wind_swing_, -0.9, 0.9));

    // Hydro follows the melt season (peak ~May, day 135).
    const double hydro_mult =
        1.0 + config_.hydro_seasonal_swing *
                  std::cos(2.0 * M_PI * (day_of_year - 135.0) / 365.0);
    share[idx(EnergySource::Hydro)] *= std::max(0.05, hydro_mult);

    // Dispatchable fossil generation absorbs the renewable deficit/surplus so
    // total supply stays constant: rescale gas/oil/coal to fill to 1.
    double renewable = 0.0;
    for (const EnergySource s :
         {EnergySource::Nuclear, EnergySource::Wind, EnergySource::Hydro,
          EnergySource::Geothermal, EnergySource::Solar, EnergySource::Biomass})
      renewable += share[idx(s)];
    double fossil_base = share[idx(EnergySource::Gas)] +
                         share[idx(EnergySource::Oil)] +
                         share[idx(EnergySource::Coal)];
    const double cap = 0.97;  // grids keep some dispatchable margin
    if (renewable > cap) {
      // Curtail renewables proportionally.
      const double scale = cap / renewable;
      for (const EnergySource s :
           {EnergySource::Nuclear, EnergySource::Wind, EnergySource::Hydro,
            EnergySource::Geothermal, EnergySource::Solar,
            EnergySource::Biomass})
        share[idx(s)] *= scale;
      renewable = cap;
    }
    const double fossil_needed = 1.0 - renewable;
    if (fossil_base > 1e-12) {
      const double scale = fossil_needed / fossil_base;
      share[idx(EnergySource::Gas)] *= scale;
      share[idx(EnergySource::Oil)] *= scale;
      share[idx(EnergySource::Coal)] *= scale;
    } else {
      // No fossil capacity configured: backfill with gas.
      share[idx(EnergySource::Gas)] += fossil_needed;
    }

    Row& row = rows_[h];
    row.shares = share;

    double ci = 0.0;
    double wem = 0.0;
    double wwri = 0.0;
    for (const EnergySource s : all_sources()) {
      ci += share[idx(s)] * env::carbon_intensity(s);
      wem += share[idx(s)] * env::ewif(s, WaterDataset::ElectricityMaps);
      wwri += share[idx(s)] * env::ewif(s, WaterDataset::WorldResourcesInstitute);
    }
    row.ci = ci;
    row.ewif_em = wem;
    row.ewif_wri = wwri;
  }
}

double EnergyMixModel::share(EnergySource source, double t_seconds) const {
  const HourPoint p = point(t_seconds);
  ensure(p.hi);
  return rows_[p.lo].shares[idx(source)];
}

EnergyMixModel::Intensity EnergyMixModel::intensity(
    const HourPoint& p, WaterDataset dataset) const {
  // The interpolation DayBlocks::interpolate computes, on two fields.
  ensure(p.hi);
  const Row& lo = rows_[p.lo];
  const Row& hi = rows_[p.hi];
  const bool em = dataset == WaterDataset::ElectricityMaps;
  return {lo.ci * (1.0 - p.frac) + hi.ci * p.frac,
          (em ? lo.ewif_em : lo.ewif_wri) * (1.0 - p.frac) +
              (em ? hi.ewif_em : hi.ewif_wri) * p.frac};
}

}  // namespace ww::env
