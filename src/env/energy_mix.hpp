// Per-region energy-mix time series.
//
// The paper feeds real-time energy-mix breakdowns from Electricity Maps into
// the regional EWIF / carbon-intensity estimation.  Offline we synthesize the
// mix: each region has base generation shares per source (calibrated so the
// regional carbon-intensity ordering of Fig. 2(a) and the EWIF ordering of
// Fig. 2(b) hold), modulated over time — solar follows the daylight curve,
// wind carries AR(1) stochastic swings, hydro follows a seasonal profile —
// with dispatchable fossil generation absorbing the residual demand.  This
// produces the temporal carbon/water-intensity variation (and their partial
// anti-correlation) that Fig. 2(e) shows and the scheduler exploits.
#pragma once

#include <array>

#include "env/day_blocks.hpp"
#include "env/energy_source.hpp"
#include "util/rng.hpp"

namespace ww::env {

struct MixConfig {
  /// Base (time-average) generation shares per source; normalized internally.
  std::array<double, kNumEnergySources> base_share{};
  double solar_diurnal_swing = 1.0;  ///< 0 = flat, 1 = full daylight shape.
  double wind_noise = 0.65;          ///< Relative AR(1) swing on wind share.
  double hydro_seasonal_swing = 0.35;///< Relative spring-melt swing on hydro.
  double wind_noise_rho = 0.80;      ///< Hourly persistence of wind swings.
};

/// Deterministic hourly generation-share series, generated a day at a time
/// on first read (env/day_blocks.hpp).  Queries are const and thread-safe.
class EnergyMixModel final : public DayBlocks {
 public:
  EnergyMixModel(MixConfig config, util::Rng rng, int horizon_hours);

  /// Generation share of `source` at time t (seconds); shares sum to 1.
  [[nodiscard]] double share(EnergySource source, double t_seconds) const;

  /// Mix-weighted grid carbon intensity, gCO2/kWh (paper Sec. 2.1), and
  /// regional EWIF, L/kWh (paper Sec. 2.2) of `dataset`, interpolated at
  /// one point of this model's horizon.
  struct Intensity {
    double ci;
    double ewif;
  };
  [[nodiscard]] Intensity intensity(const HourPoint& p,
                                    WaterDataset dataset) const;
  [[nodiscard]] Intensity intensity(double t_seconds,
                                    WaterDataset dataset) const {
    return intensity(point(t_seconds), dataset);
  }

  [[nodiscard]] double carbon_intensity(double t_seconds) const {
    return intensity(t_seconds, WaterDataset::ElectricityMaps).ci;
  }
  [[nodiscard]] double ewif(double t_seconds, WaterDataset dataset) const {
    return intensity(t_seconds, dataset).ewif;
  }

  [[nodiscard]] const MixConfig& config() const noexcept { return config_; }

 private:
  using Shares = std::array<double, kNumEnergySources>;

  void generate(std::size_t begin, std::size_t end) const override;

  MixConfig config_;
  double innovation_;  ///< Wind AR(1) innovation scale.
  // Generator state, advanced one hour per generated row.
  mutable util::Rng rng_;
  mutable double wind_swing_ = 0.0;
  /// One hour of the series: the generation shares and their mix-weighted
  /// aggregates, side by side so an intensity read touches one row per
  /// interpolation point.
  struct Row {
    double ci;        ///< Carbon intensity, gCO2/kWh.
    double ewif_em;   ///< EWIF, Electricity Maps table.
    double ewif_wri;  ///< EWIF, WRI table.
    Shares shares;    ///< shares[s]: the share of source s.
  };
  /// Hourly rows at full horizon; the pages of days never read are never
  /// touched.
  HourlyRows<Row> rows_;
};

}  // namespace ww::env
