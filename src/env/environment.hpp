// Environment facade: everything WaterWise observes about the world.
//
// Owns the region profiles, their energy-mix and weather series, the Water
// Scarcity Factors, and the transfer model, and exposes the quantities the
// footprint equations (Sec. 2) and the scheduler (Sec. 4) consume:
// carbon intensity, EWIF, WUE, WSF, PUE, water intensity (Eq. 6), and
// inter-region transfer latency/energy.  Sensitivity experiments plug in via
// multiplicative perturbation knobs (the +-10% studies of Sec. 6) and the
// dataset switch (Electricity Maps vs. WRI, Fig. 6).  It models the world
// without faults: a fault campaign's overlay belongs to the footprint model
// (footprint::FootprintModel::with_faults), so one Environment serves both
// the ledger and the controller.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/energy_mix.hpp"
#include "env/latency.hpp"
#include "env/region.hpp"
#include "env/weather.hpp"
#include "util/rng.hpp"

namespace ww::env {

/// Everything the footprint equations read about one region at one
/// instant, as Environment::sample(r, t) returns it.
struct RegionSample {
  double ci = 0.0;    ///< carbon_intensity(r, t), gCO2/kWh.
  double ewif = 0.0;  ///< ewif(r, t), L/kWh.
  double wue = 0.0;   ///< wue(r, t), L/kWh.
  double wsf = 0.0;   ///< wsf(r).
  double pue = 1.0;   ///< pue(r).
};

struct EnvironmentConfig {
  std::uint64_t seed = 20250612;
  /// Series length.  Hourly rows are generated a day at a time on first
  /// read, so a long horizon costs only the days a run reads (plus address
  /// space for the rest).
  int horizon_days = 400;
  WaterDataset dataset = WaterDataset::ElectricityMaps;
  std::optional<double> pue_override;  ///< Force one PUE across regions.
  double carbon_intensity_scale = 1.0; ///< Sensitivity knob.
  double water_intensity_scale = 1.0;  ///< Sensitivity knob (scales EWIF+WUE).
  TransferConfig transfer;
};

class Environment {
 public:
  /// Builds an environment from explicit region specs.  Throws
  /// std::invalid_argument naming the region when a latitude/longitude is
  /// non-finite or out of range, a PUE (pue_override included) is
  /// non-finite or below 1, `servers` is negative, or `wsf` or
  /// `price_usd_per_kwh` is negative or non-finite.  Also throws, naming the
  /// field, when `horizon_days` is not positive or its hours overflow int,
  /// or `carbon_intensity_scale` or `water_intensity_scale` is negative or
  /// non-finite.
  Environment(std::vector<RegionSpec> specs, EnvironmentConfig config = {});

  /// The paper's five-region setup (Zurich, Madrid, Oregon, Milan, Mumbai).
  [[nodiscard]] static Environment builtin(EnvironmentConfig config = {});

  /// Subset of the built-in regions by index into builtin_region_specs()
  /// (Fig. 12 region-availability experiments).
  [[nodiscard]] static Environment builtin_subset(
      const std::vector<int>& region_indices, EnvironmentConfig config = {});

  [[nodiscard]] int num_regions() const noexcept {
    return static_cast<int>(regions_.size());
  }
  [[nodiscard]] const RegionSpec& region(int r) const {
    return regions_.at(static_cast<std::size_t>(r)).spec;
  }
  [[nodiscard]] int region_index(const std::string& name) const;

  /// Region r's intensities at instant t, with one bounds check and one
  /// interpolation point that its hourly series models share.  Every other
  /// time-varying intensity accessor reads its field of this sample, so
  /// each is computed by one formula.
  [[nodiscard]] RegionSample sample(int r, double t) const;

  /// Calls visit(r, sample(r, t)) for every region, in index order.  All
  /// series share the horizon, so t's interpolation point is computed once
  /// for all of them; each model then makes its rows ready and reads them.
  /// The samples are bit-identical to sample(r, t).
  template <class Visit>
  void sample_all(double t, Visit&& visit) const {
    const HourPoint p = hour_point(t, horizon_hours());
    for (std::size_t r = 0; r < regions_.size(); ++r)
      visit(static_cast<int>(r), sample_at(r, p));
  }

  /// Grid carbon intensity, gCO2/kWh.
  [[nodiscard]] double carbon_intensity(int r, double t) const {
    return sample(r, t).ci;
  }
  /// Regional energy water intensity factor, L/kWh (active dataset).
  [[nodiscard]] double ewif(int r, double t) const { return sample(r, t).ewif; }
  /// Water usage effectiveness (cooling), L/kWh.
  [[nodiscard]] double wue(int r, double t) const { return sample(r, t).wue; }
  /// Water scarcity factor (dimensionless, base spec value).
  [[nodiscard]] double wsf(int r) const;
  /// Power usage effectiveness.
  [[nodiscard]] double pue(int r) const;
  /// Water intensity, Eq. 6: (WUE + PUE * EWIF) * (1 + WSF).
  [[nodiscard]] double water_intensity(int r, double t) const {
    const RegionSample s = sample(r, t);
    return (s.wue + s.pue * s.ewif) * (1.0 + s.wsf);
  }

  /// Time-of-use electricity price, USD/kWh (Sec. 7 cost extension):
  /// the region's base tariff with a +-25% peak/off-peak swing.
  [[nodiscard]] double electricity_price(int r, double t) const;

  /// Generation share of a source in region r at time t.
  [[nodiscard]] double mix_share(int r, EnergySource s, double t) const;

  /// The per-job part of a transfer of `bytes` (TransferModel::package);
  /// the per-pair forms below take it or the byte count.
  [[nodiscard]] TransferModel::Package transfer_package(
      double bytes) const noexcept {
    return transfer_->package(bytes);
  }
  [[nodiscard]] double transfer_latency_seconds(
      int from, int to, const TransferModel::Package& pkg) const {
    return transfer_->latency_seconds(from, to, pkg);
  }
  [[nodiscard]] double transfer_latency_seconds(int from, int to,
                                                double bytes) const {
    return transfer_->latency_seconds(from, to, bytes);
  }
  [[nodiscard]] double transfer_energy_kwh(
      int from, int to, const TransferModel::Package& pkg) const {
    return transfer_->energy_kwh(from, to, pkg);
  }
  [[nodiscard]] double transfer_energy_kwh(int from, int to,
                                           double bytes) const {
    return transfer_->energy_kwh(from, to, bytes);
  }
  [[nodiscard]] double transfer_distance_km(int from, int to) const {
    return transfer_->distance_km(from, to);
  }
  [[nodiscard]] const TransferModel& transfer_model() const noexcept {
    return *transfer_;
  }

  [[nodiscard]] const EnvironmentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] WaterDataset dataset() const noexcept {
    return config_.dataset;
  }
  [[nodiscard]] double horizon_seconds() const noexcept {
    return static_cast<double>(config_.horizon_days) * 86400.0;
  }
  [[nodiscard]] int total_servers() const noexcept;

 private:
  [[nodiscard]] std::size_t horizon_hours() const noexcept {
    return static_cast<std::size_t>(config_.horizon_days) * 24;
  }
  /// Region r's sample at the interpolation point `p`: the models' rows
  /// at p, then the sensitivity scales.
  [[nodiscard]] RegionSample sample_at(std::size_t r,
                                       const HourPoint& p) const;

  struct RegionRuntime {
    RegionSpec spec;
    std::unique_ptr<EnergyMixModel> mix;
    std::unique_ptr<WeatherModel> weather;
  };

  std::vector<RegionRuntime> regions_;
  std::unique_ptr<TransferModel> transfer_;
  EnvironmentConfig config_;
};

}  // namespace ww::env
