#include "env/environment.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ww::env {

namespace {

/// Rejects a spec whose values would poison the footprint equations or the
/// transfer table, naming the region and the field.
void validate(const RegionSpec& spec) {
  const std::string who = "Environment: region '" + spec.name + "'";
  const auto reject = [&who](const char* field, double value,
                             const char* rule) {
    throw std::invalid_argument(who + ": " + field + " " +
                                std::to_string(value) + " " + rule);
  };
  check_lat_lon(spec.latitude, spec.longitude, who);
  // The negated comparisons also reject NaN.
  if (!(spec.pue >= 1.0 && std::isfinite(spec.pue)))
    reject("pue", spec.pue, "must be finite and >= 1");
  if (spec.servers < 0)
    throw std::invalid_argument(who + ": servers " +
                                std::to_string(spec.servers) + " must be >= 0");
  if (!(spec.wsf >= 0.0 && std::isfinite(spec.wsf)))
    reject("wsf", spec.wsf, "must be finite and >= 0");
  if (!(spec.price_usd_per_kwh >= 0.0 && std::isfinite(spec.price_usd_per_kwh)))
    reject("price_usd_per_kwh", spec.price_usd_per_kwh,
           "must be finite and >= 0");
}

}  // namespace

Environment::Environment(std::vector<RegionSpec> specs,
                         EnvironmentConfig config)
    : config_(config) {
  if (specs.empty())
    throw std::invalid_argument("Environment: need at least one region");
  if (!(config_.horizon_days > 0 &&
        config_.horizon_days <= std::numeric_limits<int>::max() / 24))
    throw std::invalid_argument("Environment: horizon_days " +
                                std::to_string(config_.horizon_days) +
                                " must be positive and its hours fit an int");
  for (const auto& [field, scale] :
       {std::pair{"carbon_intensity_scale", config_.carbon_intensity_scale},
        std::pair{"water_intensity_scale", config_.water_intensity_scale}})
    if (!(scale >= 0.0 && std::isfinite(scale)))
      throw std::invalid_argument(std::string("Environment: ") + field + " " +
                                  std::to_string(scale) +
                                  " must be finite and >= 0");
  const int horizon_hours = config_.horizon_days * 24;
  const util::Rng root(config_.seed);

  std::vector<std::pair<double, double>> points;
  points.reserve(specs.size());
  regions_.reserve(specs.size());
  for (auto& spec : specs) {
    if (config_.pue_override) spec.pue = *config_.pue_override;
    validate(spec);
    RegionRuntime rt;
    // Child streams are keyed by region *name* so a subset environment sees
    // exactly the same series for a region as the full environment does.
    const util::Rng region_rng = root.child(spec.name);
    rt.mix = std::make_unique<EnergyMixModel>(spec.mix, region_rng.child("mix"),
                                              horizon_hours);
    rt.weather = std::make_unique<WeatherModel>(
        spec.weather, region_rng.child("weather"), horizon_hours);
    points.emplace_back(spec.latitude, spec.longitude);
    rt.spec = std::move(spec);
    regions_.push_back(std::move(rt));
  }
  transfer_ = std::make_unique<TransferModel>(std::move(points),
                                              config_.transfer);
}

Environment Environment::builtin(EnvironmentConfig config) {
  return Environment(builtin_region_specs(), config);
}

Environment Environment::builtin_subset(const std::vector<int>& region_indices,
                                        EnvironmentConfig config) {
  const auto all = builtin_region_specs();
  std::vector<RegionSpec> specs;
  specs.reserve(region_indices.size());
  for (const int i : region_indices)
    specs.push_back(all.at(static_cast<std::size_t>(i)));
  return Environment(std::move(specs), config);
}

int Environment::region_index(const std::string& name) const {
  for (std::size_t i = 0; i < regions_.size(); ++i)
    if (regions_[i].spec.name == name) return static_cast<int>(i);
  throw std::out_of_range("Environment: unknown region '" + name + "'");
}

RegionSample Environment::sample(int r, double t) const {
  if (r < 0 || static_cast<std::size_t>(r) >= regions_.size())
    throw std::out_of_range("Environment: region " + std::to_string(r) +
                            " out of range");
  return sample_at(static_cast<std::size_t>(r),
                   hour_point(t, horizon_hours()));
}

RegionSample Environment::sample_at(std::size_t r, const HourPoint& p) const {
  const RegionRuntime& rt = regions_[r];
  const EnergyMixModel::Intensity mix = rt.mix->intensity(p, config_.dataset);
  RegionSample s;
  s.ci = config_.carbon_intensity_scale * mix.ci;
  s.ewif = config_.water_intensity_scale * mix.ewif;
  s.wue = config_.water_intensity_scale * rt.weather->wue(p);
  s.wsf = rt.spec.wsf;
  s.pue = rt.spec.pue;
  return s;
}

double Environment::wsf(int r) const {
  return regions_.at(static_cast<std::size_t>(r)).spec.wsf;
}

double Environment::pue(int r) const {
  return regions_.at(static_cast<std::size_t>(r)).spec.pue;
}

double Environment::electricity_price(int r, double t) const {
  const double hour = std::fmod(t / 3600.0, 24.0);
  // Peak tariff around 18:00 local-ish; off-peak overnight.
  const double swing = 0.25 * std::cos(2.0 * M_PI * (hour - 18.0) / 24.0);
  return regions_.at(static_cast<std::size_t>(r)).spec.price_usd_per_kwh *
         (1.0 + swing);
}

double Environment::mix_share(int r, EnergySource s, double t) const {
  return regions_.at(static_cast<std::size_t>(r)).mix->share(s, t);
}

int Environment::total_servers() const noexcept {
  int total = 0;
  for (const auto& r : regions_) total += r.spec.servers;
  return total;
}

}  // namespace ww::env
