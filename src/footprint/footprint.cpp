#include "footprint/footprint.hpp"

#include <algorithm>
#include <cmath>

namespace ww::footprint {

Breakdown& Breakdown::operator+=(const Breakdown& o) noexcept {
  operational_carbon_g += o.operational_carbon_g;
  embodied_carbon_g += o.embodied_carbon_g;
  offsite_water_l += o.offsite_water_l;
  onsite_water_l += o.onsite_water_l;
  embodied_water_l += o.embodied_water_l;
  return *this;
}

FootprintModel::FootprintModel(const env::Environment& env, ServerSpec server,
                               double embodied_scale)
    : env_(&env), server_(server), embodied_scale_(embodied_scale) {}

Intensities FootprintModel::sample(int r, double t) const {
  const env::RegionSample s = env_->sample(r, t);
  Intensities at;
  at.ci = s.ci;
  at.ewif = s.ewif;
  at.wue = s.wue;
  at.scarcity = 1.0 + s.wsf;
  at.pue = s.pue;
  return at;
}

Breakdown FootprintModel::operational(const Intensities& at,
                                      double energy_kwh) {
  Breakdown b;
  b.operational_carbon_g = energy_kwh * at.ci;
  b.offsite_water_l = at.pue * energy_kwh * at.ewif * at.scarcity;
  b.onsite_water_l = energy_kwh * at.wue * at.scarcity;
  return b;
}

void FootprintModel::add_embodied(Breakdown& b, double exec_seconds) const {
  const double amortization = exec_seconds / server_.lifetime_seconds;
  b.embodied_carbon_g =
      embodied_scale_ * amortization * server_.embodied_carbon_g;
  b.embodied_water_l =
      embodied_scale_ * amortization * server_.embodied_water_l();
}

Breakdown FootprintModel::job_at(const Intensities& at, double energy_kwh,
                                 double exec_seconds) const {
  Breakdown b = operational(at, energy_kwh);
  add_embodied(b, exec_seconds);
  return b;
}

Breakdown FootprintModel::job_integrated(int r, double t_start,
                                         double exec_seconds,
                                         double energy_kwh) const {
  Breakdown total;
  if (exec_seconds <= 0.0) return total;
  // Integrate hourly: energy is spread uniformly across the execution
  // interval and each slice is billed at its own intensities.
  const double t_end = t_start + exec_seconds;
  double t = t_start;
  while (t < t_end) {
    const double slice_end = std::min(t_end, (std::floor(t / 3600.0) + 1.0) * 3600.0);
    const double frac = (slice_end - t) / exec_seconds;
    const double mid = 0.5 * (t + slice_end);
    const Breakdown slice = operational(sample(r, mid), energy_kwh * frac);
    total += slice;
    t = slice_end;
  }
  add_embodied(total, exec_seconds);
  return total;
}

Breakdown FootprintModel::transfer(int from, int to, double bytes,
                                   double t) const {
  if (from == to) return {};
  return transfer(from, to, bytes, sample(from, t), sample(to, t));
}

Breakdown FootprintModel::transfer(int from, int to, double bytes,
                                   const Intensities& at_from,
                                   const Intensities& at_to) const {
  Breakdown b;
  if (from == to) return b;
  const double energy = env_->transfer_energy_kwh(from, to, bytes);
  if (energy <= 0.0) return b;
  // Split the transfer energy across the two endpoints' grids.
  b += operational(at_from, 0.5 * energy);
  b += operational(at_to, 0.5 * energy);
  return b;
}

}  // namespace ww::footprint
