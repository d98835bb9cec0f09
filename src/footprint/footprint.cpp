#include "footprint/footprint.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ww::footprint {

FootprintModel::FootprintModel(const env::Environment& env, ServerSpec server,
                               double embodied_scale)
    : env_(&env),
      server_(server),
      embodied_scale_(embodied_scale),
      server_embodied_water_l_(server_.embodied_water_l()) {}

Intensities FootprintModel::intensities(int r, double t,
                                        const env::RegionSample& s) const {
  Intensities at;
  at.ci = s.ci;
  at.ewif = s.ewif;
  at.wue = s.wue;
  double wsf = s.wsf;
  if (faults_ != nullptr) {
    if (view_ == env::FaultView::Controller) {
      at.ci *= faults_->carbon_bias(r, t);
      const double water_bias = faults_->water_bias(r, t);
      at.ewif *= water_bias;
      at.wue *= water_bias;
    }
    // Scarcity shocks are world-level: a drought raises the true Eq. 6
    // weighting, so both the ledger and the controller see it.
    wsf += faults_->wsf_shock(r, t);
  }
  at.scarcity = 1.0 + wsf;
  at.pue = s.pue;
  return at;
}

Intensities FootprintModel::sample(int r, double t) const {
  return intensities(r, t, env_->sample(r, t));
}

void FootprintModel::sample_all(double t, std::vector<Intensities>& out) const {
  out.resize(static_cast<std::size_t>(env_->num_regions()));
  env_->sample_all(t, [this, t, &out](int r, const env::RegionSample& s) {
    out[static_cast<std::size_t>(r)] = intensities(r, t, s);
  });
}

Breakdown FootprintModel::job_integrated(int r, double t_start,
                                         double exec_seconds,
                                         double energy_kwh) const {
  if (!std::isfinite(t_start) || !std::isfinite(exec_seconds))
    throw std::invalid_argument(
        "FootprintModel::job_integrated: start " + std::to_string(t_start) +
        " s and duration " + std::to_string(exec_seconds) +
        " s must be finite");
  Breakdown total;
  if (exec_seconds <= 0.0) return total;
  // Integrate hourly: energy is spread uniformly across the execution
  // interval and each slice is billed at its own intensities.
  const double t_end = t_start + exec_seconds;
  double t = t_start;
  while (t < t_end) {
    const double slice_end = std::min(t_end, (std::floor(t / 3600.0) + 1.0) * 3600.0);
    // Past 2^53 hours (about 3.2e19 s) the next hour boundary rounds back
    // to t.
    if (!(slice_end > t))
      throw std::invalid_argument(
          "FootprintModel::job_integrated: start " + std::to_string(t_start) +
          " s is too large to integrate hourly");
    const double frac = (slice_end - t) / exec_seconds;
    const double mid = 0.5 * (t + slice_end);
    const Breakdown slice = operational(sample(r, mid), energy_kwh * frac);
    total += slice;
    t = slice_end;
  }
  return compose(total, embodied(exec_seconds));
}

Breakdown FootprintModel::transfer(int from, int to, double bytes,
                                   double t) const {
  if (from == to) return {};
  return transfer(from, to, bytes, sample(from, t), sample(to, t));
}

}  // namespace ww::footprint
