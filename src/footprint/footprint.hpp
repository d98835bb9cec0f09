// Carbon- and water-footprint model: Sec. 2 of the paper, Eq. 1-6.
//
// Carbon (Eq. 1):  CO2_j = E_j * CI + (t_j / T_lifetime) * CO2_embodied
// Offsite water (Eq. 2):  PUE * E_j * EWIF * (1 + WSF_dc)
// Onsite water (Eq. 3):   E_j * WUE * (1 + WSF_dc)
// Embodied water (Eq. 4): E_manufacturing * EWIF * (1 + WSF_mfg), amortized
//                         by t_j / T_lifetime like embodied carbon.
// Water intensity (Eq. 6): (WUE + PUE * EWIF) * (1 + WSF_dc)
//
// Two evaluation modes:
//  * `at`          — intensities sampled at a single instant; this is what
//                    the scheduler uses for decisions (it has no future).
//  * `integrated`  — intensities integrated hourly across the execution
//                    interval; this is what the simulator's ledger records.
//
// Every formula reads an `Intensities` sample: `sample(r, t)` takes one
// region's intensities at one instant, and the `(r, t)` entry points are
// the sample overloads applied to `sample(r, t)`.  A caller that evaluates
// many jobs at the same instant (the scheduler's batch window) samples
// each region once and passes the samples; the results are bit-identical
// because there is only one formula.
//
// A fault campaign reads its intensities through a model with a fault
// overlay (`with_faults`): the World view adds the water-scarcity shocks,
// and the Controller view adds the forecast biases on top.  Both views
// sample the same env::Environment; dc::Simulator builds them from its
// fault schedule.
#pragma once

#include <vector>

#include "env/environment.hpp"
#include "env/faults.hpp"

namespace ww::footprint {

/// Server constants for embodied-footprint amortization; defaults model the
/// AWS m5.metal estimate from the Teads EC2 dataset the paper uses [13].
struct ServerSpec {
  double embodied_carbon_g = 7.0e6;        ///< ~7 tCO2e per 4-socket server.
  double lifetime_seconds = 4.0 * 365.25 * 86400.0;  ///< 4-year depreciation.
  double manufacturing_ci_g_per_kwh = 700.0;  ///< Grid CI at the fab.
  double manufacturing_ewif_l_per_kwh = 1.8;
  double manufacturing_wsf = 0.6;          ///< Fabs sit in stressed regions.

  /// Eq. 4 precursor: back out manufacturing energy from embodied carbon.
  [[nodiscard]] double manufacturing_energy_kwh() const {
    return embodied_carbon_g / manufacturing_ci_g_per_kwh;
  }
  /// Total embodied water per server, Eq. 4.
  [[nodiscard]] double embodied_water_l() const {
    return manufacturing_energy_kwh() * manufacturing_ewif_l_per_kwh *
           (1.0 + manufacturing_wsf);
  }
};

/// Per-job footprint decomposition (grams CO2e / liters, scarcity-weighted).
struct Breakdown {
  double operational_carbon_g = 0.0;
  double embodied_carbon_g = 0.0;
  double offsite_water_l = 0.0;
  double onsite_water_l = 0.0;
  double embodied_water_l = 0.0;

  [[nodiscard]] double carbon_g() const noexcept {
    return operational_carbon_g + embodied_carbon_g;
  }
  [[nodiscard]] double water_l() const noexcept {
    return offsite_water_l + onsite_water_l + embodied_water_l;
  }
  Breakdown& operator+=(const Breakdown& o) noexcept {
    operational_carbon_g += o.operational_carbon_g;
    embodied_carbon_g += o.embodied_carbon_g;
    offsite_water_l += o.offsite_water_l;
    onsite_water_l += o.onsite_water_l;
    embodied_water_l += o.embodied_water_l;
    return *this;
  }
};

/// One region's intensities at one instant, as its Environment reports
/// them (sensitivity scales included), with the model's fault overlay.
struct Intensities {
  double ci = 0.0;        ///< Carbon intensity, gCO2/kWh.
  double ewif = 0.0;      ///< Energy water intensity factor, L/kWh.
  double wue = 0.0;       ///< Water usage effectiveness, L/kWh.
  double scarcity = 1.0;  ///< 1 + WSF(t), the Eq. 2/3/6 scarcity weight.
  double pue = 1.0;       ///< Power usage effectiveness.

  /// Water intensity, Eq. 6: (WUE + PUE * EWIF) * (1 + WSF).
  [[nodiscard]] double water_intensity() const noexcept {
    return (wue + pue * ewif) * scarcity;
  }
};

class FootprintModel {
 public:
  /// `embodied_scale` is the +-10% sensitivity knob of Sec. 6.
  explicit FootprintModel(const env::Environment& env, ServerSpec server = {},
                          double embodied_scale = 1.0);

  /// This model with `faults` overlaid in `view` (env::FaultView): every
  /// sample then adds the active WSF shocks to the environment's WSF, and
  /// the Controller view also multiplies CI by the carbon bias and EWIF and
  /// WUE by the water bias.  nullptr gives the model without an overlay.
  /// The schedule is borrowed and must outlive the returned model.
  [[nodiscard]] FootprintModel with_faults(const env::FaultSchedule* faults,
                                           env::FaultView view) const {
    FootprintModel viewed = *this;
    viewed.faults_ = faults;
    viewed.view_ = view;
    return viewed;
  }

  /// Region `r`'s intensities at instant `t`, from one
  /// env::Environment::sample(r, t) and the fault overlay.
  [[nodiscard]] Intensities sample(int r, double t) const;
  /// Every region's sample(r, t), in region order, into `out` (resized to
  /// the region count), from one env::Environment::sample_all(t, ...):
  /// one interpolation point for all of them.  Bit-identical to sample.
  void sample_all(double t, std::vector<Intensities>& out) const;

  /// Eq. 1-3 operational terms of `energy_kwh` at intensities `at`; the
  /// embodied fields are 0.
  [[nodiscard]] static Breakdown operational(const Intensities& at,
                                             double energy_kwh) {
    Breakdown b;
    b.operational_carbon_g = energy_kwh * at.ci;
    b.offsite_water_l = at.pue * energy_kwh * at.ewif * at.scarcity;
    b.onsite_water_l = energy_kwh * at.wue * at.scarcity;
    return b;
  }
  /// Eq. 1 and Eq. 4 embodied terms of a job running `exec_seconds`: the
  /// server's embodied carbon and water amortized over its lifetime.  The
  /// operational fields are 0.  Region-independent, so a caller costing
  /// one job in many regions computes it once.
  [[nodiscard]] Breakdown embodied(double exec_seconds) const {
    const double amortization = exec_seconds / server_.lifetime_seconds;
    Breakdown b;
    b.embodied_carbon_g =
        embodied_scale_ * amortization * server_.embodied_carbon_g;
    b.embodied_water_l =
        embodied_scale_ * amortization * server_embodied_water_l_;
    return b;
  }
  /// `op`'s operational terms with `emb`'s embodied terms.
  [[nodiscard]] static Breakdown compose(Breakdown op, const Breakdown& emb) {
    op.embodied_carbon_g = emb.embodied_carbon_g;
    op.embodied_water_l = emb.embodied_water_l;
    return op;
  }

  /// Footprint of running a job of `energy_kwh` / `exec_seconds` in region
  /// `r` with all intensities frozen at instant `t` (scheduler view).
  [[nodiscard]] Breakdown job_at(int r, double t, double energy_kwh,
                                 double exec_seconds) const {
    return job_at(sample(r, t), energy_kwh, exec_seconds);
  }
  /// The same footprint at already-sampled intensities `at`.
  [[nodiscard]] Breakdown job_at(const Intensities& at, double energy_kwh,
                                 double exec_seconds) const {
    return compose(operational(at, energy_kwh), embodied(exec_seconds));
  }

  /// Footprint with intensities integrated hourly over
  /// [t_start, t_start + exec_seconds] (ledger view).  Throws
  /// std::invalid_argument, naming the start, when `t_start` or
  /// `exec_seconds` is not finite, or when `t_start` is so large that an
  /// hourly slice cannot advance in double precision.
  [[nodiscard]] Breakdown job_integrated(int r, double t_start,
                                         double exec_seconds,
                                         double energy_kwh) const;

  /// Footprint of moving `bytes` from `from` to `to` at time `t`; transfer
  /// energy is billed at the mean of the two regions' intensities.
  [[nodiscard]] Breakdown transfer(int from, int to, double bytes,
                                   double t) const;
  /// The same footprint with the endpoints' intensities already sampled
  /// (`at_from` = sample(from, t), `at_to` = sample(to, t)).
  [[nodiscard]] Breakdown transfer(int from, int to, double bytes,
                                   const Intensities& at_from,
                                   const Intensities& at_to) const {
    return transfer(from, to, env_->transfer_package(bytes), at_from, at_to);
  }
  /// The same footprint of a package already split into its per-job part
  /// (env::Environment::transfer_package).
  [[nodiscard]] Breakdown transfer(int from, int to,
                                   const env::TransferModel::Package& pkg,
                                   const Intensities& at_from,
                                   const Intensities& at_to) const {
    Breakdown b;
    if (from == to) return b;
    const double energy = env_->transfer_energy_kwh(from, to, pkg);
    if (energy <= 0.0) return b;
    // Split the transfer energy across the two endpoints' grids.
    b += operational(at_from, 0.5 * energy);
    b += operational(at_to, 0.5 * energy);
    return b;
  }

  [[nodiscard]] const ServerSpec& server() const noexcept { return server_; }
  [[nodiscard]] const env::Environment& environment() const noexcept {
    return *env_;
  }
  [[nodiscard]] double embodied_scale() const noexcept {
    return embodied_scale_;
  }

 private:
  const env::Environment* env_;
  ServerSpec server_;
  double embodied_scale_;
  double server_embodied_water_l_;  ///< server_.embodied_water_l().
  const env::FaultSchedule* faults_ = nullptr;  ///< Borrowed; see with_faults.
  env::FaultView view_ = env::FaultView::World;

  /// Region r's environment sample `s` at instant t, with the overlay.
  [[nodiscard]] Intensities intensities(int r, double t,
                                        const env::RegionSample& s) const;
};

}  // namespace ww::footprint
