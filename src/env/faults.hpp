// Deterministic fault injection: seeded failure schedules for robustness
// campaigns (the paper's Sec. 6 robustness experiments extended from input
// perturbation to actual mid-campaign failures).
//
// A FaultSchedule is a per-region list of time windows, each carrying one of
// four effects:
//
//   * region outage        — capacity factor 0: no new placements start
//                            while the window is active (running jobs drain
//                            through; the infrastructure degrades, it does
//                            not kill work already on the servers).
//   * capacity flap        — capacity factor in (0, 1): partial loss of
//                            placement headroom.
//   * forecast bias        — the *controller's observed* carbon/water
//                            intensities are off by a systematic factor
//                            (the world — and hence the ledger — is
//                            unchanged).  This models a mispredicting
//                            renewable forecast, not noise.
//   * water-scarcity shock — an additive WSF delta applied in *both* views
//                            (a real drought raises the true scarcity
//                            weighting of Eq. 6, and the controller sees it).
//
// dc::Simulator::set_fault_injection takes a schedule and turns it into the
// two views of one fault campaign over one env::Environment: the capacity
// effects gate its admissions, and footprint::FootprintModel::with_faults
// gives the ledger the World view and the controller the Controller view
// (see FaultView).
//
// Windows are generated from util::Rng named seed streams, so an injected
// campaign is a pure function of (trace, schedule seed): byte-identical at
// any WW_SCHED_THREADS setting.  Tests and storm benches can also place
// windows explicitly via the add_*() methods.
//
// The module also hosts the deterministic solve-failure predicate the
// scheduler's retry ladder consumes: a pure hash of (seed, window time,
// chunk index, attempt), never a coin flipped from mutable RNG state, so
// injected solver faults land on the same (chunk, attempt) pairs at every
// thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ww::env {

/// Which side of a fault campaign a footprint model sees.
///
/// World: the ground truth the simulator's ledger integrates.  Only the
/// world-level faults apply: water-scarcity shocks.  The capacity faults
/// are the simulator's, not the footprint model's.
/// Controller: what the scheduler observes: the world-level faults plus
/// the forecast-bias multipliers on carbon and water intensities.
enum class FaultView { World, Controller };

/// One fault window on one region.  Neutral values (factor 1, bias 1,
/// shock 0) mean "no effect on that axis"; each window perturbs one axis.
struct FaultWindow {
  double start = 0.0;
  double end = 0.0;
  double capacity_factor = 1.0;  ///< 0 = outage, (0,1) = flap.
  double carbon_bias = 1.0;      ///< Observed-CI multiplier (controller view).
  double water_bias = 1.0;       ///< Observed EWIF/WUE multiplier.
  double wsf_shock = 0.0;        ///< Additive WSF delta (both views).
};

/// Generation knobs: per-region Poisson arrival rates (windows per simulated
/// day) and per-kind duration/magnitude ranges.  All rates default to 0, so
/// a default-constructed config yields an empty (fault-free) schedule.
struct FaultScheduleConfig {
  std::uint64_t seed = 20250808;
  double horizon_seconds = 86400.0;
  int num_regions = 5;

  double outages_per_region_day = 0.0;
  double outage_mean_seconds = 1800.0;

  double flaps_per_region_day = 0.0;
  double flap_mean_seconds = 600.0;
  double flap_capacity_min = 0.3;
  double flap_capacity_max = 0.8;

  double bias_windows_per_region_day = 0.0;
  double bias_mean_seconds = 7200.0;
  double carbon_bias_min = 1.4;
  double carbon_bias_max = 2.2;
  double water_bias_min = 1.0;
  double water_bias_max = 1.0;

  double shocks_per_region_day = 0.0;
  double shock_mean_seconds = 14400.0;
  double shock_wsf_min = 0.5;
  double shock_wsf_max = 1.5;
};

/// Immutable after construction; queries are const and lock-free, so one
/// schedule can back a simulator and both of its footprint views
/// concurrently.
class FaultSchedule {
 public:
  /// Generates windows from the config's seed: per (region, kind) child
  /// streams, exponential inter-arrivals and durations, uniform magnitudes.
  /// Throws std::invalid_argument, naming the field, unless the flap range
  /// lies in [0, 1], the bias ranges are finite and > 0, the shock range is
  /// finite, and every range's minimum is at most its maximum.
  explicit FaultSchedule(FaultScheduleConfig config);

  /// Empty schedule for `num_regions` regions; populate with add_*().
  explicit FaultSchedule(int num_regions);

  /// Each add_*() throws std::invalid_argument, naming the field, for a
  /// flap factor outside [0, 1), a bias factor that is not finite and > 0,
  /// or a non-finite shock delta.
  void add_outage(int region, double start, double end);
  void add_capacity_flap(int region, double start, double end, double factor);
  void add_forecast_bias(int region, double start, double end,
                         double carbon_factor, double water_factor);
  void add_water_shock(int region, double start, double end, double wsf_delta);

  [[nodiscard]] int num_regions() const noexcept {
    return static_cast<int>(windows_.size());
  }
  [[nodiscard]] const FaultScheduleConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::vector<FaultWindow>& windows(int region) const;
  [[nodiscard]] std::size_t total_windows() const noexcept;

  /// Effective capacity multiplier at instant t: the minimum factor over
  /// active windows (an outage dominates a concurrent flap).  1 when no
  /// window is active.
  [[nodiscard]] double capacity_factor(int region, double t) const;
  /// Observed-intensity bias multipliers at instant t (product over active
  /// windows; 1 when none).
  [[nodiscard]] double carbon_bias(int region, double t) const;
  [[nodiscard]] double water_bias(int region, double t) const;
  /// Additive WSF delta at instant t (sum over active windows; 0 when none).
  [[nodiscard]] double wsf_shock(int region, double t) const;

 private:
  FaultScheduleConfig config_;
  std::vector<std::vector<FaultWindow>> windows_;  ///< Per region, by start.
};

/// Pure deterministic solve-failure predicate for the scheduler's retry
/// ladder: true when the injected fault campaign fails the solve attempt
/// `attempt` of chunk `chunk_index` in the batch window at time `now`.
/// A pure hash of its arguments — no stream state — so the same (window,
/// chunk, attempt) fails at every thread count and in every run.
[[nodiscard]] bool injected_solve_failure(std::uint64_t seed, double now,
                                          int chunk_index, int attempt,
                                          double rate) noexcept;

}  // namespace ww::env
