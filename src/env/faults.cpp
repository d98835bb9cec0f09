#include "env/faults.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace ww::env {

namespace {

constexpr double kSecondsPerDay = 86400.0;

void check_window(int region, int num_regions, double start, double end) {
  if (region < 0 || region >= num_regions)
    throw std::out_of_range("FaultSchedule: region index out of range");
  if (!(end > start))
    throw std::invalid_argument("FaultSchedule: window must have end > start");
}

/// Throws unless `value` lies in [0, 1] (NaN never does); `field` names
/// the offending field.
void check_fraction(double value, const char* field) {
  if (!(value >= 0.0 && value <= 1.0))
    throw std::invalid_argument(std::string("FaultSchedule: ") + field +
                                " must be in [0, 1]");
}

/// Throws unless `value` is finite and > 0.
void check_positive(double value, const char* field) {
  if (!(value > 0.0 && std::isfinite(value)))
    throw std::invalid_argument(std::string("FaultSchedule: ") + field +
                                " must be finite and > 0");
}

/// Throws unless `value` is finite.
void check_finite(double value, const char* field) {
  if (!std::isfinite(value))
    throw std::invalid_argument(std::string("FaultSchedule: ") + field +
                                " must be finite");
}

/// Throws when a magnitude range's minimum exceeds its maximum; `field` is
/// the pair's common prefix.
void check_ordered(double lo, double hi, const char* field) {
  if (lo > hi)
    throw std::invalid_argument(std::string("FaultSchedule: ") + field +
                                "_min exceeds " + field + "_max");
}

/// Appends Poisson-arrival windows of one kind to `out`, drawn from `rng`.
/// `make` fills the effect fields of a window given the magnitude stream.
template <typename MakeFn>
void generate_kind(util::Rng rng, double per_day, double mean_seconds,
                   double horizon_seconds, std::vector<FaultWindow>& out,
                   MakeFn make) {
  if (per_day <= 0.0 || mean_seconds <= 0.0 || horizon_seconds <= 0.0) return;
  const double rate_per_second = per_day / kSecondsPerDay;
  double t = rng.exponential(rate_per_second);
  while (t < horizon_seconds) {
    const double duration = rng.exponential(1.0 / mean_seconds);
    FaultWindow w;
    w.start = t;
    w.end = std::min(horizon_seconds, t + duration);
    if (w.end > w.start) {
      make(w, rng);
      out.push_back(w);
    }
    t += duration + rng.exponential(rate_per_second);
  }
}

}  // namespace

FaultSchedule::FaultSchedule(FaultScheduleConfig config) : config_(config) {
  if (config_.num_regions <= 0)
    throw std::invalid_argument("FaultSchedule: need at least one region");
  // Magnitude ranges, checked whatever the rates: flap factors in [0, 1],
  // bias factors > 0, shocks finite, and min <= max everywhere.
  check_fraction(config_.flap_capacity_min, "flap_capacity_min");
  check_fraction(config_.flap_capacity_max, "flap_capacity_max");
  check_ordered(config_.flap_capacity_min, config_.flap_capacity_max,
                "flap_capacity");
  check_positive(config_.carbon_bias_min, "carbon_bias_min");
  check_positive(config_.carbon_bias_max, "carbon_bias_max");
  check_ordered(config_.carbon_bias_min, config_.carbon_bias_max,
                "carbon_bias");
  check_positive(config_.water_bias_min, "water_bias_min");
  check_positive(config_.water_bias_max, "water_bias_max");
  check_ordered(config_.water_bias_min, config_.water_bias_max,
                "water_bias");
  check_finite(config_.shock_wsf_min, "shock_wsf_min");
  check_finite(config_.shock_wsf_max, "shock_wsf_max");
  check_ordered(config_.shock_wsf_min, config_.shock_wsf_max, "shock_wsf");
  windows_.resize(static_cast<std::size_t>(config_.num_regions));
  const util::Rng root(config_.seed);
  for (int r = 0; r < config_.num_regions; ++r) {
    // Per-(region, kind) child streams: adding a kind (or changing one
    // kind's rate) never perturbs the windows another kind generates.
    const util::Rng region_rng = root.child(static_cast<std::uint64_t>(r));
    auto& win = windows_[static_cast<std::size_t>(r)];
    generate_kind(region_rng.child("outage"), config_.outages_per_region_day,
                  config_.outage_mean_seconds, config_.horizon_seconds, win,
                  [](FaultWindow& w, util::Rng&) { w.capacity_factor = 0.0; });
    generate_kind(region_rng.child("flap"), config_.flaps_per_region_day,
                  config_.flap_mean_seconds, config_.horizon_seconds, win,
                  [this](FaultWindow& w, util::Rng& rng) {
                    w.capacity_factor = rng.uniform(
                        config_.flap_capacity_min, config_.flap_capacity_max);
                  });
    generate_kind(region_rng.child("bias"),
                  config_.bias_windows_per_region_day,
                  config_.bias_mean_seconds, config_.horizon_seconds, win,
                  [this](FaultWindow& w, util::Rng& rng) {
                    w.carbon_bias = rng.uniform(config_.carbon_bias_min,
                                                config_.carbon_bias_max);
                    w.water_bias = rng.uniform(config_.water_bias_min,
                                               config_.water_bias_max);
                  });
    generate_kind(region_rng.child("shock"), config_.shocks_per_region_day,
                  config_.shock_mean_seconds, config_.horizon_seconds, win,
                  [this](FaultWindow& w, util::Rng& rng) {
                    w.wsf_shock = rng.uniform(config_.shock_wsf_min,
                                              config_.shock_wsf_max);
                  });
    std::stable_sort(win.begin(), win.end(),
                     [](const FaultWindow& a, const FaultWindow& b) {
                       return a.start < b.start;
                     });
  }
}

FaultSchedule::FaultSchedule(int num_regions) {
  if (num_regions <= 0)
    throw std::invalid_argument("FaultSchedule: need at least one region");
  config_.num_regions = num_regions;
  windows_.resize(static_cast<std::size_t>(num_regions));
}

void FaultSchedule::add_outage(int region, double start, double end) {
  check_window(region, num_regions(), start, end);
  FaultWindow w;
  w.start = start;
  w.end = end;
  w.capacity_factor = 0.0;
  windows_[static_cast<std::size_t>(region)].push_back(w);
}

void FaultSchedule::add_capacity_flap(int region, double start, double end,
                                      double factor) {
  check_window(region, num_regions(), start, end);
  if (!(factor >= 0.0 && factor < 1.0))
    throw std::invalid_argument("FaultSchedule: flap factor must be in [0, 1)");
  FaultWindow w;
  w.start = start;
  w.end = end;
  w.capacity_factor = factor;
  windows_[static_cast<std::size_t>(region)].push_back(w);
}

void FaultSchedule::add_forecast_bias(int region, double start, double end,
                                      double carbon_factor,
                                      double water_factor) {
  check_window(region, num_regions(), start, end);
  check_positive(carbon_factor, "carbon_factor");
  check_positive(water_factor, "water_factor");
  FaultWindow w;
  w.start = start;
  w.end = end;
  w.carbon_bias = carbon_factor;
  w.water_bias = water_factor;
  windows_[static_cast<std::size_t>(region)].push_back(w);
}

void FaultSchedule::add_water_shock(int region, double start, double end,
                                    double wsf_delta) {
  check_window(region, num_regions(), start, end);
  check_finite(wsf_delta, "wsf_delta");
  FaultWindow w;
  w.start = start;
  w.end = end;
  w.wsf_shock = wsf_delta;
  windows_[static_cast<std::size_t>(region)].push_back(w);
}

const std::vector<FaultWindow>& FaultSchedule::windows(int region) const {
  return windows_.at(static_cast<std::size_t>(region));
}

std::size_t FaultSchedule::total_windows() const noexcept {
  std::size_t total = 0;
  for (const auto& win : windows_) total += win.size();
  return total;
}

double FaultSchedule::capacity_factor(int region, double t) const {
  double factor = 1.0;
  for (const FaultWindow& w : windows(region))
    if (w.start <= t && t < w.end)
      factor = std::min(factor, w.capacity_factor);
  return factor;
}

double FaultSchedule::carbon_bias(int region, double t) const {
  double bias = 1.0;
  for (const FaultWindow& w : windows(region))
    if (w.start <= t && t < w.end) bias *= w.carbon_bias;
  return bias;
}

double FaultSchedule::water_bias(int region, double t) const {
  double bias = 1.0;
  for (const FaultWindow& w : windows(region))
    if (w.start <= t && t < w.end) bias *= w.water_bias;
  return bias;
}

double FaultSchedule::wsf_shock(int region, double t) const {
  double shock = 0.0;
  for (const FaultWindow& w : windows(region))
    if (w.start <= t && t < w.end) shock += w.wsf_shock;
  return shock;
}

bool injected_solve_failure(std::uint64_t seed, double now, int chunk_index,
                            int attempt, double rate) noexcept {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // SplitMix64 over the argument tuple: stateless, so the verdict for a
  // (window, chunk, attempt) triple is identical at any thread count.
  std::uint64_t state = seed;
  state ^= std::bit_cast<std::uint64_t>(now);
  (void)util::splitmix64(state);
  state ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(chunk_index))
            << 32) ^
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt));
  const std::uint64_t h = util::splitmix64(state);
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < rate;
}

}  // namespace ww::env
