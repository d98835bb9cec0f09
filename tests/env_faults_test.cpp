// Fault-injection subsystem coverage (env/faults.hpp): generated schedules
// are a pure function of the seed, window magnitudes stay inside the
// configured ranges, manual windows combine per the documented query rules
// (min capacity factor, product bias, sum shock), the solve-failure
// predicate is a pure deterministic hash with sane rate behaviour, and the
// Environment overlay applies forecast bias only to the Controller view
// while scarcity shocks hit both views.  Hostile magnitudes (NaN,
// infinities, out-of-range factors, inverted ranges) are rejected, naming
// the field, whether passed to add_*() or to a generated schedule's config.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "env/faults.hpp"

namespace ww::env {
namespace {

FaultScheduleConfig stormy_config() {
  FaultScheduleConfig cfg;
  cfg.seed = 4242;
  cfg.horizon_seconds = 5.0 * 86400.0;
  cfg.num_regions = 4;
  cfg.outages_per_region_day = 2.0;
  cfg.flaps_per_region_day = 3.0;
  cfg.bias_windows_per_region_day = 2.0;
  cfg.shocks_per_region_day = 1.0;
  return cfg;
}

TEST(FaultSchedule, GenerationIsAPureFunctionOfTheSeed) {
  const FaultSchedule a(stormy_config());
  const FaultSchedule b(stormy_config());
  ASSERT_EQ(a.num_regions(), b.num_regions());
  ASSERT_GT(a.total_windows(), 0u);
  EXPECT_EQ(a.total_windows(), b.total_windows());
  for (int r = 0; r < a.num_regions(); ++r) {
    const auto& wa = a.windows(r);
    const auto& wb = b.windows(r);
    ASSERT_EQ(wa.size(), wb.size()) << "region " << r;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].start, wb[i].start);
      EXPECT_EQ(wa[i].end, wb[i].end);
      EXPECT_EQ(wa[i].capacity_factor, wb[i].capacity_factor);
      EXPECT_EQ(wa[i].carbon_bias, wb[i].carbon_bias);
      EXPECT_EQ(wa[i].water_bias, wb[i].water_bias);
      EXPECT_EQ(wa[i].wsf_shock, wb[i].wsf_shock);
    }
  }

  auto other = stormy_config();
  other.seed = 4243;
  const FaultSchedule c(other);
  bool any_difference = c.total_windows() != a.total_windows();
  for (int r = 0; !any_difference && r < a.num_regions(); ++r) {
    const auto& wa = a.windows(r);
    const auto& wc = c.windows(r);
    if (wa.size() != wc.size()) {
      any_difference = true;
      break;
    }
    for (std::size_t i = 0; i < wa.size(); ++i)
      if (wa[i].start != wc[i].start) {
        any_difference = true;
        break;
      }
  }
  EXPECT_TRUE(any_difference) << "different seeds drew identical storms";
}

TEST(FaultSchedule, GeneratedWindowsRespectConfiguredRanges) {
  const auto cfg = stormy_config();
  const FaultSchedule faults(cfg);
  std::size_t outages = 0, flaps = 0, biases = 0, shocks = 0;
  for (int r = 0; r < faults.num_regions(); ++r) {
    double prev_start = 0.0;
    for (const FaultWindow& w : faults.windows(r)) {
      EXPECT_GE(w.start, 0.0);
      EXPECT_LT(w.start, cfg.horizon_seconds);
      EXPECT_GT(w.end, w.start);
      EXPECT_GE(w.start, prev_start) << "windows not sorted by start";
      prev_start = w.start;
      if (w.capacity_factor == 0.0) {
        ++outages;
      } else if (w.capacity_factor < 1.0) {
        ++flaps;
        EXPECT_GE(w.capacity_factor, cfg.flap_capacity_min);
        EXPECT_LE(w.capacity_factor, cfg.flap_capacity_max);
      }
      if (w.carbon_bias != 1.0 || w.water_bias != 1.0) {
        ++biases;
        EXPECT_GE(w.carbon_bias, cfg.carbon_bias_min);
        EXPECT_LE(w.carbon_bias, cfg.carbon_bias_max);
        EXPECT_GE(w.water_bias, cfg.water_bias_min);
        EXPECT_LE(w.water_bias, cfg.water_bias_max);
      }
      if (w.wsf_shock != 0.0) {
        ++shocks;
        EXPECT_GE(w.wsf_shock, cfg.shock_wsf_min);
        EXPECT_LE(w.wsf_shock, cfg.shock_wsf_max);
      }
    }
  }
  // Five simulated days at the configured per-day rates must draw at least
  // one window of every kind across four regions.
  EXPECT_GT(outages, 0u);
  EXPECT_GT(flaps, 0u);
  EXPECT_GT(biases, 0u);
  EXPECT_GT(shocks, 0u);
  EXPECT_EQ(outages + flaps + biases + shocks, faults.total_windows());
}

TEST(FaultSchedule, ManualWindowsCombinePerQueryRules) {
  FaultSchedule sched(3);
  sched.add_outage(0, 100.0, 200.0);
  sched.add_capacity_flap(0, 150.0, 400.0, 0.5);
  sched.add_forecast_bias(1, 0.0, 1000.0, 2.0, 1.5);
  sched.add_forecast_bias(1, 500.0, 1000.0, 3.0, 2.0);
  sched.add_water_shock(2, 0.0, 300.0, 1.0);
  sched.add_water_shock(2, 200.0, 300.0, 0.5);

  // Capacity: min over active windows — the outage dominates the overlapping
  // flap, the flap alone applies after the outage ends, 1 when idle.
  EXPECT_EQ(sched.capacity_factor(0, 50.0), 1.0);
  EXPECT_EQ(sched.capacity_factor(0, 160.0), 0.0);
  EXPECT_EQ(sched.capacity_factor(0, 250.0), 0.5);
  EXPECT_EQ(sched.capacity_factor(0, 500.0), 1.0);
  EXPECT_EQ(sched.min_capacity_factor(0, 0.0, 90.0), 1.0);
  EXPECT_EQ(sched.min_capacity_factor(0, 120.0, 180.0), 0.0);
  EXPECT_EQ(sched.min_capacity_factor(0, 250.0, 600.0), 0.5);

  // Bias: product over active windows.
  EXPECT_DOUBLE_EQ(sched.carbon_bias(1, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(sched.carbon_bias(1, 700.0), 6.0);
  EXPECT_DOUBLE_EQ(sched.water_bias(1, 700.0), 3.0);
  EXPECT_DOUBLE_EQ(sched.carbon_bias(1, 1500.0), 1.0);
  // Bias never leaks onto other regions or axes.
  EXPECT_DOUBLE_EQ(sched.carbon_bias(0, 160.0), 1.0);
  EXPECT_EQ(sched.capacity_factor(1, 700.0), 1.0);

  // Shock: sum over active windows.
  EXPECT_DOUBLE_EQ(sched.wsf_shock(2, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(sched.wsf_shock(2, 250.0), 1.5);
  EXPECT_DOUBLE_EQ(sched.wsf_shock(2, 400.0), 0.0);
  EXPECT_DOUBLE_EQ(sched.wsf_shock(0, 100.0), 0.0);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expects `fn` to throw std::invalid_argument whose message names `field`.
template <typename Fn>
void expect_rejects(Fn fn, const std::string& field) {
  try {
    fn();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

/// Expects a generated schedule to reject `cfg` with `field` set to each
/// of `bad`.
void expect_config_rejects(double FaultScheduleConfig::*field,
                           const std::string& name,
                           std::initializer_list<double> bad) {
  for (const double value : bad) {
    FaultScheduleConfig cfg = stormy_config();
    cfg.*field = value;
    expect_rejects([&] { FaultSchedule sched(cfg); }, name);
  }
}

TEST(FaultSchedule, RejectsBadFlapFactor) {
  FaultSchedule sched(2);
  for (const double f : {kNan, -0.1, 1.0, kInf})
    expect_rejects([&] { sched.add_capacity_flap(0, 0.0, 1.0, f); }, "flap");
  EXPECT_EQ(sched.total_windows(), 0u);
}

TEST(FaultSchedule, RejectsBadCarbonBiasFactor) {
  FaultSchedule sched(2);
  for (const double f : {kNan, kInf, 0.0, -1.0})
    expect_rejects([&] { sched.add_forecast_bias(0, 0.0, 1.0, f, 1.0); },
                   "carbon_factor");
  EXPECT_EQ(sched.total_windows(), 0u);
}

TEST(FaultSchedule, RejectsBadWaterBiasFactor) {
  FaultSchedule sched(2);
  for (const double f : {kNan, kInf, 0.0, -1.0})
    expect_rejects([&] { sched.add_forecast_bias(0, 0.0, 1.0, 1.0, f); },
                   "water_factor");
  EXPECT_EQ(sched.total_windows(), 0u);
}

TEST(FaultSchedule, RejectsNonFiniteShockDelta) {
  FaultSchedule sched(2);
  for (const double d : {kNan, kInf, -kInf})
    expect_rejects([&] { sched.add_water_shock(0, 0.0, 1.0, d); },
                   "wsf_delta");
  EXPECT_EQ(sched.total_windows(), 0u);
}

TEST(FaultSchedule, RejectsBadFlapCapacityMin) {
  expect_config_rejects(&FaultScheduleConfig::flap_capacity_min,
                        "flap_capacity_min", {kNan, -0.1, 1.5, -kInf});
}

TEST(FaultSchedule, RejectsBadFlapCapacityMax) {
  expect_config_rejects(&FaultScheduleConfig::flap_capacity_max,
                        "flap_capacity_max", {kNan, -0.1, 1.5, kInf});
}

TEST(FaultSchedule, RejectsBadCarbonBiasMin) {
  expect_config_rejects(&FaultScheduleConfig::carbon_bias_min,
                        "carbon_bias_min", {kNan, 0.0, -1.0, kInf});
}

TEST(FaultSchedule, RejectsBadCarbonBiasMax) {
  expect_config_rejects(&FaultScheduleConfig::carbon_bias_max,
                        "carbon_bias_max", {kNan, 0.0, -1.0, kInf});
}

TEST(FaultSchedule, RejectsBadWaterBiasMin) {
  expect_config_rejects(&FaultScheduleConfig::water_bias_min,
                        "water_bias_min", {kNan, 0.0, -1.0, kInf});
}

TEST(FaultSchedule, RejectsBadWaterBiasMax) {
  expect_config_rejects(&FaultScheduleConfig::water_bias_max,
                        "water_bias_max", {kNan, 0.0, -1.0, kInf});
}

TEST(FaultSchedule, RejectsNonFiniteShockWsfMin) {
  expect_config_rejects(&FaultScheduleConfig::shock_wsf_min, "shock_wsf_min",
                        {kNan, kInf, -kInf});
}

TEST(FaultSchedule, RejectsNonFiniteShockWsfMax) {
  expect_config_rejects(&FaultScheduleConfig::shock_wsf_max, "shock_wsf_max",
                        {kNan, kInf, -kInf});
}

TEST(FaultSchedule, RejectsRangesWhoseMinExceedsMax) {
  // Each range inverted in turn, every end otherwise valid.
  FaultScheduleConfig cfg = stormy_config();
  cfg.flap_capacity_min = 0.9;
  cfg.flap_capacity_max = 0.2;
  expect_rejects([&] { FaultSchedule sched(cfg); }, "flap_capacity_min");
  cfg = stormy_config();
  cfg.carbon_bias_min = 3.0;
  expect_rejects([&] { FaultSchedule sched(cfg); }, "carbon_bias_min");
  cfg = stormy_config();
  cfg.water_bias_max = 0.5;
  expect_rejects([&] { FaultSchedule sched(cfg); }, "water_bias_min");
  cfg = stormy_config();
  cfg.shock_wsf_min = 2.0;
  expect_rejects([&] { FaultSchedule sched(cfg); }, "shock_wsf_min");
}

TEST(FaultSchedule, AcceptsBoundaryMagnitudes) {
  FaultSchedule sched(1);
  sched.add_capacity_flap(0, 0.0, 1.0, 0.0);
  sched.add_forecast_bias(0, 0.0, 1.0, 1e-300, 1e300);
  sched.add_water_shock(0, 0.0, 1.0, -5.0);
  EXPECT_EQ(sched.total_windows(), 3u);
  // Degenerate ranges and the ends of the flap interval are valid.
  FaultScheduleConfig cfg = stormy_config();
  cfg.flap_capacity_min = 0.0;
  cfg.flap_capacity_max = 0.0;
  cfg.carbon_bias_min = cfg.carbon_bias_max = 1.0;
  cfg.shock_wsf_min = -1.0;
  cfg.shock_wsf_max = -1.0;
  EXPECT_GT(FaultSchedule(cfg).total_windows(), 0u);
  cfg.flap_capacity_min = cfg.flap_capacity_max = 1.0;
  EXPECT_GT(FaultSchedule(cfg).total_windows(), 0u);
}

TEST(InjectedSolveFailure, DeterministicWithRateEdges) {
  // Pure hash: identical arguments always agree, at any call order.
  for (int chunk = 0; chunk < 8; ++chunk)
    for (int attempt = 0; attempt < 3; ++attempt) {
      const bool first =
          injected_solve_failure(901, 1234.5, chunk, attempt, 0.4);
      const bool second =
          injected_solve_failure(901, 1234.5, chunk, attempt, 0.4);
      EXPECT_EQ(first, second);
    }
  // Rate edges: 0 (and below) never fails, 1 (and above) always fails.
  EXPECT_FALSE(injected_solve_failure(901, 60.0, 0, 0, 0.0));
  EXPECT_FALSE(injected_solve_failure(901, 60.0, 0, 0, -1.0));
  EXPECT_TRUE(injected_solve_failure(901, 60.0, 0, 0, 1.0));
  EXPECT_TRUE(injected_solve_failure(901, 60.0, 0, 0, 2.0));
}

TEST(InjectedSolveFailure, FailureFrequencyTracksTheRate) {
  int failures = 0;
  const int samples = 1000;
  for (int i = 0; i < samples; ++i)
    if (injected_solve_failure(777, 60.0 * i, i % 13, 0, 0.3)) ++failures;
  // Loose band around 300/1000: the hash must behave like a fair 30% draw.
  EXPECT_GT(failures, 200);
  EXPECT_LT(failures, 400);

  // Distinct attempts of the same chunk must not be perfectly correlated,
  // or the retry ladder's second try would be pointless under injection.
  int divergent = 0;
  for (int i = 0; i < samples; ++i) {
    const bool a0 = injected_solve_failure(777, 60.0 * i, 0, 0, 0.5);
    const bool a1 = injected_solve_failure(777, 60.0 * i, 0, 1, 0.5);
    if (a0 != a1) ++divergent;
  }
  EXPECT_GT(divergent, 200);
}

TEST(EnvironmentFaults, BiasIsControllerOnlyAndShocksHitBothViews) {
  FaultSchedule sched(5);
  sched.add_forecast_bias(0, 0.0, 3600.0, 2.0, 1.5);
  sched.add_water_shock(1, 0.0, 3600.0, 1.25);
  sched.add_outage(2, 0.0, 3600.0);

  const Environment clean = Environment::builtin({});
  Environment world = Environment::builtin({});
  world.attach_faults(&sched, FaultView::World);
  Environment controller = Environment::builtin({});
  controller.attach_faults(&sched, FaultView::Controller);

  const double t = 1800.0;
  // Forecast bias perturbs only the controller's observed intensities.
  EXPECT_DOUBLE_EQ(world.carbon_intensity(0, t), clean.carbon_intensity(0, t));
  EXPECT_DOUBLE_EQ(controller.carbon_intensity(0, t),
                   2.0 * clean.carbon_intensity(0, t));
  EXPECT_DOUBLE_EQ(world.ewif(0, t), clean.ewif(0, t));
  EXPECT_DOUBLE_EQ(controller.ewif(0, t), 1.5 * clean.ewif(0, t));
  EXPECT_DOUBLE_EQ(controller.wue(0, t), 1.5 * clean.wue(0, t));
  // Unbiased regions read through untouched in both views.
  EXPECT_DOUBLE_EQ(controller.carbon_intensity(1, t),
                   clean.carbon_intensity(1, t));

  // A scarcity shock is real: both views see the raised WSF.
  EXPECT_DOUBLE_EQ(world.wsf(1, t), clean.wsf(1) + 1.25);
  EXPECT_DOUBLE_EQ(controller.wsf(1, t), clean.wsf(1) + 1.25);
  EXPECT_DOUBLE_EQ(world.wsf(1, 7200.0), clean.wsf(1));
  // An outage window carries no intensity effect in either view.
  EXPECT_DOUBLE_EQ(world.carbon_intensity(2, t), clean.carbon_intensity(2, t));
  EXPECT_DOUBLE_EQ(controller.carbon_intensity(2, t),
                   clean.carbon_intensity(2, t));
}

}  // namespace
}  // namespace ww::env
