#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "env/faults.hpp"
#include "footprint/footprint.hpp"

namespace ww::footprint {
namespace {

env::EnvironmentConfig small_config() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 30;
  return cfg;
}

class FootprintTest : public ::testing::Test {
 protected:
  env::Environment env_ = env::Environment::builtin(small_config());
  FootprintModel model_{env_};
};

TEST_F(FootprintTest, OperationalCarbonMatchesEq1) {
  const int r = 2;
  const double t = 40000.0;
  const double e = 0.02;  // kWh
  const Breakdown b = model_.job_at(r, t, e, 120.0);
  EXPECT_NEAR(b.operational_carbon_g, e * env_.carbon_intensity(r, t), 1e-9);
}

TEST_F(FootprintTest, EmbodiedCarbonMatchesEq1) {
  const double exec = 120.0;
  const Breakdown b = model_.job_at(0, 0.0, 0.01, exec);
  const double expected =
      exec / model_.server().lifetime_seconds * model_.server().embodied_carbon_g;
  EXPECT_NEAR(b.embodied_carbon_g, expected, 1e-9);
}

TEST_F(FootprintTest, OffsiteWaterMatchesEq2) {
  const int r = 1;
  const double t = 50000.0;
  const double e = 0.05;
  const Breakdown b = model_.job_at(r, t, e, 60.0);
  const double expected =
      env_.pue(r) * e * env_.ewif(r, t) * (1.0 + env_.wsf(r));
  EXPECT_NEAR(b.offsite_water_l, expected, 1e-12);
}

TEST_F(FootprintTest, OnsiteWaterMatchesEq3) {
  const int r = 4;
  const double t = 90000.0;
  const double e = 0.03;
  const Breakdown b = model_.job_at(r, t, e, 60.0);
  EXPECT_NEAR(b.onsite_water_l, e * env_.wue(r, t) * (1.0 + env_.wsf(r)),
              1e-12);
}

TEST_F(FootprintTest, EmbodiedWaterMatchesEq4) {
  const ServerSpec& s = model_.server();
  const double expected_total = s.embodied_carbon_g / s.manufacturing_ci_g_per_kwh *
                                s.manufacturing_ewif_l_per_kwh *
                                (1.0 + s.manufacturing_wsf);
  EXPECT_NEAR(s.embodied_water_l(), expected_total, 1e-9);
  const double exec = 200.0;
  const Breakdown b = model_.job_at(0, 0.0, 0.01, exec);
  EXPECT_NEAR(b.embodied_water_l, exec / s.lifetime_seconds * expected_total,
              1e-12);
}

TEST_F(FootprintTest, LinearInEnergy) {
  const Breakdown one = model_.job_at(3, 1000.0, 0.01, 0.0);
  const Breakdown two = model_.job_at(3, 1000.0, 0.02, 0.0);
  EXPECT_NEAR(two.operational_carbon_g, 2.0 * one.operational_carbon_g, 1e-9);
  EXPECT_NEAR(two.offsite_water_l, 2.0 * one.offsite_water_l, 1e-12);
  EXPECT_NEAR(two.onsite_water_l, 2.0 * one.onsite_water_l, 1e-12);
}

TEST_F(FootprintTest, ScarcityScalingMonotone) {
  // Same operational profile, higher WSF region => strictly more effective
  // water per unit of raw water use.  Compare via Eq. 2/3 structure directly:
  // divide out the (1+WSF) factor and both regions see identical scaling law.
  const double t = 3600.0;
  const double e = 0.01;
  for (int r = 0; r < env_.num_regions(); ++r) {
    const Breakdown b = model_.job_at(r, t, e, 0.0);
    const double raw_offsite = env_.pue(r) * e * env_.ewif(r, t);
    EXPECT_NEAR(b.offsite_water_l / raw_offsite, 1.0 + env_.wsf(r), 1e-9);
  }
}

TEST_F(FootprintTest, EmbodiedScaleKnob) {
  const FootprintModel scaled(env_, ServerSpec{}, 1.10);
  const Breakdown base = model_.job_at(0, 0.0, 0.01, 100.0);
  const Breakdown pert = scaled.job_at(0, 0.0, 0.01, 100.0);
  EXPECT_NEAR(pert.embodied_carbon_g, 1.10 * base.embodied_carbon_g, 1e-9);
  EXPECT_NEAR(pert.embodied_water_l, 1.10 * base.embodied_water_l, 1e-9);
  EXPECT_DOUBLE_EQ(pert.operational_carbon_g, base.operational_carbon_g);
}

TEST_F(FootprintTest, IntegratedMatchesPointForShortJobs) {
  // A 10-second job inside one hour slice: integrated == point sample.
  const Breakdown a = model_.job_at(2, 1800.0, 0.001, 10.0);
  const Breakdown b = model_.job_integrated(2, 1795.0, 10.0, 0.001);
  EXPECT_NEAR(a.carbon_g(), b.carbon_g(), a.carbon_g() * 0.02);
}

TEST_F(FootprintTest, IntegratedConservesEnergyAcrossSlices) {
  // Integration over N hours bills exactly the job's energy: the carbon must
  // lie between e*min(CI) and e*max(CI) over the window.
  const int r = 3;
  const double start = 1000.0;
  const double dur = 6.0 * 3600.0;
  const double e = 0.5;
  const Breakdown b = model_.job_integrated(r, start, dur, e);
  double lo = 1e18;
  double hi = 0.0;
  for (double t = start; t <= start + dur; t += 600.0) {
    lo = std::min(lo, env_.carbon_intensity(r, t));
    hi = std::max(hi, env_.carbon_intensity(r, t));
  }
  EXPECT_GE(b.operational_carbon_g, e * lo * 0.999);
  EXPECT_LE(b.operational_carbon_g, e * hi * 1.001);
}

TEST_F(FootprintTest, ZeroDurationIntegrationIsZero) {
  const Breakdown b = model_.job_integrated(0, 100.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(b.carbon_g(), 0.0);
  EXPECT_DOUBLE_EQ(b.water_l(), 0.0);
}

TEST_F(FootprintTest, IntegrationRejectsStartsItCannotSlice) {
  // At 1e20 s the next hour boundary rounds back to the start, so an hourly
  // slice cannot advance; the integration used to loop forever there.
  const auto message = [&](double start, double dur) {
    try {
      (void)model_.job_integrated(0, start, dur, 1.0);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message(1e20, 1e6).find("start 100000000000000000000"),
            std::string::npos)
      << message(1e20, 1e6);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [start, dur] :
       {std::pair{nan, 10.0}, std::pair{inf, 10.0}, std::pair{-inf, 10.0},
        std::pair{100.0, nan}, std::pair{100.0, inf}}) {
    EXPECT_NE(message(start, dur).find("must be finite"), std::string::npos)
        << start << " " << dur << ": " << message(start, dur);
  }
  // A start late in double precision that still slices is accepted.
  const Breakdown far = model_.job_integrated(0, 1e12, 7200.0, 1.0);
  EXPECT_GT(far.carbon_g(), 0.0);
}

TEST_F(FootprintTest, TransferZeroWhenLocal) {
  const Breakdown b = model_.transfer(2, 2, 1e9, 0.0);
  EXPECT_DOUBLE_EQ(b.carbon_g(), 0.0);
  EXPECT_DOUBLE_EQ(b.water_l(), 0.0);
}

TEST_F(FootprintTest, TransferSmallRelativeToExecution) {
  // Table 3: communication overhead is a fraction of a percent of the
  // execution footprint for typical jobs.
  const double e = 300.0 * 100.0 / 3.6e6;  // 300 W for 100 s
  const Breakdown run = model_.job_at(2, 3600.0, e, 100.0);
  const Breakdown move = model_.transfer(2, 0, 2.0e8, 3600.0);  // 200 MB
  EXPECT_LT(move.carbon_g(), 0.02 * run.carbon_g());
  EXPECT_GT(move.carbon_g(), 0.0);
}

TEST_F(FootprintTest, BreakdownAccumulate) {
  Breakdown a = model_.job_at(0, 0.0, 0.01, 50.0);
  const Breakdown b = model_.job_at(1, 0.0, 0.02, 70.0);
  const double carbon_sum = a.carbon_g() + b.carbon_g();
  a += b;
  EXPECT_NEAR(a.carbon_g(), carbon_sum, 1e-9);
}

TEST_F(FootprintTest, TotalsAreComponentSums) {
  const Breakdown b = model_.job_at(4, 7200.0, 0.05, 300.0);
  EXPECT_NEAR(b.carbon_g(), b.operational_carbon_g + b.embodied_carbon_g, 1e-12);
  EXPECT_NEAR(b.water_l(),
              b.offsite_water_l + b.onsite_water_l + b.embodied_water_l, 1e-12);
}

// --- Sample overloads: bit-identical to the (r, t) entry points -----------

/// Field-by-field bitwise equality (EXPECT_EQ, not NEAR): the sample
/// overloads must reproduce the (r, t) forms exactly.
void expect_identical(const Breakdown& a, const Breakdown& b,
                      const std::string& where) {
  EXPECT_EQ(a.operational_carbon_g, b.operational_carbon_g) << where;
  EXPECT_EQ(a.embodied_carbon_g, b.embodied_carbon_g) << where;
  EXPECT_EQ(a.offsite_water_l, b.offsite_water_l) << where;
  EXPECT_EQ(a.onsite_water_l, b.onsite_water_l) << where;
  EXPECT_EQ(a.embodied_water_l, b.embodied_water_l) << where;
}

/// Region r's intensities at t written out against the Environment and the
/// documented fault overlay: the Controller view's biases multiply the
/// scaled series, and the shock is added to WSF before the scarcity weight
/// is taken.  `faults` may be null.
Intensities reference_sample(const env::Environment& env,
                             const env::FaultSchedule* faults,
                             env::FaultView view, int r, double t) {
  Intensities at;
  at.ci = env.carbon_intensity(r, t);
  at.ewif = env.ewif(r, t);
  at.wue = env.wue(r, t);
  double wsf = env.wsf(r);
  if (faults != nullptr) {
    if (view == env::FaultView::Controller) {
      at.ci *= faults->carbon_bias(r, t);
      at.ewif *= faults->water_bias(r, t);
      at.wue *= faults->water_bias(r, t);
    }
    wsf += faults->wsf_shock(r, t);
  }
  at.scarcity = 1.0 + wsf;
  at.pue = env.pue(r);
  return at;
}

void expect_identical(const Intensities& a, const Intensities& b,
                      const std::string& where) {
  EXPECT_EQ(a.ci, b.ci) << where;
  EXPECT_EQ(a.ewif, b.ewif) << where;
  EXPECT_EQ(a.wue, b.wue) << where;
  EXPECT_EQ(a.scarcity, b.scarcity) << where;
  EXPECT_EQ(a.pue, b.pue) << where;
}

/// The Eq. 1-3 operational terms of `e` kWh at the intensities `at`, in the
/// evaluation order the footprint model has always used, so the sample path
/// is pinned to the formula, not only to itself.
Breakdown reference_operational(const Intensities& at, double e) {
  Breakdown b;
  b.operational_carbon_g = e * at.ci;
  b.offsite_water_l = at.pue * e * at.ewif * at.scarcity;
  b.onsite_water_l = e * at.wue * at.scarcity;
  return b;
}

/// Checks every builtin region pair (from == to included) at several
/// instants, through `env`'s footprint model with `faults` overlaid in
/// `view`: sample_all equals sample, both equal the written-out overlay,
/// water_intensity is Eq. 6 of it, job_at and transfer through samples
/// equal the (r, t) forms, and both equal the written-out Eq. 1-3
/// reference.
void expect_sample_forms_identical(const env::Environment& env,
                                   const env::FaultSchedule* faults,
                                   env::FaultView view,
                                   const std::vector<double>& times) {
  const FootprintModel model = FootprintModel(env).with_faults(faults, view);
  const int n = env.num_regions();
  const double e = 0.0375;
  const double exec = 431.0;
  const double bytes = 3.7e8;
  const auto reference = [&](int r, double t) {
    return reference_sample(env, faults, view, r, t);
  };
  std::vector<Intensities> all;
  for (const double t : times) {
    model.sample_all(t, all);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      const std::string at = "r=" + std::to_string(r) +
                             " t=" + std::to_string(t);
      const Intensities one = model.sample(r, t);
      const Intensities want = reference(r, t);
      expect_identical(all[static_cast<std::size_t>(r)], one, at);
      expect_identical(one, want, at + " vs the overlay");
      EXPECT_EQ(one.water_intensity(),
                (want.wue + want.pue * want.ewif) * want.scarcity)
          << at << " vs Eq. 6";
      const Breakdown direct = model.job_at(r, t, e, exec);
      expect_identical(model.job_at(model.sample(r, t), e, exec), direct, at);
      Breakdown expected = reference_operational(want, e);
      expected.embodied_carbon_g = direct.embodied_carbon_g;
      expected.embodied_water_l = direct.embodied_water_l;
      expect_identical(direct, expected, at + " vs Eq. 1-3");
    }
    for (int from = 0; from < n; ++from) {
      for (int to = 0; to < n; ++to) {
        const std::string at = std::to_string(from) + "->" +
                               std::to_string(to) + " t=" + std::to_string(t);
        const Breakdown direct = model.transfer(from, to, bytes, t);
        expect_identical(model.transfer(from, to, bytes, model.sample(from, t),
                                        model.sample(to, t)),
                         direct, at);
        Breakdown expected;
        if (from != to) {
          const double energy = env.transfer_energy_kwh(from, to, bytes);
          expected += reference_operational(reference(from, t), 0.5 * energy);
          expected += reference_operational(reference(to, t), 0.5 * energy);
        }
        expect_identical(direct, expected, at + " vs Eq. 1-3");
      }
    }
  }
}

TEST_F(FootprintTest, SampleOverloadsMatchPointForms) {
  expect_sample_forms_identical(env_, nullptr, env::FaultView::World,
                                {0.0, 1799.5, 40000.0, 86400.0 * 3 + 17});
}

TEST(FootprintSample, SampleOverloadsMatchPointFormsUnderFaults) {
  // Forecast-bias windows (Controller view only) and WSF shocks (both
  // views), active at some sampled instants and not at others, over the
  // plain environment and over one with the other dataset, the sensitivity
  // scales and a PUE override.
  env::FaultSchedule faults(5);
  faults.add_forecast_bias(1, 3600.0, 10800.0, 1.8, 1.3);
  faults.add_forecast_bias(4, 0.0, 7200.0, 0.6, 1.5);
  faults.add_forecast_bias(3, -10000.0, 1.0e9, 1.3, 0.7);
  faults.add_water_shock(1, 5000.0, 20000.0, 0.9);
  faults.add_water_shock(3, 0.0, 9000.0, 1.2);
  faults.add_outage(2, 0.0, 3600.0);
  env::EnvironmentConfig scaled = small_config();
  scaled.dataset = env::WaterDataset::WorldResourcesInstitute;
  scaled.carbon_intensity_scale = 1.13;
  scaled.water_intensity_scale = 0.87;
  scaled.pue_override = 1.37;
  for (const env::EnvironmentConfig& cfg : {small_config(), scaled}) {
    const env::Environment env = env::Environment::builtin(cfg);
    const std::vector<double> times = {-5000.0, 100.0,   4000.0,
                                       6000.0,  15000.0, 50000.0,
                                       env.horizon_seconds() + 7200.0};
    for (const env::FaultView view :
         {env::FaultView::World, env::FaultView::Controller})
      expect_sample_forms_identical(env, &faults, view, times);
  }
}

TEST(FootprintFaults, BiasIsControllerOnlyAndShocksHitBothViews) {
  env::FaultSchedule faults(5);
  faults.add_forecast_bias(0, 0.0, 3600.0, 2.0, 1.5);
  faults.add_water_shock(1, 0.0, 3600.0, 1.25);
  faults.add_outage(2, 0.0, 3600.0);

  const env::Environment env = env::Environment::builtin(small_config());
  const FootprintModel clean(env);
  const FootprintModel world =
      clean.with_faults(&faults, env::FaultView::World);
  const FootprintModel controller =
      clean.with_faults(&faults, env::FaultView::Controller);
  EXPECT_EQ(&world.environment(), &env);
  EXPECT_EQ(&controller.environment(), &env);

  const double t = 1800.0;
  const Intensities c0 = clean.sample(0, t);
  // Forecast bias perturbs only the controller's observed intensities.
  EXPECT_EQ(world.sample(0, t).ci, c0.ci);
  EXPECT_DOUBLE_EQ(controller.sample(0, t).ci, 2.0 * c0.ci);
  EXPECT_EQ(world.sample(0, t).ewif, c0.ewif);
  EXPECT_DOUBLE_EQ(controller.sample(0, t).ewif, 1.5 * c0.ewif);
  EXPECT_DOUBLE_EQ(controller.sample(0, t).wue, 1.5 * c0.wue);
  EXPECT_EQ(controller.sample(0, t).scarcity, c0.scarcity);
  // Unbiased regions read through untouched in both views.
  EXPECT_EQ(controller.sample(1, t).ci, clean.sample(1, t).ci);

  // A scarcity shock is real: both views see the raised WSF.
  EXPECT_DOUBLE_EQ(world.sample(1, t).scarcity,
                   clean.sample(1, t).scarcity + 1.25);
  EXPECT_EQ(controller.sample(1, t).scarcity, world.sample(1, t).scarcity);
  EXPECT_EQ(world.sample(1, 7200.0).scarcity, clean.sample(1, 7200.0).scarcity);
  // An outage window carries no intensity effect in either view.
  EXPECT_EQ(world.sample(2, t).ci, clean.sample(2, t).ci);
  EXPECT_EQ(controller.sample(2, t).ci, clean.sample(2, t).ci);
}

}  // namespace
}  // namespace ww::footprint
