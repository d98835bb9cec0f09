#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "env/environment.hpp"

namespace ww::env {
namespace {

EnvironmentConfig small_config() {
  EnvironmentConfig cfg;
  cfg.horizon_days = 30;  // keep construction fast in unit tests
  return cfg;
}

class EnvironmentTest : public ::testing::Test {
 protected:
  Environment env_ = Environment::builtin(small_config());

  /// Annual-ish average of a per-region series.
  double average(double (Environment::*fn)(int, double) const, int r) const {
    double total = 0.0;
    const int samples = 24 * 28;
    for (int h = 0; h < samples; ++h) total += (env_.*fn)(r, h * 3600.0);
    return total / samples;
  }
};

TEST_F(EnvironmentTest, RegionLookup) {
  EXPECT_EQ(env_.num_regions(), 5);
  EXPECT_EQ(env_.region_index("Zurich"), 0);
  EXPECT_EQ(env_.region_index("Mumbai"), 4);
  EXPECT_THROW((void)env_.region_index("Atlantis"), std::out_of_range);
  EXPECT_EQ(env_.total_servers(), 175);
}

TEST_F(EnvironmentTest, CarbonIntensityOrderingMatchesFig2a) {
  // Fig. 2: labels sorted by carbon intensity:
  // Zurich < Madrid < Oregon < Milan < Mumbai.
  std::vector<double> avg;
  for (int r = 0; r < 5; ++r)
    avg.push_back(average(&Environment::carbon_intensity, r));
  for (int r = 0; r + 1 < 5; ++r)
    EXPECT_LT(avg[static_cast<std::size_t>(r)],
              avg[static_cast<std::size_t>(r + 1)])
        << env_.region(r).name << " vs " << env_.region(r + 1).name;
}

TEST_F(EnvironmentTest, ZurichHasHighestEwifDespiteLowestCarbon) {
  // Fig. 2b: Zurich's hydro/biomass grid is the most water-intensive.
  const double zurich = average(&Environment::ewif, 0);
  for (int r = 1; r < 5; ++r)
    EXPECT_GT(zurich, average(&Environment::ewif, r))
        << "vs " << env_.region(r).name;
}

TEST_F(EnvironmentTest, MumbaiEwifLowButWsfHigh) {
  const double mumbai_ewif = average(&Environment::ewif, 4);
  const double zurich_ewif = average(&Environment::ewif, 0);
  EXPECT_LT(mumbai_ewif, 0.6 * zurich_ewif);
  EXPECT_GT(env_.wsf(4), env_.wsf(0));
}

TEST_F(EnvironmentTest, MumbaiHasHighestWue) {
  // Fig. 2c: tropical wet-bulb makes Mumbai the most cooling-thirsty.
  const double mumbai = average(&Environment::wue, 4);
  for (int r = 0; r < 4; ++r)
    EXPECT_GT(mumbai, average(&Environment::wue, r));
}

TEST_F(EnvironmentTest, WaterIntensityMatchesEq6) {
  for (int r = 0; r < 5; ++r) {
    const double t = 13.0 * 3600.0;
    const double expected =
        (env_.wue(r, t) + env_.pue(r) * env_.ewif(r, t)) * (1.0 + env_.wsf(r));
    EXPECT_NEAR(env_.water_intensity(r, t), expected, 1e-12);
  }
}

TEST_F(EnvironmentTest, CarbonVsWaterIntensityNotPerfectlyAligned) {
  // The co-optimization only has teeth if the two intensity landscapes
  // disagree: the region ranking by carbon must differ from the ranking by
  // water intensity.
  std::vector<int> by_carbon = {0, 1, 2, 3, 4};
  std::vector<int> by_water = {0, 1, 2, 3, 4};
  std::vector<double> ci;
  std::vector<double> wi;
  for (int r = 0; r < 5; ++r) {
    ci.push_back(average(&Environment::carbon_intensity, r));
    wi.push_back(average(&Environment::water_intensity, r));
  }
  std::sort(by_carbon.begin(), by_carbon.end(), [&](int a, int b) {
    return ci[static_cast<std::size_t>(a)] < ci[static_cast<std::size_t>(b)];
  });
  std::sort(by_water.begin(), by_water.end(), [&](int a, int b) {
    return wi[static_cast<std::size_t>(a)] < wi[static_cast<std::size_t>(b)];
  });
  EXPECT_NE(by_carbon, by_water);
}

TEST_F(EnvironmentTest, SubsetSeesIdenticalSeries) {
  // Fig. 12 experiments remove regions; remaining series must not change.
  const Environment sub = Environment::builtin_subset({0, 3, 4}, small_config());
  ASSERT_EQ(sub.num_regions(), 3);
  EXPECT_EQ(sub.region(1).name, "Milan");
  for (const double t : {0.0, 7200.0, 86400.0 * 3 + 1800.0}) {
    EXPECT_DOUBLE_EQ(sub.carbon_intensity(0, t), env_.carbon_intensity(0, t));
    EXPECT_DOUBLE_EQ(sub.carbon_intensity(1, t), env_.carbon_intensity(3, t));
    EXPECT_DOUBLE_EQ(sub.wue(2, t), env_.wue(4, t));
  }
}

TEST_F(EnvironmentTest, PerturbationKnobs) {
  EnvironmentConfig cfg = small_config();
  cfg.carbon_intensity_scale = 1.1;
  cfg.water_intensity_scale = 0.9;
  const Environment scaled = Environment::builtin(cfg);
  const double t = 5000.0;
  EXPECT_NEAR(scaled.carbon_intensity(2, t), 1.1 * env_.carbon_intensity(2, t),
              1e-9);
  EXPECT_NEAR(scaled.ewif(2, t), 0.9 * env_.ewif(2, t), 1e-9);
  EXPECT_NEAR(scaled.wue(2, t), 0.9 * env_.wue(2, t), 1e-9);
}

TEST_F(EnvironmentTest, PueOverride) {
  EnvironmentConfig cfg = small_config();
  cfg.pue_override = 1.5;
  const Environment e = Environment::builtin(cfg);
  for (int r = 0; r < e.num_regions(); ++r) EXPECT_DOUBLE_EQ(e.pue(r), 1.5);
}

TEST_F(EnvironmentTest, DatasetSwitchChangesEwif) {
  EnvironmentConfig cfg = small_config();
  cfg.dataset = WaterDataset::WorldResourcesInstitute;
  const Environment wri = Environment::builtin(cfg);
  // Zurich's hydro-heavy EWIF must drop under the WRI table.
  EXPECT_LT(wri.ewif(0, 7200.0), env_.ewif(0, 7200.0));
}

TEST_F(EnvironmentTest, TransferLatencyConsistent) {
  EXPECT_DOUBLE_EQ(env_.transfer_latency_seconds(1, 1, 5e8), 0.0);
  EXPECT_GT(env_.transfer_latency_seconds(0, 4, 5e8),
            env_.transfer_latency_seconds(0, 3, 5e8));
}

TEST_F(EnvironmentTest, TransferForwardsMatchTheModel) {
  std::vector<std::pair<double, double>> points;
  for (int r = 0; r < env_.num_regions(); ++r)
    points.emplace_back(env_.region(r).latitude, env_.region(r).longitude);
  const TransferModel model(points);
  for (int a = 0; a < env_.num_regions(); ++a)
    for (int b = 0; b < env_.num_regions(); ++b) {
      EXPECT_EQ(env_.transfer_latency_seconds(a, b, 4e8),
                model.latency_seconds(a, b, 4e8));
      EXPECT_EQ(env_.transfer_energy_kwh(a, b, 4e8),
                model.energy_kwh(a, b, 4e8));
      EXPECT_EQ(env_.transfer_distance_km(a, b), model.distance_km(a, b));
    }
  const int n = env_.num_regions();
  EXPECT_THROW((void)env_.transfer_latency_seconds(0, n, 1e6),
               std::out_of_range);
  EXPECT_THROW((void)env_.transfer_energy_kwh(-1, 0, 1e6), std::out_of_range);
  EXPECT_THROW((void)env_.transfer_distance_km(n, 0), std::out_of_range);
}

/// sample(r, t) against each accessor, and against the documented
/// arithmetic over an unscaled environment of the same dataset: the scales
/// multiply the series, WSF is the spec's, PUE the spec's or the override.
/// Bitwise throughout.
void expect_sample_matches(const EnvironmentConfig& cfg) {
  EnvironmentConfig plain_cfg = small_config();
  plain_cfg.dataset = cfg.dataset;
  const Environment plain = Environment::builtin(plain_cfg);
  const Environment env = Environment::builtin(cfg);
  for (int r = 0; r < env.num_regions(); ++r) {
    for (const double t : {-5000.0, 0.0, 1800.0, 5000.5, 86399.0,
                           env.horizon_seconds() - 1.0,
                           env.horizon_seconds() + 7200.0}) {
      SCOPED_TRACE("region " + std::to_string(r) + " t " + std::to_string(t));
      const RegionSample s = env.sample(r, t);
      EXPECT_EQ(s.ci, env.carbon_intensity(r, t));
      EXPECT_EQ(s.ewif, env.ewif(r, t));
      EXPECT_EQ(s.wue, env.wue(r, t));
      EXPECT_EQ(s.wsf, env.wsf(r));
      EXPECT_EQ(s.pue, env.pue(r));
      EXPECT_EQ(env.water_intensity(r, t),
                (s.wue + s.pue * s.ewif) * (1.0 + s.wsf));

      EXPECT_EQ(s.ci,
                cfg.carbon_intensity_scale * plain.carbon_intensity(r, t));
      EXPECT_EQ(s.ewif, cfg.water_intensity_scale * plain.ewif(r, t));
      EXPECT_EQ(s.wue, cfg.water_intensity_scale * plain.wue(r, t));
      EXPECT_EQ(s.wsf, plain.wsf(r));
      EXPECT_EQ(s.pue, cfg.pue_override.value_or(plain.pue(r)));
    }
  }
}

TEST(EnvironmentSample, MatchesAccessorsBitForBit) {
  for (const WaterDataset dataset :
       {WaterDataset::ElectricityMaps, WaterDataset::WorldResourcesInstitute}) {
    for (const bool scaled : {false, true}) {
      for (const bool override_pue : {false, true}) {
        EnvironmentConfig cfg = small_config();
        cfg.dataset = dataset;
        if (scaled) {
          cfg.carbon_intensity_scale = 1.13;
          cfg.water_intensity_scale = 0.87;
        }
        if (override_pue) cfg.pue_override = 1.37;
        SCOPED_TRACE(std::string(dataset == WaterDataset::ElectricityMaps
                                     ? "EM"
                                     : "WRI") +
                     (scaled ? " scaled" : "") +
                     (override_pue ? " pue_override" : ""));
        expect_sample_matches(cfg);
      }
    }
  }
}

/// sample_all(t) against sample(r, t), bitwise, for every region.  Each
/// instant is read first by sample_all on one environment and by sample on
/// another fresh one, so a day that neither has generated yet is first
/// generated by each path on its own.
void expect_sample_all_matches(const EnvironmentConfig& cfg) {
  const Environment all = Environment::builtin(cfg);
  const Environment one = Environment::builtin(cfg);
  std::vector<RegionSample> got;
  for (const double t : {86400.0 * 5 + 4000.0, -5000.0, 0.0, 1800.0, 5000.5,
                         all.horizon_seconds() - 1.0,
                         all.horizon_seconds() + 7200.0, 86400.0 * 2 + 17.0}) {
    got.clear();
    all.sample_all(t, [&got](int r, const RegionSample& s) {
      EXPECT_EQ(r, static_cast<int>(got.size()));
      got.push_back(s);
    });
    ASSERT_EQ(got.size(), static_cast<std::size_t>(all.num_regions()));
    for (int r = 0; r < all.num_regions(); ++r) {
      SCOPED_TRACE("region " + std::to_string(r) + " t " + std::to_string(t));
      const RegionSample want = one.sample(r, t);
      const RegionSample& s = got[static_cast<std::size_t>(r)];
      EXPECT_EQ(s.ci, want.ci);
      EXPECT_EQ(s.ewif, want.ewif);
      EXPECT_EQ(s.wue, want.wue);
      EXPECT_EQ(s.wsf, want.wsf);
      EXPECT_EQ(s.pue, want.pue);
      EXPECT_EQ(s.ci, all.sample(r, t).ci);
    }
  }
}

TEST(EnvironmentSample, SampleAllMatchesSample) {
  for (const WaterDataset dataset :
       {WaterDataset::ElectricityMaps, WaterDataset::WorldResourcesInstitute}) {
    for (const bool scaled : {false, true}) {
      EnvironmentConfig cfg = small_config();
      cfg.dataset = dataset;
      if (scaled) {
        cfg.carbon_intensity_scale = 1.13;
        cfg.water_intensity_scale = 0.87;
        cfg.pue_override = 1.37;
      }
      SCOPED_TRACE(std::string(dataset == WaterDataset::ElectricityMaps
                                   ? "EM"
                                   : "WRI") +
                   (scaled ? " scaled" : ""));
      expect_sample_all_matches(cfg);
    }
  }
}

TEST(Environment, RejectsEmptyRegionList) {
  EXPECT_THROW(Environment({}, EnvironmentConfig{}), std::invalid_argument);
}

// --- Boundary validation: one test per rejected value ----------------------

/// Builds the builtin regions with `mutate` applied to Madrid (index 1) and
/// expects std::invalid_argument naming Madrid and `field`.
template <typename Mutate>
void expect_rejected(Mutate mutate, const std::string& field,
                     EnvironmentConfig cfg = small_config()) {
  auto specs = builtin_region_specs();
  mutate(specs[1]);
  try {
    const Environment env(std::move(specs), cfg);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'Madrid'"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EnvironmentValidation, RejectsNonFiniteLatitude) {
  expect_rejected([](RegionSpec& s) { s.latitude = kNan; }, "latitude");
}

TEST(EnvironmentValidation, RejectsOutOfRangeLatitude) {
  expect_rejected([](RegionSpec& s) { s.latitude = -90.5; }, "latitude");
}

TEST(EnvironmentValidation, RejectsNonFiniteLongitude) {
  expect_rejected([](RegionSpec& s) { s.longitude = kInf; }, "longitude");
}

TEST(EnvironmentValidation, RejectsOutOfRangeLongitude) {
  expect_rejected([](RegionSpec& s) { s.longitude = 181.0; }, "longitude");
}

TEST(EnvironmentValidation, RejectsPueBelowOne) {
  expect_rejected([](RegionSpec& s) { s.pue = 0.95; }, "pue");
}

TEST(EnvironmentValidation, RejectsNonFinitePue) {
  expect_rejected([](RegionSpec& s) { s.pue = kNan; }, "pue");
}

TEST(EnvironmentValidation, RejectsPueOverrideBelowOne) {
  EnvironmentConfig cfg = small_config();
  cfg.pue_override = 0.8;
  // The override applies to every region; the first one is named.
  try {
    const Environment env = Environment::builtin(cfg);
    ADD_FAILURE() << "accepted pue_override 0.8";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'Zurich'"), std::string::npos)
        << e.what();
  }
}

TEST(EnvironmentValidation, RejectsNegativeServers) {
  expect_rejected([](RegionSpec& s) { s.servers = -1; }, "servers");
}

TEST(EnvironmentValidation, RejectsNegativeWsf) {
  expect_rejected([](RegionSpec& s) { s.wsf = -0.1; }, "wsf");
}

TEST(EnvironmentValidation, RejectsNonFiniteWsf) {
  expect_rejected([](RegionSpec& s) { s.wsf = kInf; }, "wsf");
}

TEST(EnvironmentValidation, RejectsNegativePrice) {
  expect_rejected([](RegionSpec& s) { s.price_usd_per_kwh = -0.01; },
                  "price_usd_per_kwh");
}

TEST(EnvironmentValidation, RejectsNonFinitePrice) {
  expect_rejected([](RegionSpec& s) { s.price_usd_per_kwh = kNan; },
                  "price_usd_per_kwh");
}

/// Expects the builtin regions under `cfg` to be rejected naming `field`.
void expect_config_rejected(const EnvironmentConfig& cfg,
                            const std::string& field) {
  try {
    const Environment env = Environment::builtin(cfg);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(EnvironmentValidation, RejectsNegativeCarbonIntensityScale) {
  EnvironmentConfig cfg = small_config();
  cfg.carbon_intensity_scale = -1.0;
  expect_config_rejected(cfg, "carbon_intensity_scale");
}

TEST(EnvironmentValidation, RejectsNonFiniteCarbonIntensityScale) {
  EnvironmentConfig cfg = small_config();
  cfg.carbon_intensity_scale = kNan;
  expect_config_rejected(cfg, "carbon_intensity_scale");
}

TEST(EnvironmentValidation, RejectsNegativeWaterIntensityScale) {
  EnvironmentConfig cfg = small_config();
  cfg.water_intensity_scale = -0.5;
  expect_config_rejected(cfg, "water_intensity_scale");
}

TEST(EnvironmentValidation, RejectsNonFiniteWaterIntensityScale) {
  EnvironmentConfig cfg = small_config();
  cfg.water_intensity_scale = kInf;
  expect_config_rejected(cfg, "water_intensity_scale");
}

TEST(EnvironmentValidation, RejectsNonPositiveHorizon) {
  EnvironmentConfig cfg = small_config();
  cfg.horizon_days = 0;
  expect_config_rejected(cfg, "horizon_days");
}

TEST(EnvironmentValidation, RejectsHorizonHoursOverflow) {
  // horizon_days * 24 would overflow int; the check runs before any
  // allocation, so this allocates nothing.
  EnvironmentConfig cfg = small_config();
  cfg.horizon_days = std::numeric_limits<int>::max() / 24 + 1;
  expect_config_rejected(cfg, "horizon_days");
}

TEST(EnvironmentValidation, AcceptsBoundaryValues) {
  auto specs = builtin_region_specs();
  specs[0].latitude = 90.0;
  specs[0].longitude = -180.0;
  specs[1].pue = 1.0;
  specs[1].servers = 0;
  specs[2].wsf = 0.0;
  specs[2].price_usd_per_kwh = 0.0;
  EnvironmentConfig cfg = small_config();
  cfg.horizon_days = 1;
  cfg.carbon_intensity_scale = 0.0;
  cfg.water_intensity_scale = 0.0;
  EXPECT_NO_THROW(Environment(std::move(specs), cfg));
}

}  // namespace
}  // namespace ww::env
