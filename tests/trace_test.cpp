#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/arrival.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/generator.hpp"
#include "util/stats.hpp"

namespace ww::trace {
namespace {

TEST(BenchmarkProfiles, TableOneContents) {
  ASSERT_EQ(num_benchmarks(), 10);
  int parsec = 0;
  int cloudsuite = 0;
  for (const auto& p : benchmark_profiles()) {
    if (p.suite == "PARSEC") ++parsec;
    if (p.suite == "CloudSuite") ++cloudsuite;
    EXPECT_GT(p.mean_exec_s, 0.0);
    EXPECT_GT(p.mean_power_w, 0.0);
    EXPECT_GT(p.package_mb, 0.0);
  }
  EXPECT_EQ(parsec, 5);
  EXPECT_EQ(cloudsuite, 5);
  EXPECT_EQ(profile(0).name, "Dedup");
  EXPECT_THROW((void)profile(99), std::out_of_range);
}

TEST(BenchmarkProfiles, UtilizationCalibration) {
  // Borg rate (~0.266/s) x mean exec / 175 servers ~ 15% utilization.
  const double rate = 230000.0 / (10.0 * 86400.0);
  const double util = rate * mean_exec_seconds_overall() / 175.0;
  EXPECT_GT(util, 0.10);
  EXPECT_LT(util, 0.22);
}

TEST(BenchmarkProfiles, SampledInstanceMeansConverge) {
  util::Rng rng(5);
  util::RunningStats exec;
  util::RunningStats power;
  Job j;
  for (int i = 0; i < 20000; ++i) {
    sample_instance(2, rng, j);  // Canneal
    exec.add(j.exec_seconds);
    power.add(j.avg_power_watts);
    ASSERT_GT(j.exec_seconds, 0.0);
  }
  EXPECT_NEAR(exec.mean(), profile(2).mean_exec_s, profile(2).mean_exec_s * 0.03);
  EXPECT_NEAR(power.mean(), profile(2).mean_power_w,
              profile(2).mean_power_w * 0.02);
  // Dispersion close to the configured CV.
  EXPECT_NEAR(exec.stddev() / exec.mean(), profile(2).exec_cv, 0.05);
}

TEST(Arrivals, RateMatchesConfiguration) {
  ArrivalConfig cfg;
  cfg.base_rate_per_s = 0.25;
  const double horizon = 4.0 * 86400.0;
  const auto times = generate_arrivals(cfg, horizon, util::Rng(7));
  // Burst multipliers average out near 1 given the sojourn split.
  const double rate = static_cast<double>(times.size()) / horizon;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(Arrivals, SortedAndInHorizon) {
  ArrivalConfig cfg;
  const auto times = generate_arrivals(cfg, 86400.0, util::Rng(9));
  ASSERT_FALSE(times.empty());
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_GE(times[i], times[i - 1]);
  EXPECT_GE(times.front(), 0.0);
  EXPECT_LT(times.back(), 86400.0);
}

TEST(Arrivals, DiurnalFactorMeansOne) {
  for (const DiurnalShape shape :
       {DiurnalShape::Flat, DiurnalShape::SinglePeak, DiurnalShape::DoublePeak}) {
    double total = 0.0;
    const int steps = 24 * 60;
    for (int i = 0; i < steps; ++i)
      total += diurnal_factor(shape, 0.5, 14.0, i * 60.0);
    EXPECT_NEAR(total / steps, 1.0, 0.01);
  }
}

TEST(Arrivals, DiurnalPeakAtConfiguredHour) {
  const double peak =
      diurnal_factor(DiurnalShape::SinglePeak, 0.5, 14.0, 14.0 * 3600.0);
  const double trough =
      diurnal_factor(DiurnalShape::SinglePeak, 0.5, 14.0, 2.0 * 3600.0);
  EXPECT_GT(peak, trough);
  EXPECT_NEAR(peak, 1.5, 1e-9);
}

TEST(BorgTrace, JobCountMatchesPaperScale) {
  // Full 10-day trace: ~230k jobs (within burst-noise tolerance).
  const auto jobs = generate_trace(borg_config(/*seed=*/3, /*days=*/10.0));
  EXPECT_GT(jobs.size(), 180000u);
  EXPECT_LT(jobs.size(), 280000u);
}

TEST(BorgTrace, DeterministicPerSeed) {
  const auto a = generate_trace(borg_config(11, 0.5));
  const auto b = generate_trace(borg_config(11, 0.5));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].home_region, b[i].home_region);
    EXPECT_DOUBLE_EQ(a[i].exec_seconds, b[i].exec_seconds);
  }
  const auto c = generate_trace(borg_config(12, 0.5));
  EXPECT_NE(a.size(), c.size());
}

TEST(BorgTrace, FieldsWellFormed) {
  const auto jobs = generate_trace(borg_config(5, 1.0));
  ASSERT_FALSE(jobs.empty());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    EXPECT_EQ(j.id, i);
    EXPECT_GE(j.home_region, 0);
    EXPECT_LT(j.home_region, 5);
    EXPECT_GE(j.benchmark, 0);
    EXPECT_LT(j.benchmark, num_benchmarks());
    EXPECT_GT(j.exec_seconds, 0.0);
    EXPECT_GT(j.energy_kwh(), 0.0);
    if (i > 0) {
      EXPECT_GE(j.submit_time, jobs[i - 1].submit_time);
    }
  }
}

TEST(BorgTrace, RegionWeightsRespected) {
  const auto cfg = borg_config(17, 2.0);
  const auto jobs = generate_trace(cfg);
  std::vector<double> counts(5, 0.0);
  for (const Job& j : jobs)
    counts[static_cast<std::size_t>(j.home_region)] += 1.0;
  for (int r = 0; r < 5; ++r)
    EXPECT_NEAR(counts[static_cast<std::size_t>(r)] /
                    static_cast<double>(jobs.size()),
                cfg.region_weights[static_cast<std::size_t>(r)], 0.02);
}

TEST(AlibabaTrace, RateIs8p5xBorg) {
  const auto borg = generate_trace(borg_config(21, 1.0));
  const auto ali = generate_trace(alibaba_config(21, 1.0));
  const double ratio =
      static_cast<double>(ali.size()) / static_cast<double>(borg.size());
  EXPECT_NEAR(ratio, 8.5, 1.5);
}

TEST(AlibabaTrace, ShorterJobsKeepUtilizationComparable) {
  const auto borg = generate_trace(borg_config(23, 0.5));
  const auto ali = generate_trace(alibaba_config(23, 0.5));
  double borg_work = 0.0;
  double ali_work = 0.0;
  for (const Job& j : borg) borg_work += j.exec_seconds;
  for (const Job& j : ali) ali_work += j.exec_seconds;
  EXPECT_NEAR(ali_work / borg_work, 1.0, 0.35);
}

TEST(TraceConfig, RateMultiplier) {
  auto cfg = borg_config(29, 1.0);
  const auto base = generate_trace(cfg);
  cfg.rate_multiplier = 2.0;
  const auto doubled = generate_trace(cfg);
  EXPECT_NEAR(static_cast<double>(doubled.size()) /
                  static_cast<double>(base.size()),
              2.0, 0.3);
}

TEST(TraceCsv, RoundTrips) {
  const auto jobs = generate_trace(borg_config(31, 0.05));
  ASSERT_FALSE(jobs.empty());
  std::ostringstream out;
  write_trace_csv(out, jobs);
  std::istringstream in(out.str());
  const auto back = read_trace_csv(in);
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(back[i].id, jobs[i].id);
    EXPECT_DOUBLE_EQ(back[i].submit_time, jobs[i].submit_time);
    EXPECT_EQ(back[i].home_region, jobs[i].home_region);
    EXPECT_EQ(back[i].benchmark, jobs[i].benchmark);
    EXPECT_DOUBLE_EQ(back[i].exec_seconds, jobs[i].exec_seconds);
    EXPECT_DOUBLE_EQ(back[i].avg_power_watts, jobs[i].avg_power_watts);
    EXPECT_DOUBLE_EQ(back[i].package_bytes, jobs[i].package_bytes);
  }
}

TEST(TraceCsv, EmptyStream) {
  std::istringstream in("");
  EXPECT_TRUE(read_trace_csv(in).empty());
}

constexpr const char* kHeader =
    "id,submit_time,home_region,benchmark,exec_seconds,avg_power_watts,"
    "package_bytes\n";
constexpr const char* kGoodRow = "7,12.5,2,1,300,100,1e6\n";

/// Expects read_trace_csv to reject `bad` as the second data row (line 3),
/// with an error naming that line and `column` (1-based), or only the
/// line when `column` is 0.
void expect_rejected(const std::string& bad, int column) {
  std::istringstream in(std::string(kHeader) + kGoodRow + bad + "\n");
  try {
    (void)read_trace_csv(in);
    ADD_FAILURE() << "accepted: " << bad;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    if (column > 0) {
      EXPECT_NE(what.find("column " + std::to_string(column)),
                std::string::npos)
          << what;
    }
  }
}

TEST(TraceCsv, AcceptsWellFormedRows) {
  std::istringstream in(std::string(kHeader) + kGoodRow +
                        "18446744073709551615,0,0,9,1.5e-3,0,0\n");
  const auto jobs = read_trace_csv(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, 7u);
  EXPECT_EQ(jobs[0].submit_time, 12.5);
  EXPECT_EQ(jobs[0].home_region, 2);
  EXPECT_EQ(jobs[0].package_bytes, 1e6);
  EXPECT_EQ(jobs[1].id, 18446744073709551615u);
  EXPECT_EQ(jobs[1].exec_seconds, 1.5e-3);
}

TEST(TraceCsv, RejectsSignedId) {
  // std::stoull used to wrap -1 to 2^64 - 1.
  expect_rejected("-1,12.5,2,1,300,100,1e6", 1);
  expect_rejected("+1,12.5,2,1,300,100,1e6", 1);
  expect_rejected("18446744073709551616,12.5,2,1,300,100,1e6", 1);  // 2^64
}

TEST(TraceCsv, RejectsTrailingCharacters) {
  expect_rejected("7,12abc,2,1,300,100,1e6", 2);
  expect_rejected("7,12.5,2,1,300,100,1e6 ", 7);
  expect_rejected("7, 12.5,2,1,300,100,1e6", 2);
}

TEST(TraceCsv, RejectsFractionalIntegerField) {
  expect_rejected("7,12.5,2.9,1,300,100,1e6", 3);
  expect_rejected("7,12.5,2,1.0,300,100,1e6", 4);
}

TEST(TraceCsv, RejectsNonFiniteNumber) {
  expect_rejected("7,12.5,2,1,nan,100,1e6", 5);
  expect_rejected("7,12.5,2,1,300,inf,1e6", 6);
  expect_rejected("7,-infinity,2,1,300,100,1e6", 2);
  expect_rejected("7,12.5,2,1,300,100,1e999", 7);  // overflows to inf
}

TEST(TraceCsv, RejectsWrongFieldCount) {
  expect_rejected("7,12.5,2,1,300,100", 0);
  expect_rejected("7,12.5,2,1,300,100,1e6,", 0);
}

TEST(TraceCsv, ReportsTheFirstBadField) {
  // Columns 1, 2, 3 and 5 are all bad; the error names column 1.
  expect_rejected("-1,12abc,2.9,1,nan,100,1e6", 1);
}

TEST(TraceConfig, Validation) {
  auto cfg = borg_config(1, 0.1);
  cfg.num_regions = 0;
  EXPECT_THROW((void)generate_trace(cfg), std::invalid_argument);
  cfg = borg_config(1, 0.1);
  cfg.region_weights = {1.0, 1.0};  // wrong size
  EXPECT_THROW((void)generate_trace(cfg), std::invalid_argument);
}

// --- Hostile configs: one case per rule -----------------------------------
//
// Each of these used to hang generate_trace (a NaN horizon is never
// reached, a non-positive sojourn mean never advances the MMPP clock, a
// negative rate steps time backwards) or would void the thinning squeeze.
// They are tested only through the throw; none is ever generated.

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expects generate_trace to reject borg_config with `mutate` applied,
/// naming `field`.
template <typename Mutate>
void expect_rejected_config(Mutate mutate, const std::string& field) {
  TraceConfig cfg = borg_config(1, 0.1);
  mutate(cfg);
  try {
    (void)generate_trace(cfg);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(TraceConfig, RejectsNanDays) {
  expect_rejected_config([](TraceConfig& c) { c.days = kNan; }, "days");
}

TEST(TraceConfig, RejectsInfiniteDays) {
  expect_rejected_config([](TraceConfig& c) { c.days = kInf; }, "days");
}

TEST(TraceConfig, RejectsNegativeDays) {
  expect_rejected_config([](TraceConfig& c) { c.days = -1.0; }, "days");
}

TEST(TraceConfig, RejectsNonPositiveRateMultiplier) {
  expect_rejected_config([](TraceConfig& c) { c.rate_multiplier = 0.0; },
                         "rate_multiplier");
}

TEST(TraceConfig, RejectsNonFiniteRateMultiplier) {
  expect_rejected_config([](TraceConfig& c) { c.rate_multiplier = kInf; },
                         "rate_multiplier");
}

TEST(TraceConfig, RejectsNonPositiveExecScale) {
  expect_rejected_config([](TraceConfig& c) { c.exec_scale = -1.0; },
                         "exec_scale");
}

TEST(TraceConfig, RejectsNonFiniteExecScale) {
  expect_rejected_config([](TraceConfig& c) { c.exec_scale = kNan; },
                         "exec_scale");
}

TEST(TraceConfig, RejectsNegativeRegionWeight) {
  expect_rejected_config([](TraceConfig& c) { c.region_weights[2] = -0.1; },
                         "region_weights");
}

TEST(TraceConfig, RejectsNonFiniteRegionWeight) {
  expect_rejected_config([](TraceConfig& c) { c.region_weights[0] = kNan; },
                         "region_weights");
}

TEST(TraceConfig, RejectsZeroRegionWeightSum) {
  expect_rejected_config(
      [](TraceConfig& c) { c.region_weights.assign(5, 0.0); },
      "region_weights");
  expect_rejected_config(
      [](TraceConfig& c) {
        c.region_weights.assign(5, 0.0);
        c.days = 0.0;  // rejected even when no job would draw a region
      },
      "region_weights");
}

TEST(TraceConfig, RejectsNegativeBaseRate) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.base_rate_per_s = -0.27; },
      "base_rate_per_s");
}

TEST(TraceConfig, RejectsNonFiniteBaseRate) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.base_rate_per_s = kNan; },
      "base_rate_per_s");
}

TEST(TraceConfig, RejectsNegativeBurstMultiplier) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.burst_rate_multiplier = -2.0; },
      "burst_rate_multiplier");
}

TEST(TraceConfig, RejectsNonFiniteCalmMultiplier) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.calm_rate_multiplier = kInf; },
      "calm_rate_multiplier");
}

TEST(TraceConfig, RejectsNonPositiveCalmSojourn) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.mean_calm_seconds = 0.0; },
      "mean_calm_seconds");
}

TEST(TraceConfig, RejectsNonPositiveBurstSojourn) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.mean_burst_seconds = -1800.0; },
      "mean_burst_seconds");
}

TEST(TraceConfig, RejectsNegativeDiurnalSwing) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.diurnal_swing = -0.1; },
      "diurnal_swing");
}

TEST(TraceConfig, RejectsNonFiniteDiurnalSwing) {
  expect_rejected_config(
      [](TraceConfig& c) { c.arrival.diurnal_swing = kNan; },
      "diurnal_swing");
}

TEST(TraceConfig, RejectsOverflowingRateBound) {
  // Each field is finite, but base * (1 + swing) * burst is not.
  expect_rejected_config(
      [](TraceConfig& c) {
        c.arrival.base_rate_per_s = 1e300;
        c.arrival.burst_rate_multiplier = 1e300;
      },
      "rate bound");
}

TEST(TraceConfig, AcceptsBoundaryValues) {
  TraceConfig cfg = borg_config(1, 0.0);
  EXPECT_TRUE(generate_trace(cfg).empty());  // zero days
  cfg = borg_config(1, 0.1);
  cfg.arrival.base_rate_per_s = 0.0;
  EXPECT_TRUE(generate_trace(cfg).empty());
  cfg = borg_config(1, 0.1);
  cfg.arrival.diurnal_swing = 0.0;
  cfg.arrival.calm_rate_multiplier = 0.0;
  cfg.region_weights = {0.0, 1.0, 0.0, 0.0, 0.0};
  const auto jobs = generate_trace(cfg);
  EXPECT_FALSE(jobs.empty());
  for (const Job& j : jobs) EXPECT_EQ(j.home_region, 1);
}

TEST(Arrivals, RejectsNanHorizon) {
  EXPECT_THROW((void)generate_arrivals(ArrivalConfig{}, kNan, util::Rng(1)),
               std::invalid_argument);
}

// The squeeze in generate_arrivals rests on this invariant: for swing >= 0
// the envelope lies in [1 - swing, 1 + swing], computed in double.
TEST(Arrivals, DiurnalFactorWithinSwingBounds) {
  const double far = 400.0 * 86400.0;  // the default environment horizon
  for (const DiurnalShape shape : {DiurnalShape::Flat, DiurnalShape::SinglePeak,
                                   DiurnalShape::DoublePeak}) {
    for (const double swing : {0.0, 0.45, 0.6, 1.0}) {
      for (const double peak : {14.0, 20.0, 0.0, 23.5}) {
        std::size_t outside = 0;
        for (int k = 0; k < 2 * 86400; k += 7) {
          for (const double t : {k + 0.25, far - k - 0.5}) {
            const double d = diurnal_factor(shape, swing, peak, t);
            if (!(d >= 1.0 - swing && d <= 1.0 + swing)) ++outside;
          }
        }
        EXPECT_EQ(outside, 0u) << "shape " << static_cast<int>(shape)
                               << " swing " << swing << " peak " << peak;
      }
    }
  }
}

}  // namespace
}  // namespace ww::trace
