// Decision-Controller correctness: on small batches, the placement chosen by
// WaterWise's MILP must minimize the Eq. 8 objective (plus the Sec. 7 cost
// and performance terms when they are weighted) among all feasible
// assignments, where the reference objective is computed independently by
// exhaustive enumeration using the same public formulas (footprint model,
// transfer model, history refs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/waterwise.hpp"
#include "env/faults.hpp"
#include "dc/simulator.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/generator.hpp"

namespace ww::core {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 2;
  return cfg;
}

class FixedCapacity final : public dc::CapacityView {
 public:
  explicit FixedCapacity(std::vector<int> free) : free_(std::move(free)) {}
  [[nodiscard]] int num_regions() const override {
    return static_cast<int>(free_.size());
  }
  [[nodiscard]] int capacity(int r) const override {
    return free_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int free_at(int r, double) const override {
    return free_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int max_occupancy(int, double, double) const override {
    return 0;
  }

 private:
  std::vector<int> free_;
};

struct Enumerator {
  const env::Environment& env;
  const footprint::FootprintModel& fp;
  const dc::ScheduleContext& ctx;
  const std::vector<dc::PendingJob>& batch;
  const std::vector<int>& caps;
  WaterWiseConfig cfg;

  /// Eq. 8 objective of a full assignment (job -> region), plus the Sec. 7
  /// cost and performance terms at their configured weights, each
  /// normalized by its per-job max over the regions; hard-feasibility
  /// check included; returns +inf when infeasible.  History refs are zero
  /// for a first-batch schedule *observation*: the scheduler observes once
  /// before solving, so refs reflect exactly one observation.
  double objective(const std::vector<int>& assign,
                   const HistoryLearner& hist) const {
    const int n = ctx.capacity->num_regions();
    std::vector<int> used(static_cast<std::size_t>(n), 0);
    double total = 0.0;
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const int r = assign[j];
      if (++used[static_cast<std::size_t>(r)] > caps[static_cast<std::size_t>(r)])
        return std::numeric_limits<double>::infinity();
      const dc::PendingJob& p = batch[j];
      const double latency = env.transfer_latency_seconds(
          p.job->home_region, r, p.job->package_bytes);
      const double allowance =
          std::max(0.0, ctx.tol * kDelayEstimateMargin * p.est_exec_s -
                            (ctx.now - p.first_seen));
      if (latency > allowance + 1e-9)
        return std::numeric_limits<double>::infinity();  // Eq. 11
      std::vector<double> co2(static_cast<std::size_t>(n));
      std::vector<double> h2o(static_cast<std::size_t>(n));
      std::vector<double> usd(static_cast<std::size_t>(n));
      std::vector<double> perf(static_cast<std::size_t>(n));
      for (int q = 0; q < n; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        const footprint::Breakdown fb =
            fp.job_at(q, ctx.now, p.est_energy_kwh, p.est_exec_s);
        const footprint::Breakdown tb =
            fp.transfer(p.job->home_region, q, p.job->package_bytes, ctx.now);
        co2[qi] = fb.carbon_g() + tb.carbon_g();
        h2o[qi] = fb.water_l() + tb.water_l();
        // Sec. 7: electricity cost and transfer-induced service stretch.
        usd[qi] = env.pue(q) * p.est_energy_kwh *
                  env.electricity_price(q, ctx.now);
        perf[qi] = env.transfer_latency_seconds(p.job->home_region, q,
                                                p.job->package_bytes) /
                   std::max(1.0, p.est_exec_s);
      }
      const auto max_of = [](const std::vector<double>& v) {
        return std::max(1e-12, *std::max_element(v.begin(), v.end()));
      };
      const auto ri = static_cast<std::size_t>(r);
      total += cfg.lambda_co2 * co2[ri] / max_of(co2) +
               cfg.lambda_h2o * h2o[ri] / max_of(h2o) +
               cfg.lambda_cost * usd[ri] / max_of(usd) +
               cfg.lambda_perf * perf[ri] / max_of(perf);
      total += cfg.lambda_ref * (cfg.lambda_co2 * hist.carbon_ref(r) +
                                 cfg.lambda_h2o * hist.water_ref(r));
    }
    return total;
  }
};

/// Schedules one seeded batch of 2-4 jobs with `cfg` and checks that the
/// placement reaches the brute-force optimum of the Enumerator objective.
void expect_brute_force_optimum(int seed, WaterWiseConfig cfg) {
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 911 + 17);

  const int jobs_n = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<trace::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(jobs_n));
  for (int i = 0; i < jobs_n; ++i) {
    trace::Job j;
    j.id = static_cast<std::uint64_t>(i);
    j.home_region = static_cast<int>(rng.uniform_int(0, 4));
    trace::sample_instance(static_cast<int>(rng.uniform_int(0, 9)), rng, j);
    jobs.push_back(j);
  }
  const double now = rng.uniform(0.0, 86400.0);
  std::vector<dc::PendingJob> batch;
  for (const auto& j : jobs) {
    dc::PendingJob p;
    p.job = &j;
    p.first_seen = now;  // just arrived: no waiting debited yet
    p.est_exec_s = trace::profile(j.benchmark).mean_exec_s;
    p.est_energy_kwh = trace::profile(j.benchmark).mean_power_w *
                       trace::profile(j.benchmark).mean_exec_s / 3.6e6;
    batch.push_back(p);
  }

  std::vector<int> caps(5);
  for (auto& c : caps) c = static_cast<int>(rng.uniform_int(1, 3));

  const FixedCapacity cap(caps);
  dc::ScheduleContext ctx;
  ctx.now = now;
  ctx.tol = 1.0;  // wide enough that several regions stay feasible
  ctx.footprint = &fp;
  ctx.capacity = &cap;

  // This test asserts the MILP reaches the brute-force optimum; an injected
  // solve failure (WW_FAULT_SOLVES fault-mode sweep) would legitimately
  // route the chunk to the greedy fallback, which only approximates it.
  cfg.solve_failure_rate = 0.0;
  WaterWiseScheduler ww(cfg);
  const auto decisions = ww.schedule(batch, ctx);

  // Rebuild the history state the solver saw: exactly one observation.
  HistoryLearner hist(5, kHistoryWindow);
  {
    std::vector<double> ci(5);
    std::vector<double> wi(5);
    for (int r = 0; r < 5; ++r) {
      ci[static_cast<std::size_t>(r)] = env.carbon_intensity(r, ctx.now);
      wi[static_cast<std::size_t>(r)] = env.water_intensity(r, ctx.now);
    }
    hist.observe(ci, wi);
  }

  const Enumerator en{env, fp, ctx, batch, caps, ww.config()};

  // Brute-force optimum over 5^jobs assignments.
  double best = std::numeric_limits<double>::infinity();
  const long combos = static_cast<long>(std::pow(5.0, jobs_n));
  for (long code = 0; code < combos; ++code) {
    long c = code;
    std::vector<int> assign(static_cast<std::size_t>(jobs_n));
    for (int j = 0; j < jobs_n; ++j) {
      assign[static_cast<std::size_t>(j)] = static_cast<int>(c % 5);
      c /= 5;
    }
    best = std::min(best, en.objective(assign, hist));
  }
  ASSERT_TRUE(std::isfinite(best));  // capacity was sized to keep it feasible

  // The scheduler's assignment must reach the same objective value (modulo
  // the 1e-9 symmetry-breaking epsilon).
  ASSERT_EQ(decisions.size(), batch.size());
  std::vector<int> chosen(static_cast<std::size_t>(jobs_n), -1);
  for (const auto& d : decisions)
    chosen[static_cast<std::size_t>(d.job_id)] = d.region;
  const double achieved = en.objective(chosen, hist);
  EXPECT_NEAR(achieved, best, 1e-5)
      << "seed " << seed << " lambda_cost " << cfg.lambda_cost
      << " lambda_perf " << cfg.lambda_perf;
}

class ObjectiveEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(ObjectiveEnumeration, MilpMatchesBruteForce) {
  expect_brute_force_optimum(GetParam(), WaterWiseConfig{});
}

TEST_P(ObjectiveEnumeration, Sec7TermsMatchBruteForce) {
  // The scheduler skips the Sec. 7 terms whose weight is 0.  Weighting
  // only the cost term, only the performance term, or both proves that
  // skipping a zero-weight term never drops a weighted one.
  WaterWiseConfig cfg;
  const int which = GetParam() % 3;
  if (which != 1) cfg.lambda_cost = 0.4;
  if (which != 0) cfg.lambda_perf = 0.6;
  expect_brute_force_optimum(GetParam(), cfg);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ObjectiveEnumeration, ::testing::Range(0, 25));

// The chunk model computes the region-independent terms once per job and
// the per-pair terms in one loop over region-major columns.  Each entry
// must still equal, bit for bit, the per-pair formulas: the hard form's
// cost is job_at plus transfer at the sampled intensities, normalized by
// the per-job maxima, plus the history term and the tie-break epsilon; a
// pair is allowed where its region has quota and its exceedance (the
// pair's transfer latency minus the job's remaining delay allowance) is
// not positive; a job's delay mask has the bits of its in-time regions;
// and the stored latency is transfer_latency_seconds.  After the in-place
// switch, the soft form's cost adds penalty_rate * exceedance where the
// exceedance is positive and allows every region with quota, and a second
// switch changes nothing.
TEST(CostTable, MatchesPerPairFormulasBitForBit) {
  // Faults in the Controller view: a forecast bias and a scarcity shock.
  env::FaultSchedule faults(5);
  faults.add_forecast_bias(1, 0.0, 1.0e9, 1.4, 0.8);
  faults.add_forecast_bias(4, 0.0, 1.0e9, 0.7, 1.3);
  faults.add_water_shock(3, 0.0, 1.0e9, 0.5);
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp =
      footprint::FootprintModel(env).with_faults(&faults,
                                                 env::FaultView::Controller);
  const int n = env.num_regions();
  const double now = 7213.0;

  // Jobs homed in every region; every third ships a zero-byte package.
  std::vector<trace::Job> jobs(8);
  std::vector<dc::PendingJob> batch(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    jobs[i].home_region = static_cast<int>(i) % n;
    jobs[i].package_bytes = i % 3 == 0 ? 0.0 : 7.5e7 * static_cast<double>(i);
    batch[i].job = &jobs[i];
    batch[i].first_seen = now - 9.0 * static_cast<double>(i);
    batch[i].est_exec_s = 40.0 + 250.0 * static_cast<double>(i);
    batch[i].est_energy_kwh = 0.004 * static_cast<double>(i + 1);
  }
  const FixedCapacity cap(std::vector<int>(static_cast<std::size_t>(n), 4));
  // One region without quota, so the allowed mask depends on both rules.
  std::vector<int> quota(static_cast<std::size_t>(n), 4);
  quota[1] = 0;
  std::vector<const dc::PendingJob*> chunk;
  for (const dc::PendingJob& p : batch) chunk.push_back(&p);

  struct Weights {
    double cost, perf;
    bool history;
  };
  int exceeding = 0, in_time = 0;
  // One workspace for every build, as a result slot is reused window after
  // window: each build must start over from the hard form.
  ChunkWorkspace ws;
  // The default tolerance, and one tight enough that remote pairs exceed.
  for (const double tol : {0.25, 0.02}) {
    for (const Weights w :
         {Weights{0.0, 0.0, true}, Weights{0.3, 0.2, true},
          Weights{0.0, 0.6, false}, Weights{0.5, 0.0, true}}) {
      SCOPED_TRACE("tol " + std::to_string(tol) + " lambda_cost " +
                   std::to_string(w.cost) + " lambda_perf " +
                   std::to_string(w.perf));
      dc::ScheduleContext ctx;
      ctx.now = now;
      ctx.tol = tol;
      ctx.footprint = &fp;
      ctx.capacity = &cap;
      WaterWiseConfig cfg;
      cfg.lambda_cost = w.cost;
      cfg.lambda_perf = w.perf;
      cfg.enable_history = w.history;
      cfg.solve_failure_rate = 0.0;
      const WaterWiseScheduler ww(cfg);
      const WaterWiseConfig& c = ww.config();

      WindowSnapshot snapshot;
      for (int r = 0; r < n; ++r) {
        snapshot.intensity.push_back(fp.sample(r, now));
        snapshot.price.push_back(w.cost > 0.0 ? env.electricity_price(r, now)
                                              : 0.0);
        snapshot.history.push_back(0.01 * static_cast<double>(r + 1));
      }
      snapshot.fill_columns();
      ww.build_costs(chunk, quota, ctx, snapshot, ws);
      const sched::TransportProblem& problem = ws.problem;
      const std::size_t cells = jobs.size() * static_cast<std::size_t>(n);
      ASSERT_FALSE(ws.soft);
      ASSERT_EQ(problem.jobs, static_cast<int>(jobs.size()));
      ASSERT_EQ(problem.quota, quota);
      ASSERT_EQ(problem.cost.size(), cells);
      ASSERT_EQ(problem.allowed.size(), cells);
      ASSERT_EQ(ws.exceedance.size(), cells);
      ASSERT_EQ(ws.latency.size(), cells);
      ASSERT_EQ(ws.delay_masks.size(), jobs.size());

      const auto max_of = [](const std::vector<double>& v) {
        return std::max(1e-12, *std::max_element(v.begin(), v.end()));
      };
      // The expected hard and soft forms, from the per-pair formulas.
      std::vector<double> hard(cells), soft(cells);
      std::vector<std::uint8_t> hard_allowed(cells), soft_allowed(cells);
      for (int j = 0; j < static_cast<int>(jobs.size()); ++j) {
        const dc::PendingJob& p = batch[static_cast<std::size_t>(j)];
        const int home = p.job->home_region;
        const footprint::Intensities& at_home =
            snapshot.intensity[static_cast<std::size_t>(home)];
        std::vector<double> co2, h2o, usd, perf, latency;
        for (int r = 0; r < n; ++r) {
          const footprint::Intensities& at =
              snapshot.intensity[static_cast<std::size_t>(r)];
          const footprint::Breakdown fb =
              fp.job_at(at, p.est_energy_kwh, p.est_exec_s);
          const footprint::Breakdown tb =
              fp.transfer(home, r, p.job->package_bytes, at_home, at);
          co2.push_back(fb.carbon_g() + tb.carbon_g());
          h2o.push_back(fb.water_l() + tb.water_l());
          usd.push_back(env.pue(r) * p.est_energy_kwh *
                        snapshot.price[static_cast<std::size_t>(r)]);
          latency.push_back(
              env.transfer_latency_seconds(home, r, p.job->package_bytes));
          perf.push_back(latency.back() / std::max(1.0, p.est_exec_s));
        }
        const double allowance =
            std::max(0.0, ctx.tol * kDelayEstimateMargin * p.est_exec_s -
                              (now - p.first_seen));
        const double rate = 10.0 / std::max(1.0, ctx.tol * p.est_exec_s);
        EXPECT_EQ(ws.penalty_rate[static_cast<std::size_t>(j)], rate)
            << "job " << j;
        std::uint32_t mask = 0;
        for (int r = 0; r < n; ++r) {
          const auto ri = static_cast<std::size_t>(r);
          const auto cell = static_cast<std::size_t>(j * n + r);
          double cost = c.lambda_co2 * co2[ri] / max_of(co2) +
                        c.lambda_h2o * h2o[ri] / max_of(h2o);
          if (c.lambda_cost > 0.0)
            cost += c.lambda_cost * usd[ri] / max_of(usd);
          if (c.lambda_perf > 0.0)
            cost += c.lambda_perf * perf[ri] / max_of(perf);
          if (c.enable_history) cost += snapshot.history[ri];
          cost += 1e-9 * static_cast<double>(j * n + r);
          const double exceedance = latency[ri] - allowance;
          const bool exceeds = exceedance > 0.0;
          (exceeds ? exceeding : in_time) += 1;
          hard[cell] = cost;
          soft[cell] = exceeds ? cost + rate * exceedance : cost;
          hard_allowed[cell] = quota[ri] > 0 && !exceeds ? 1 : 0;
          soft_allowed[cell] = quota[ri] > 0 ? 1 : 0;
          if (!exceeds) mask |= 1U << r;
          EXPECT_EQ(ws.exceedance[cell], exceedance)
              << "job " << j << " region " << r;
          EXPECT_EQ(ws.latency[cell], latency[ri])
              << "job " << j << " region " << r;
        }
        EXPECT_EQ(ws.delay_masks[static_cast<std::size_t>(j)], mask)
            << "job " << j;
      }
      for (std::size_t cell = 0; cell < cells; ++cell) {
        EXPECT_EQ(problem.cost[cell], hard[cell]) << "hard, cell " << cell;
        EXPECT_EQ(problem.allowed[cell], hard_allowed[cell])
            << "hard, cell " << cell;
      }
      // The soft form, switched in place; a second switch is a no-op.
      for (int round = 0; round < 2; ++round) {
        ws.soften();
        ASSERT_TRUE(ws.soft);
        for (std::size_t cell = 0; cell < cells; ++cell) {
          EXPECT_EQ(problem.cost[cell], soft[cell])
              << "soft round " << round << ", cell " << cell;
          EXPECT_EQ(problem.allowed[cell], soft_allowed[cell])
              << "soft round " << round << ", cell " << cell;
        }
      }
    }
  }
  // Both sides of the delay rule occur.
  EXPECT_GT(exceeding, 0);
  EXPECT_GT(in_time, 0);
}

}  // namespace
}  // namespace ww::core
