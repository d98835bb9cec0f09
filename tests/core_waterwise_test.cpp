#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "sched/greedy_opt.hpp"
#include "trace/generator.hpp"
#include "util/stats.hpp"

namespace ww::core {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 5;
  return cfg;
}

struct Rig {
  env::Environment env = env::Environment::builtin(small_env());
  footprint::FootprintModel fp{env};
  std::vector<trace::Job> jobs = trace::generate_trace(trace::borg_config(3, 0.1));

  dc::CampaignResult run(dc::Scheduler& s, double tol = 0.5,
                         double capacity_scale = 1.0) {
    dc::SimConfig cfg;
    cfg.tol = tol;
    cfg.capacity_scale = capacity_scale;
    dc::Simulator sim(env, fp, cfg);
    return sim.run(jobs, s);
  }
};

TEST(WaterWise, CompletesAllJobs) {
  Rig rig;
  WaterWiseScheduler ww;
  const auto res = rig.run(ww);
  EXPECT_EQ(res.num_jobs, static_cast<long>(rig.jobs.size()));
  EXPECT_EQ(res.scheduler_name, "WaterWise");
}

TEST(WaterWise, BeatsBaselineOnBothMetrics) {
  // The headline claim: simultaneous carbon AND water savings vs. the
  // carbon/water-unaware baseline.
  Rig rig;
  sched::BaselineScheduler baseline;
  WaterWiseScheduler ww;
  const auto base = rig.run(baseline);
  const auto res = rig.run(ww);
  EXPECT_GT(res.carbon_saving_pct_vs(base), 5.0);
  EXPECT_GT(res.water_saving_pct_vs(base), 5.0);
}

TEST(WaterWise, SitsBetweenTheGreedyOracles) {
  // Fig. 5 structure: WaterWise is within striking distance of each
  // single-metric oracle without matching either exactly.
  Rig rig;
  WaterWiseScheduler ww;
  sched::GreedyOptScheduler carbon(sched::GreedyMetric::Carbon);
  sched::GreedyOptScheduler water(sched::GreedyMetric::Water);
  const auto res = rig.run(ww);
  const auto c = rig.run(carbon);
  const auto w = rig.run(water);
  // The oracles have future knowledge, so WaterWise cannot beat them by a
  // large margin on their own metric; allow small wins from capacity noise.
  EXPECT_GT(res.total_carbon_g, c.total_carbon_g * 0.92);
  EXPECT_GT(res.total_water_l, w.total_water_l * 0.92);
}

TEST(WaterWise, FewViolations) {
  // Table 2: WaterWise violations stay well under 5%.
  Rig rig;
  WaterWiseScheduler ww;
  const auto res = rig.run(ww, 0.25);
  EXPECT_LT(res.violation_pct(), 5.0);
}

TEST(WaterWise, ServiceTimeWellUnderTolerance) {
  // Table 2: mean normalized service time (1.03-1.13x) far below 1+TOL.
  Rig rig;
  WaterWiseScheduler ww;
  const auto res = rig.run(ww, 0.5);
  EXPECT_LT(res.mean_service_norm(), 1.3);
  EXPECT_GE(res.mean_service_norm(), 1.0);
}

TEST(WaterWise, LambdaSweepShiftsTheTradeoff) {
  // Fig. 8: more carbon weight => at least as much carbon saving, and the
  // water/carbon balance moves in the expected direction.
  Rig rig;
  sched::BaselineScheduler baseline;
  const auto base = rig.run(baseline);

  WaterWiseConfig lo;
  lo.lambda_co2 = 0.3;
  lo.lambda_h2o = 0.7;
  WaterWiseConfig hi;
  hi.lambda_co2 = 0.7;
  hi.lambda_h2o = 0.3;
  WaterWiseScheduler ww_lo(lo);
  WaterWiseScheduler ww_hi(hi);
  const auto r_lo = rig.run(ww_lo);
  const auto r_hi = rig.run(ww_hi);

  EXPECT_GT(r_hi.carbon_saving_pct_vs(base),
            r_lo.carbon_saving_pct_vs(base) - 1.0);
  EXPECT_GT(r_lo.water_saving_pct_vs(base),
            r_hi.water_saving_pct_vs(base) - 1.0);
  // Both stay better than baseline on both metrics.
  EXPECT_GT(r_lo.carbon_saving_pct_vs(base), 0.0);
  EXPECT_GT(r_hi.water_saving_pct_vs(base), 0.0);
}

TEST(WaterWise, DeterministicAcrossRuns) {
  Rig rig;
  WaterWiseScheduler a;
  WaterWiseScheduler b;
  const auto r1 = rig.run(a);
  const auto r2 = rig.run(b);
  EXPECT_DOUBLE_EQ(r1.total_carbon_g, r2.total_carbon_g);
  EXPECT_DOUBLE_EQ(r1.total_water_l, r2.total_water_l);
  EXPECT_EQ(r1.jobs_per_region, r2.jobs_per_region);
}

TEST(WaterWise, SurvivesSevereCapacityPressure) {
  // Slack manager + soft constraints path: more jobs than total capacity.
  Rig rig;
  WaterWiseScheduler ww;
  const auto res = rig.run(ww, 0.25, /*capacity_scale=*/0.05);
  EXPECT_EQ(res.num_jobs, static_cast<long>(rig.jobs.size()));
  EXPECT_GT(res.mean_service_norm(), 1.0);  // queueing happened
}

TEST(WaterWise, HistoryAblationChangesNothingStructural) {
  Rig rig;
  WaterWiseConfig no_hist;
  no_hist.enable_history = false;
  WaterWiseScheduler ww(no_hist);
  sched::BaselineScheduler baseline;
  const auto base = rig.run(baseline);
  const auto res = rig.run(ww);
  EXPECT_EQ(res.num_jobs, static_cast<long>(rig.jobs.size()));
  EXPECT_GT(res.carbon_saving_pct_vs(base), 0.0);
}

TEST(WaterWise, ConfigValidation) {
  WaterWiseConfig bad;
  bad.lambda_co2 = -0.5;
  EXPECT_THROW(WaterWiseScheduler{bad}, std::invalid_argument);
  WaterWiseConfig zero;
  zero.lambda_co2 = 0.0;
  zero.lambda_h2o = 0.0;
  EXPECT_THROW(WaterWiseScheduler{zero}, std::invalid_argument);
}

TEST(WaterWise, WeightsNormalizedToSumOne) {
  WaterWiseConfig cfg;
  cfg.lambda_co2 = 2.0;
  cfg.lambda_h2o = 2.0;
  const WaterWiseScheduler ww(cfg);
  EXPECT_DOUBLE_EQ(ww.config().lambda_co2, 0.5);
  EXPECT_DOUBLE_EQ(ww.config().lambda_h2o, 0.5);
}

TEST(WaterWise, UsesMilpSolver) {
  Rig rig;
  WaterWiseScheduler ww;
  (void)rig.run(ww);
  EXPECT_GT(ww.stats().milp_solves, 0);
}

TEST(WaterWise, SchedulerStatsAccumulateSolverCounters) {
  Rig rig;
  WaterWiseScheduler ww;
  (void)rig.run(ww);
  const SchedulerStats st = ww.stats();
  EXPECT_GT(st.milp_solves, 0);
  EXPECT_GT(st.solve_seconds, 0.0);
  // The transportation solver runs no simplex, tree or presolve, so the
  // general MILP solver's counters stay at zero on the scheduler path.
  EXPECT_EQ(st.nodes_explored, 0);
  EXPECT_EQ(st.simplex_iterations, 0);
  EXPECT_EQ(st.refactorizations, 0);
  EXPECT_EQ(st.ft_updates, 0);
  EXPECT_EQ(st.presolve_rows_removed, 0);
  EXPECT_EQ(st.presolve_seconds, 0.0);
}

/// Forwards to a WaterWise scheduler and counts the decisions it returns.
class DecisionCounter final : public dc::Scheduler {
 public:
  explicit DecisionCounter(WaterWiseScheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override {
    std::vector<dc::Decision> out = inner_.schedule(batch, ctx);
    returned += out.size();
    return out;
  }

  void on_job_finished(const trace::Job& job) override {
    inner_.on_job_finished(job);
  }

  std::size_t returned = 0;

 private:
  WaterWiseScheduler& inner_;
};

TEST(WaterWise, TimeToAdmissionCountsOnlyAdmittedJobs) {
  // WaterWise's quota reads the free servers at one instant, while
  // admission checks the peak over the job's whole run, so the simulator
  // refuses some returned decisions and those jobs are decided again in a
  // later window.  A wait is observed only when a job is admitted, so the
  // histogram holds one sample per job, however often it was decided.
  Rig rig;
  WaterWiseScheduler ww;
  DecisionCounter counter(ww);
  const dc::CampaignResult res = rig.run(counter);
  ASSERT_EQ(res.num_jobs, static_cast<long>(rig.jobs.size()));
  EXPECT_GT(counter.returned, static_cast<std::size_t>(res.num_jobs))
      << "no decision was refused, so the check below proves nothing";
  const util::Histogram* admission =
      res.service.find_hist("service.time_to_admission_s");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->total(), static_cast<std::size_t>(res.num_jobs));
}

}  // namespace
}  // namespace ww::core
