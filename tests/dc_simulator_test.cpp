#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "trace/generator.hpp"

namespace ww::dc {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 10;
  return cfg;
}

std::vector<trace::Job> small_trace(std::uint64_t seed = 3,
                                    double days = 0.15) {
  return trace::generate_trace(trace::borg_config(seed, days));
}

class SimulatorTest : public ::testing::Test {
 protected:
  /// run() must throw std::invalid_argument naming job `id`.
  void expect_rejected(const std::vector<trace::Job>& jobs, std::uint64_t id) {
    Simulator sim(env_, fp_, SimConfig{});
    sched::BaselineScheduler baseline;
    try {
      (void)sim.run(jobs, baseline);
      ADD_FAILURE() << "run() accepted the trace";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("job " + std::to_string(id)),
                std::string::npos)
          << e.what();
    }
  }

  env::Environment env_ = env::Environment::builtin(small_env());
  footprint::FootprintModel fp_{env_};
};

/// The first 20 jobs of a small Borg trace.
std::vector<trace::Job> twenty_jobs() {
  auto jobs = small_trace(19, 0.05);
  jobs.resize(20);
  return jobs;
}

TEST_F(SimulatorTest, AllJobsRunExactlyOnce) {
  const auto jobs = small_trace();
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  EXPECT_EQ(res.num_jobs, static_cast<long>(jobs.size()));
  long placed = 0;
  for (const long c : res.jobs_per_region) placed += c;
  EXPECT_EQ(placed, res.num_jobs);
}

TEST_F(SimulatorTest, BaselineStaysHome) {
  const auto jobs = small_trace();
  SimConfig cfg;
  cfg.record_jobs = true;
  Simulator sim(env_, fp_, cfg);
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  ASSERT_EQ(res.jobs.size(), jobs.size());
  for (const JobOutcome& o : res.jobs) EXPECT_EQ(o.exec_region, o.home_region);
  EXPECT_DOUBLE_EQ(res.transfer_carbon_g, 0.0);
}

TEST_F(SimulatorTest, BaselineHasNoViolationsAtPaperUtilization) {
  // Table 2 row 1: the Baseline never violates delay tolerance at ~15% util.
  const auto jobs = small_trace();
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  EXPECT_EQ(res.violations, 0);
  EXPECT_NEAR(res.mean_service_norm(), 1.0, 0.05);
}

TEST_F(SimulatorTest, ServiceTimeNeverBelowExecution) {
  const auto jobs = small_trace(5);
  SimConfig cfg;
  cfg.record_jobs = true;
  Simulator sim(env_, fp_, cfg);
  sched::RoundRobinScheduler rr;
  const CampaignResult res = sim.run(jobs, rr);
  for (const JobOutcome& o : res.jobs) {
    EXPECT_GE(o.finish_time - o.submit_time, o.exec_seconds * 0.999);
    EXPECT_GE(o.start_time, o.submit_time);
  }
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  const auto jobs = small_trace(7);
  Simulator sim(env_, fp_, SimConfig{});
  sched::LeastLoadScheduler a;
  sched::LeastLoadScheduler b;
  const CampaignResult r1 = sim.run(jobs, a);
  const CampaignResult r2 = sim.run(jobs, b);
  EXPECT_DOUBLE_EQ(r1.total_carbon_g, r2.total_carbon_g);
  EXPECT_DOUBLE_EQ(r1.total_water_l, r2.total_water_l);
  EXPECT_EQ(r1.jobs_per_region, r2.jobs_per_region);
  EXPECT_EQ(r1.violations, r2.violations);
}

TEST_F(SimulatorTest, CapacityNeverExceeded) {
  // Tiny capacity forces queueing; verify occupancy via recorded intervals.
  const auto jobs = small_trace(9, 0.05);
  SimConfig cfg;
  cfg.capacity_scale = 0.06;  // ~2 servers per region
  cfg.record_jobs = true;
  Simulator sim(env_, fp_, cfg);
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  ASSERT_EQ(res.num_jobs, static_cast<long>(jobs.size()));
  const std::vector<int> caps = sim.region_capacities();
  // Event-sweep max concurrency per region.
  for (int r = 0; r < 5; ++r) {
    std::vector<std::pair<double, int>> events;
    for (const JobOutcome& o : res.jobs) {
      if (o.exec_region != r) continue;
      events.emplace_back(o.start_time, +1);
      events.emplace_back(o.finish_time, -1);
    }
    std::sort(events.begin(), events.end());  // -1 sorts before +1 at ties
    int running = 0;
    int peak = 0;
    for (const auto& [t, d] : events) {
      running += d;
      peak = std::max(peak, running);
    }
    EXPECT_LE(peak, caps[static_cast<std::size_t>(r)]) << "region " << r;
  }
}

TEST_F(SimulatorTest, QueueingCausesViolationsUnderPressure) {
  const auto jobs = small_trace(11, 0.05);
  SimConfig cfg;
  cfg.capacity_scale = 0.03;  // ~1 server per region: heavy pressure
  Simulator sim(env_, fp_, cfg);
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  EXPECT_GT(res.mean_service_norm(), 1.0);
}

TEST_F(SimulatorTest, FootprintsArePositiveAndDecomposed) {
  const auto jobs = small_trace(13);
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  EXPECT_GT(res.total_carbon_g, 0.0);
  EXPECT_GT(res.total_water_l, 0.0);
  EXPECT_GT(res.embodied_carbon_g, 0.0);
  EXPECT_LT(res.embodied_carbon_g, res.total_carbon_g);
  EXPECT_GT(res.makespan_seconds, 0.0);
}

TEST_F(SimulatorTest, OverheadSeriesRecorded) {
  const auto jobs = small_trace(15, 0.05);
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run(jobs, baseline);
  EXPECT_FALSE(res.overhead_series.empty());
  EXPECT_GE(res.decision_seconds_total, 0.0);
}

TEST_F(SimulatorTest, RejectsUnsortedTrace) {
  auto jobs = small_trace(17, 0.02);
  ASSERT_GE(jobs.size(), 2u);
  std::swap(jobs.front().submit_time, jobs.back().submit_time);
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  EXPECT_THROW((void)sim.run(jobs, baseline), std::invalid_argument);
}

TEST_F(SimulatorTest, RejectsNonFiniteSubmitTime) {
  // A NaN submit time passes the sort check and never becomes due; the run
  // must reject it up front instead of spinning forever.
  auto jobs = twenty_jobs();
  jobs.back().submit_time = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(jobs, jobs.back().id);
  jobs.back().submit_time = std::numeric_limits<double>::infinity();
  expect_rejected(jobs, jobs.back().id);
}

TEST_F(SimulatorTest, RejectsNonPositiveOrNonFiniteExecSeconds) {
  for (const double bad : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto jobs = twenty_jobs();
    jobs[3].exec_seconds = bad;
    expect_rejected(jobs, jobs[3].id);
  }
}

TEST_F(SimulatorTest, RejectsNegativeOrNonFinitePowerAndPackage) {
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto jobs = twenty_jobs();
    jobs[5].avg_power_watts = bad;
    expect_rejected(jobs, jobs[5].id);
    jobs = twenty_jobs();
    jobs[6].package_bytes = bad;
    expect_rejected(jobs, jobs[6].id);
  }
}

TEST_F(SimulatorTest, RejectsHomeRegionOutOfRange) {
  for (const int bad : {-1, env_.num_regions()}) {
    auto jobs = twenty_jobs();
    jobs[7].home_region = bad;
    expect_rejected(jobs, jobs[7].id);
  }
}

TEST_F(SimulatorTest, RejectsUnknownBenchmark) {
  auto jobs = twenty_jobs();
  jobs[8].benchmark = -1;
  expect_rejected(jobs, jobs[8].id);
}

TEST_F(SimulatorTest, RejectsDuplicateJobIds) {
  auto jobs = twenty_jobs();
  jobs[12].id = jobs[4].id;
  expect_rejected(jobs, jobs[4].id);
}

TEST_F(SimulatorTest, AcceptsUniqueIdsInAnyOrder) {
  // Ids need not follow the submit order; each job still runs once.
  auto jobs = twenty_jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].id = 1000 - 3 * static_cast<std::uint64_t>(i);
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  EXPECT_EQ(sim.run(jobs, baseline).num_jobs, static_cast<long>(jobs.size()));
}

/// Places every job at home, except that in its first window it places
/// only the first job and, in hostile mode, also returns one decision the
/// simulator must skip for each rejection rule: among them one for job
/// `late_id`, which has not arrived yet, and in the second window one for
/// the job placed in the first.  Records every batch.
class FilterProbe final : public Scheduler {
 public:
  FilterProbe(bool hostile, std::uint64_t late_id)
      : hostile_(hostile), late_id_(late_id) {}

  [[nodiscard]] std::string name() const override { return "FilterProbe"; }

  [[nodiscard]] std::vector<Decision> schedule(
      const std::vector<PendingJob>& batch,
      const ScheduleContext& ctx) override {
    std::vector<std::uint64_t> ids;
    ids.reserve(batch.size());
    for (const PendingJob& p : batch) ids.push_back(p.job->id);
    batches.push_back(ids);
    std::vector<Decision> out;
    out.reserve(batch.size() + 12);
    if (batches.size() > 1) {
      if (hostile_ && batches.size() == 2) {
        // Stale: this job was placed in the first window.
        out.push_back(Decision{batches[0][0], 0, ctx.now, 1.0});
      }
      for (const PendingJob& p : batch)
        out.push_back(Decision{p.job->id, p.job->home_region, ctx.now, 1.0});
      return out;
    }
    const auto home = [&](std::size_t i) {
      return Decision{ids[i], batch[i].job->home_region, ctx.now, 1.0};
    };
    out.push_back(home(0));
    if (!hostile_) return out;
    out.push_back(home(0));  // duplicate of an applied decision
    Decision unknown = home(1);
    unknown.job_id = 999999;  // no such job
    out.push_back(unknown);
    Decision not_arrived = home(1);
    not_arrived.job_id = late_id_;  // a real job, submitted later
    out.push_back(not_arrived);
    Decision bad_region = home(1);
    bad_region.region = ctx.capacity->num_regions();
    out.push_back(bad_region);
    Decision negative_region = home(1);
    negative_region.region = -1;
    out.push_back(negative_region);
    Decision too_early = home(2);  // remote, but starts before the transfer
    too_early.region = (batch[2].job->home_region + 1) %
                       ctx.capacity->num_regions();
    out.push_back(too_early);
    Decision zero_power = home(3);
    zero_power.power_scale = 0.0;
    out.push_back(zero_power);
    Decision over_power = home(4);
    over_power.power_scale = 1.5;
    out.push_back(over_power);
    // Starts that pass no "too early" test: NaN compares false, and +inf
    // and a start so late that start + duration == start leave the run
    // [start, end) empty.
    Decision nan_start = home(5);
    nan_start.start_time = std::numeric_limits<double>::quiet_NaN();
    out.push_back(nan_start);
    Decision inf_start = home(6);
    inf_start.start_time = std::numeric_limits<double>::infinity();
    out.push_back(inf_start);
    Decision empty_run = home(7);
    empty_run.start_time = 1e300;
    out.push_back(empty_run);
    return out;
  }

  std::vector<std::vector<std::uint64_t>> batches;

 private:
  bool hostile_;
  std::uint64_t late_id_;
};

TEST_F(SimulatorTest, ApplySkipsInvalidDecisionsAndKeepsPendingOrder) {
  // Eight jobs arrive together, so the first window holds all of them; a
  // ninth arrives long after the second window.
  std::vector<trace::Job> jobs(9);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = 100 + 7 * i;
    jobs[i].home_region = static_cast<int>(i % 3);
    jobs[i].exec_seconds = 120.0 + 10.0 * static_cast<double>(i);
    jobs[i].avg_power_watts = 150.0;
    jobs[i].package_bytes = 5e8;
  }
  jobs.back().submit_time = 1000.0;
  ASSERT_GT(env_.transfer_latency_seconds(jobs[2].home_region,
                                          jobs[2].home_region + 1,
                                          jobs[2].package_bytes),
            1e-3);
  SimConfig cfg;
  cfg.record_jobs = true;
  Simulator sim(env_, fp_, cfg);
  FilterProbe clean(false, jobs.back().id);
  FilterProbe hostile(true, jobs.back().id);
  const CampaignResult want = sim.run(jobs, clean);
  const CampaignResult got = sim.run(jobs, hostile);

  // Every skipped decision leaves its job pending: the second batch is the
  // first minus the one applied job, in the original order.  The late job
  // is decided only once it has arrived, alone in the third batch.
  ASSERT_EQ(hostile.batches.size(), 3u);
  std::vector<std::uint64_t> rest(hostile.batches[0].begin() + 1,
                                  hostile.batches[0].end());
  EXPECT_EQ(hostile.batches[0].size(), jobs.size() - 1);
  EXPECT_EQ(hostile.batches[1], rest);
  EXPECT_EQ(hostile.batches[2], std::vector<std::uint64_t>{jobs.back().id});
  EXPECT_EQ(hostile.batches, clean.batches);

  // Otherwise the run is the clean run, job for job.
  EXPECT_EQ(got.num_jobs, static_cast<long>(jobs.size()));
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t i = 0; i < got.jobs.size(); ++i) {
    const JobOutcome& g = got.jobs[i];
    const JobOutcome& w = want.jobs[i];
    EXPECT_EQ(g.job_id, w.job_id);
    EXPECT_EQ(g.exec_region, w.exec_region);
    EXPECT_EQ(g.start_time, w.start_time);
    EXPECT_EQ(g.finish_time, w.finish_time);
    EXPECT_EQ(g.exec_seconds, w.exec_seconds);
    EXPECT_EQ(g.carbon_g, w.carbon_g);
    EXPECT_EQ(g.water_l, w.water_l);
  }
  EXPECT_EQ(got.jobs.back().job_id, jobs.back().id);
  EXPECT_GE(got.jobs.back().start_time, jobs.back().submit_time);
  EXPECT_EQ(got.total_carbon_g, want.total_carbon_g);
  EXPECT_EQ(got.total_water_l, want.total_water_l);

  // The service metrics count what the simulator admitted, not what the
  // scheduler returned: one time-to-admission sample per placed job and
  // one queue depth per window, so the hostile run's refused decisions
  // leave both histograms as the clean run has them.
  for (const CampaignResult* res : {&want, &got}) {
    const util::Histogram* admission =
        res->service.find_hist("service.time_to_admission_s");
    const util::Histogram* depth =
        res->service.find_hist("service.queue_depth");
    ASSERT_NE(admission, nullptr);
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(admission->total(), static_cast<std::size_t>(res->num_jobs));
    EXPECT_EQ(depth->total(), hostile.batches.size());
    EXPECT_EQ(depth->total(), res->overhead_series.size());
  }
  EXPECT_EQ(got.service.to_json(), want.service.to_json());
}

TEST_F(SimulatorTest, EmptyTrace) {
  Simulator sim(env_, fp_, SimConfig{});
  sched::BaselineScheduler baseline;
  const CampaignResult res = sim.run({}, baseline);
  EXPECT_EQ(res.num_jobs, 0);
  EXPECT_DOUBLE_EQ(res.total_carbon_g, 0.0);
}

TEST_F(SimulatorTest, ConfigValidation) {
  SimConfig bad;
  bad.batch_window_s = 0.0;
  EXPECT_THROW(Simulator(env_, fp_, bad), std::invalid_argument);
  // Batch ticks are at least 2 s apart, so a shorter window is rejected.
  SimConfig short_window;
  short_window.batch_window_s = 1.0;
  EXPECT_THROW(Simulator(env_, fp_, short_window), std::invalid_argument);
  SimConfig neg;
  neg.tol = -0.5;
  EXPECT_THROW(Simulator(env_, fp_, neg), std::invalid_argument);
}

TEST_F(SimulatorTest, CapacityScaleChangesServerCounts) {
  SimConfig cfg;
  cfg.capacity_scale = 3.0;
  const Simulator sim(env_, fp_, cfg);
  for (const int c : sim.region_capacities()) EXPECT_EQ(c, 105);
  SimConfig tiny;
  tiny.capacity_scale = 0.001;
  const Simulator sim2(env_, fp_, tiny);
  for (const int c : sim2.region_capacities()) EXPECT_EQ(c, 1);  // floor of 1
}

TEST(CampaignResult, SavingsMath) {
  CampaignResult base;
  base.total_carbon_g = 200.0;
  base.total_water_l = 100.0;
  CampaignResult better;
  better.total_carbon_g = 150.0;
  better.total_water_l = 90.0;
  EXPECT_NEAR(better.carbon_saving_pct_vs(base), 25.0, 1e-12);
  EXPECT_NEAR(better.water_saving_pct_vs(base), 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(base.carbon_saving_pct_vs(base), 0.0);
}

TEST(CampaignResult, RegionSharePct) {
  CampaignResult r;
  r.num_jobs = 10;
  r.jobs_per_region = {5, 3, 2};
  const auto shares = r.region_share_pct();
  EXPECT_DOUBLE_EQ(shares[0], 50.0);
  EXPECT_DOUBLE_EQ(shares[2], 20.0);
}

}  // namespace
}  // namespace ww::dc
