#include <gtest/gtest.h>

#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "trace/generator.hpp"

namespace ww::sched {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 5;
  return cfg;
}

/// Hand-built capacity view for direct scheduler unit tests.
class FakeCapacity final : public dc::CapacityView {
 public:
  explicit FakeCapacity(std::vector<int> free) : free_(std::move(free)) {}
  [[nodiscard]] int num_regions() const override {
    return static_cast<int>(free_.size());
  }
  [[nodiscard]] int capacity(int r) const override {
    return free_[static_cast<std::size_t>(r)] + 100;
  }
  [[nodiscard]] int free_at(int r, double) const override {
    return free_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int max_occupancy(int r, double, double) const override {
    return capacity(r) - free_[static_cast<std::size_t>(r)];
  }

 private:
  std::vector<int> free_;
};

struct Fixture {
  env::Environment env = env::Environment::builtin(small_env());
  footprint::FootprintModel fp{env};
  std::vector<trace::Job> jobs;
  std::vector<dc::PendingJob> batch;

  explicit Fixture(int njobs, int home = 2) {
    for (int i = 0; i < njobs; ++i) {
      trace::Job j;
      j.id = static_cast<std::uint64_t>(i);
      j.home_region = home;
      j.exec_seconds = 100.0;
      j.avg_power_watts = 300.0;
      j.package_bytes = 2e8;
      jobs.push_back(j);
    }
    for (const auto& j : jobs)
      batch.push_back(dc::PendingJob{&j, 0.0, 100.0, j.energy_kwh()});
  }

  dc::ScheduleContext ctx(const dc::CapacityView* cap, double tol = 0.25) {
    dc::ScheduleContext c;
    c.now = 0.0;
    c.tol = tol;
    c.footprint = &fp;
    c.capacity = cap;
    return c;
  }
};

TEST(Baseline, SchedulesHomeImmediately) {
  Fixture f(3, /*home=*/1);
  const FakeCapacity cap({5, 5, 5, 5, 5});
  BaselineScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  ASSERT_EQ(decisions.size(), 3u);
  for (const auto& d : decisions) {
    EXPECT_EQ(d.region, 1);
    EXPECT_DOUBLE_EQ(d.start_time, 0.0);
    EXPECT_DOUBLE_EQ(d.power_scale, 1.0);
  }
}

TEST(Baseline, DefersWhenHomeFull) {
  Fixture f(4, /*home=*/0);
  const FakeCapacity cap({2, 5, 5, 5, 5});
  BaselineScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  EXPECT_EQ(decisions.size(), 2u);  // only two home slots free
}

TEST(RoundRobin, CyclesRegions) {
  Fixture f(5);
  const FakeCapacity cap({5, 5, 5, 5, 5});
  RoundRobinScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  ASSERT_EQ(decisions.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(decisions[i].region, static_cast<int>(i));
}

TEST(RoundRobin, SkipsFullRegions) {
  Fixture f(3);
  const FakeCapacity cap({0, 5, 0, 5, 5});
  RoundRobinScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].region, 1);
  EXPECT_EQ(decisions[1].region, 3);
  EXPECT_EQ(decisions[2].region, 4);
}

TEST(RoundRobin, CursorPersistsAcrossBatches) {
  Fixture f(2);
  const FakeCapacity cap({5, 5, 5, 5, 5});
  RoundRobinScheduler s;
  auto ctx = f.ctx(&cap);
  const auto first = s.schedule(f.batch, ctx);
  ASSERT_EQ(first.size(), 2u);
  const auto second = s.schedule(f.batch, ctx);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].region, 2);  // continues after regions 0,1
}

TEST(RoundRobin, RemotePlacementAccountsTransfer) {
  Fixture f(1, /*home=*/0);
  const FakeCapacity cap({0, 5, 5, 5, 5});
  RoundRobinScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_GT(decisions[0].start_time, 0.0);  // transfer latency pushed start
}

TEST(LeastLoad, PicksEmptiestRegion) {
  Fixture f(1);
  const FakeCapacity cap({1, 7, 3, 2, 0});
  LeastLoadScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].region, 1);
}

TEST(LeastLoad, SpreadsAcrossBatch) {
  Fixture f(4);
  const FakeCapacity cap({2, 2, 1, 1, 1});
  LeastLoadScheduler s;
  const auto decisions = s.schedule(f.batch, f.ctx(&cap));
  ASSERT_EQ(decisions.size(), 4u);
  // First two go to the two size-2 regions, then the remaining spread.
  std::vector<int> counts(5, 0);
  for (const auto& d : decisions) ++counts[static_cast<std::size_t>(d.region)];
  EXPECT_LE(*std::max_element(counts.begin(), counts.end()), 2);
}

TEST(LeastLoad, DefersWhenEverythingFull) {
  Fixture f(2);
  const FakeCapacity cap({0, 0, 0, 0, 0});
  LeastLoadScheduler s;
  EXPECT_TRUE(s.schedule(f.batch, f.ctx(&cap)).empty());
}

TEST(LoadBalancers, EndToEndBeatNothingButComplete) {
  // Integration sanity: RR and LL complete a real campaign.
  const auto jobs = trace::generate_trace(trace::borg_config(3, 0.1));
  env::Environment env = env::Environment::builtin(small_env());
  footprint::FootprintModel fp(env);
  dc::Simulator sim(env, fp, dc::SimConfig{});
  RoundRobinScheduler rr;
  LeastLoadScheduler ll;
  const auto r1 = sim.run(jobs, rr);
  const auto r2 = sim.run(jobs, ll);
  EXPECT_EQ(r1.num_jobs, static_cast<long>(jobs.size()));
  EXPECT_EQ(r2.num_jobs, static_cast<long>(jobs.size()));
  // Both spread work across all five regions.
  for (const long c : r1.jobs_per_region) EXPECT_GT(c, 0);
  for (const long c : r2.jobs_per_region) EXPECT_GT(c, 0);
}

}  // namespace
}  // namespace ww::sched
