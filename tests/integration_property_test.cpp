// Parameterized cross-scheduler invariants: for every (scheduler, tolerance)
// combination, the simulator must conserve jobs, respect capacity, keep
// service >= execution, and reproduce results bit-for-bit.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "sched/ecovisor.hpp"
#include "sched/greedy_opt.hpp"
#include "trace/generator.hpp"

namespace ww {
namespace {

using SchedulerFactory = std::function<std::unique_ptr<dc::Scheduler>()>;

struct Combo {
  std::string label;
  SchedulerFactory make;
  double tol;
};

/// gtest shows the parameter beside each test name (and so in the ctest
/// name): the label, rather than a byte dump that holds heap addresses.
void PrintTo(const Combo& combo, std::ostream* os) { *os << combo.label; }

std::vector<Combo> combos() {
  std::vector<Combo> out;
  const std::vector<std::pair<std::string, SchedulerFactory>> factories = {
      {"baseline", [] { return std::make_unique<sched::BaselineScheduler>(); }},
      {"round-robin",
       [] { return std::make_unique<sched::RoundRobinScheduler>(); }},
      {"least-load",
       [] { return std::make_unique<sched::LeastLoadScheduler>(); }},
      {"ecovisor", [] { return std::make_unique<sched::EcovisorScheduler>(); }},
      {"carbon-greedy",
       [] {
         return std::make_unique<sched::GreedyOptScheduler>(
             sched::GreedyMetric::Carbon);
       }},
      {"water-greedy",
       [] {
         return std::make_unique<sched::GreedyOptScheduler>(
             sched::GreedyMetric::Water);
       }},
      {"waterwise", [] { return std::make_unique<core::WaterWiseScheduler>(); }},
  };
  for (const auto& [name, make] : factories)
    for (const double tol : {0.25, 1.0})
      out.push_back(Combo{name + "/tol" + std::to_string(static_cast<int>(tol * 100)),
                          make, tol});
  return out;
}

class SchedulerInvariants : public ::testing::TestWithParam<Combo> {
 protected:
  static env::EnvironmentConfig small_env() {
    env::EnvironmentConfig cfg;
    cfg.horizon_days = 4;
    return cfg;
  }
};

TEST_P(SchedulerInvariants, ConservationCapacityServiceDeterminism) {
  const Combo& combo = GetParam();
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);
  const auto jobs = trace::generate_trace(trace::borg_config(99, 0.06));

  dc::SimConfig cfg;
  cfg.tol = combo.tol;
  cfg.record_jobs = true;
  cfg.capacity_scale = 0.2;  // some pressure so capacity logic is exercised
  dc::Simulator sim(env, fp, cfg);

  auto s1 = combo.make();
  const auto r1 = sim.run(jobs, *s1);

  // (1) Conservation: every job executed exactly once.
  ASSERT_EQ(r1.num_jobs, static_cast<long>(jobs.size()));
  ASSERT_EQ(r1.jobs.size(), jobs.size());
  std::vector<bool> seen(jobs.size(), false);
  for (const auto& o : r1.jobs) {
    ASSERT_LT(o.job_id, jobs.size());
    EXPECT_FALSE(seen[static_cast<std::size_t>(o.job_id)]);
    seen[static_cast<std::size_t>(o.job_id)] = true;
  }

  // (2) Capacity: event-sweep max concurrency per region bounded by the
  // server count.
  const auto caps = sim.region_capacities();
  for (int r = 0; r < env.num_regions(); ++r) {
    std::vector<std::pair<double, int>> events;
    for (const auto& o : r1.jobs) {
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
    EXPECT_LE(peak, caps[static_cast<std::size_t>(r)])
        << combo.label << " region " << r;
  }

  // (3) Service sanity: start after submit, finish after start, duration at
  // least the true execution time (power scaling only stretches).
  for (const auto& o : r1.jobs) {
    EXPECT_GE(o.start_time, o.submit_time - 1e-9);
    const auto& j = jobs[static_cast<std::size_t>(o.job_id)];
    EXPECT_GE(o.exec_seconds, j.exec_seconds * 0.999);
    EXPECT_NEAR(o.finish_time, o.start_time + o.exec_seconds, 1e-6);
    EXPECT_GT(o.carbon_g, 0.0);
    EXPECT_GT(o.water_l, 0.0);
  }

  // (4) Determinism: a fresh scheduler instance reproduces everything.
  auto s2 = combo.make();
  const auto r2 = sim.run(jobs, *s2);
  EXPECT_DOUBLE_EQ(r1.total_carbon_g, r2.total_carbon_g) << combo.label;
  EXPECT_DOUBLE_EQ(r1.total_water_l, r2.total_water_l) << combo.label;
  EXPECT_EQ(r1.violations, r2.violations) << combo.label;
  EXPECT_EQ(r1.jobs_per_region, r2.jobs_per_region) << combo.label;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerInvariants,
                         ::testing::ValuesIn(combos()),
                         [](const ::testing::TestParamInfo<Combo>& param) {
                           std::string name = param.param.label;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

}  // namespace
}  // namespace ww
