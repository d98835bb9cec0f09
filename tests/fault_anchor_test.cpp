// Absolute anchor for fault mode: 64-bit FNV-1a hashes of the decision
// streams and aggregates of one short Borg campaign under a fault schedule
// that holds each of the four fault kinds (an outage, a capacity flap, a
// forecast bias and a water-scarcity shock).  The thread-count and
// fault-rate checks elsewhere compare one mode against another, so a change
// that moves every mode the same way passes them; this pin does not.
//
// The WaterWise config sets its injected solve-failure rate and seed, so the
// WW_FAULT_SOLVES switch cannot move the pin, and the WW_SCHED_THREADS
// switch must not.  A change that moves a fault-mode decision on purpose
// re-pins here, in the same commit, and says why.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "env/faults.hpp"
#include "sched/basic.hpp"
#include "sched/ecovisor.hpp"
#include "sched/greedy_opt.hpp"
#include "trace/generator.hpp"

namespace ww {
namespace {

class Fnv1a {
 public:
  Fnv1a& add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Fnv1a& add(long v) { return add(static_cast<std::uint64_t>(v)); }
  Fnv1a& add(int v) { return add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Two hours of Borg arrivals floored to 5-minute bursts, so windows hold
/// many jobs and the outage and flap force placements away from home.
std::vector<trace::Job> storm_trace() {
  std::vector<trace::Job> jobs =
      trace::generate_trace(trace::borg_config(11, 2.0 / 24.0));
  for (trace::Job& j : jobs)
    j.submit_time = std::floor(j.submit_time / 300.0) * 300.0;
  return jobs;
}

env::FaultSchedule storm_schedule() {
  env::FaultSchedule faults(5);
  faults.add_outage(0, 1200.0, 4800.0);
  faults.add_capacity_flap(2, 600.0, 6000.0, 0.4);
  faults.add_forecast_bias(1, 0.0, 5400.0, 0.5, 1.8);
  faults.add_water_shock(4, 1800.0, 7200.0, 1.2);
  return faults;
}

struct Outcome {
  std::uint64_t stream = 0;  ///< Per job: id, region, start and finish bits.
  std::uint64_t totals = 0;  ///< Carbon and water bits, violations, counters.
};

Outcome run_storm(dc::Scheduler& scheduler, const core::WaterWiseScheduler* ww,
                  const std::vector<trace::Job>& jobs,
                  const env::FaultSchedule& faults) {
  env::EnvironmentConfig env_cfg;
  env_cfg.horizon_days = 2;
  const env::Environment env = env::Environment::builtin(env_cfg);
  const footprint::FootprintModel fp(env);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  sim_cfg.record_jobs = true;
  dc::Simulator sim(env, fp, sim_cfg);
  sim.set_fault_injection(&faults);
  const dc::CampaignResult res = sim.run(jobs, scheduler);
  EXPECT_EQ(res.num_jobs, static_cast<long>(jobs.size()))
      << scheduler.name();

  Fnv1a stream;
  for (const dc::JobOutcome& o : res.jobs)
    stream.add(o.job_id).add(o.exec_region).add(o.start_time).add(
        o.finish_time);
  Fnv1a totals;
  totals.add(res.total_carbon_g).add(res.total_water_l).add(res.violations);
  if (ww != nullptr) {
    const core::SchedulerStats s = ww->stats();
    totals.add(s.fault_events).add(s.degraded_windows).add(s.solve_retries);
    totals.add(s.fallback_placements).add(s.deferred_jobs);
  }
  return {stream.value(), totals.value()};
}

TEST(FaultAnchor, MixedStormCampaignsPinned) {
  const std::vector<trace::Job> jobs = storm_trace();
  const env::FaultSchedule faults = storm_schedule();
  ASSERT_EQ(jobs.size(), 1839u);

  sched::BaselineScheduler baseline;
  sched::EcovisorScheduler ecovisor;
  sched::GreedyOptScheduler carbon(sched::GreedyMetric::Carbon);
  core::WaterWiseConfig ww_cfg;
  ww_cfg.solve_failure_rate = 0.2;
  ww_cfg.fault_seed = 0x5354524dULL;
  core::WaterWiseScheduler waterwise(ww_cfg);

  struct Pin {
    dc::Scheduler* scheduler;
    const core::WaterWiseScheduler* ww;
    std::uint64_t stream;
    std::uint64_t totals;
  };
  const Pin pins[] = {
      {&baseline, nullptr, 0x6707588d6d2e25c2ULL, 0xcde3225878383b19ULL},
      {&ecovisor, nullptr, 0x7de26aa852b91064ULL, 0x16b6317a6950c263ULL},
      {&carbon, nullptr, 0x633e562178b6b2f7ULL, 0x9c5a2db0c38706deULL},
      {&waterwise, &waterwise, 0xe35eb239c7ebd5d3ULL,
       0xb53179e5173ba861ULL},
  };
  for (const Pin& pin : pins) {
    const Outcome got = run_storm(*pin.scheduler, pin.ww, jobs, faults);
    EXPECT_EQ(got.stream, pin.stream)
        << pin.scheduler->name() << " stream: 0x" << std::hex << got.stream;
    EXPECT_EQ(got.totals, pin.totals)
        << pin.scheduler->name() << " totals: 0x" << std::hex << got.totals;
  }
}

}  // namespace
}  // namespace ww
