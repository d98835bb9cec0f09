// Fault storms: robustness campaigns that exercise the fault-injection
// subsystem (env/faults.hpp) and the scheduler's graceful-degradation
// machinery (core/waterwise.hpp: retry ladder + per-region state machine)
// end to end.  Each storm is one generated-or-manual FaultSchedule; every
// (storm, policy) pair is an independent CampaignRunner scenario.
//
// The driver doubles as a self-check (CI runs it): it exits nonzero when a
// storm drops a job (every trace job must be placed exactly once), when the
// outage storm fails to trip the degraded-mode state machine, when the
// solver-fault storm fails to exercise the retry ladder, when the total
// blackout produces no explicit deferrals, or when the fault-injected
// thread-count sweep diverges from the serial decision stream.
#include <cstdlib>
#include <optional>

#include "common.hpp"

namespace {

/// Exits nonzero with a message when a storm invariant fails.
void require(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "self-check FAILED: " << what << "\n";
  std::exit(1);
}

}  // namespace

int main() {
  using namespace ww;
  bench::banner("Fault storms & graceful degradation",
                "ROADMAP item: robustness (Sec. 6 extension)");

  const double days = bench::campaign_days();
  const double horizon = days * 86400.0;
  const auto jobs = trace::generate_trace(trace::borg_config(7, days));

  // --- Storm schedules ------------------------------------------------------
  // Generated storms get one manual anchor window each, so every invariant
  // below holds at any WW_BENCH_SCALE (a short campaign might otherwise
  // draw zero windows from the Poisson streams).
  env::FaultScheduleConfig outage_cfg;
  outage_cfg.seed = 801;
  outage_cfg.horizon_seconds = horizon;
  outage_cfg.outages_per_region_day = 6.0;
  env::FaultSchedule outage_storm(outage_cfg);
  outage_storm.add_outage(0, 0.20 * horizon, 0.20 * horizon + 900.0);

  env::FaultScheduleConfig flap_cfg;
  flap_cfg.seed = 802;
  flap_cfg.horizon_seconds = horizon;
  flap_cfg.flaps_per_region_day = 12.0;
  env::FaultSchedule flap_storm(flap_cfg);
  flap_storm.add_capacity_flap(1, 0.30 * horizon, 0.30 * horizon + 600.0, 0.5);

  env::FaultScheduleConfig bias_cfg;
  bias_cfg.seed = 803;
  bias_cfg.horizon_seconds = horizon;
  bias_cfg.bias_windows_per_region_day = 4.0;
  env::FaultSchedule bias_storm(bias_cfg);
  bias_storm.add_forecast_bias(2, 0.40 * horizon, 0.40 * horizon + 3600.0,
                               2.0, 1.5);

  env::FaultScheduleConfig shock_cfg;
  shock_cfg.seed = 804;
  shock_cfg.horizon_seconds = horizon;
  shock_cfg.shocks_per_region_day = 3.0;
  env::FaultSchedule shock_storm(shock_cfg);
  shock_storm.add_water_shock(3, 0.50 * horizon, 0.50 * horizon + 7200.0, 1.0);

  // Total blackout: every region out for the same 30 minutes mid-campaign.
  // Jobs pending through the window must defer explicitly and place after.
  env::FaultSchedule blackout(5);
  const double bo_start = 0.25 * horizon;
  const double bo_end = bo_start + std::min(1800.0, 0.25 * horizon);
  for (int r = 0; r < 5; ++r) blackout.add_outage(r, bo_start, bo_end);

  // Solver-fault storm: no environment faults at all — every perturbation
  // is an injected solve failure driving the retry ladder.
  core::WaterWiseConfig solver_fault_cfg;
  solver_fault_cfg.solve_failure_rate = 0.5;
  solver_fault_cfg.fault_seed = 805;

  struct Storm {
    std::string label;
    bench::CampaignSpec spec;
    core::WaterWiseConfig cfg;
  };
  std::vector<Storm> storms;
  {
    bench::CampaignSpec base;
    base.tol = 0.5;

    Storm outage{"Region outages", base, {}};
    outage.spec.faults = &outage_storm;
    storms.push_back(outage);

    Storm flap{"Capacity flaps", base, {}};
    flap.spec.faults = &flap_storm;
    storms.push_back(flap);

    Storm bias{"Forecast bias", base, {}};
    bias.spec.faults = &bias_storm;
    storms.push_back(bias);

    Storm shock{"Water-scarcity shocks", base, {}};
    shock.spec.faults = &shock_storm;
    storms.push_back(shock);

    Storm bo{"Total blackout (30 min)", base, {}};
    bo.spec.faults = &blackout;
    storms.push_back(bo);

    Storm sf{"Injected solve failures (50%)", base, solver_fault_cfg};
    storms.push_back(sf);
  }

  // --- Campaign -------------------------------------------------------------
  std::vector<core::SchedulerStats> ww_stats(storms.size());
  dc::CampaignRunner runner(bench::campaign_config());
  for (std::size_t i = 0; i < storms.size(); ++i) {
    runner.add_baseline(storms[i].label, "Baseline",
                        [&storms, &jobs, i](dc::ScenarioContext&) {
                          return bench::run_policy(jobs,
                                                   bench::Policy::Baseline,
                                                   storms[i].spec);
                        });
    runner.add({storms[i].label, "WaterWise", false,
                [&storms, &jobs, &ww_stats, i](dc::ScenarioContext&) {
                  core::WaterWiseScheduler ww(storms[i].cfg);
                  auto res = bench::run_campaign(jobs, ww, storms[i].spec);
                  ww_stats[i] = ww.stats();
                  return res;
                }});
  }
  const auto outcomes = bench::run_and_time(runner);

  dc::CampaignRunner::aggregate(outcomes).print(std::cout);
  std::cout << "\n";
  for (std::size_t i = 0; i < storms.size(); ++i)
    bench::print_degradation_counters(storms[i].label, ww_stats[i]);
  std::cout << "\n";
  // Outcomes follow add() order: each storm's Baseline, then its WaterWise.
  for (std::size_t i = 0; i < storms.size(); ++i)
    bench::print_service_metrics(storms[i].label, outcomes[2 * i + 1].result);

  // --- Self-checks ----------------------------------------------------------
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    require(outcomes[i].result.num_jobs == static_cast<long>(jobs.size()),
            outcomes[i].group + " / " + outcomes[i].label + " placed " +
                std::to_string(outcomes[i].result.num_jobs) + " of " +
                std::to_string(jobs.size()) +
                " jobs (silent drop or stall)");
  require(ww_stats[0].fault_events > 0,
          "outage storm raised no fault events");
  require(ww_stats[0].degraded_windows > 0,
          "outage storm never entered degraded mode");
  require(ww_stats[5].fault_events > 0,
          "solver-fault storm injected no failures");
  require(ww_stats[5].solve_retries > 0,
          "solver-fault storm never exercised the retry ladder");
  require(ww_stats[4].deferred_jobs > 0,
          "total blackout produced no explicit deferrals");

  // Byte-identity under faults: the outage storm re-run across solver
  // thread counts (with injected solve failures layered on top) must
  // reproduce the serial decision stream exactly.
  core::WaterWiseConfig eq_cfg;
  eq_cfg.solve_failure_rate = 0.35;
  eq_cfg.fault_seed = 806;
  bench::CampaignSpec eq_spec = storms[0].spec;
  if (!bench::check_chunk_parallel_equivalence(jobs, eq_spec, eq_cfg))
    return 1;

  // Scenarios × chunks under faults: a one-burst campaign (injected solve
  // failures layered on the outage storm) re-run at the four
  // (campaign jobs, solver_threads) corners of the unified work-stealing
  // pool.  The corners vary the *fan-out shape* — which layers spawn tasks
  // versus run inline — not the worker count (the global pool never
  // shrinks, so every non-inline corner runs on the same worker set).
  // Merged aggregates must stay byte-identical — stealing must stay
  // invisible even when the retry-then-degrade ladder reshuffles work.
  {
    auto burst = trace::generate_trace(trace::borg_config(11, 0.04));
    for (auto& j : burst) j.submit_time = 0.0;  // one burst => multi-chunk
    core::WaterWiseConfig storm_cfg = eq_cfg;
    storm_cfg.max_jobs_per_solve = 25;
    const double tols[] = {0.25, 0.5, 1.0};
    struct Corner {
      std::size_t jobs;
      int threads;
    };
    const Corner corners[] = {{1, 1}, {3, 1}, {1, 4}, {3, 4}};
    std::optional<dc::CampaignResult> ref;
    for (const auto& corner : corners) {
      dc::CampaignConfig sweep_cfg;
      sweep_cfg.jobs = corner.jobs;
      dc::CampaignRunner sweep(sweep_cfg);
      core::WaterWiseConfig cw = storm_cfg;
      cw.solver_threads = corner.threads;
      for (const double tol : tols)
        sweep.add("tol=" + util::Table::fixed(tol, 2),
                  [&, tol](dc::ScenarioContext&) {
                    bench::CampaignSpec spec = eq_spec;
                    spec.tol = tol;
                    return bench::run_policy(burst, bench::Policy::WaterWise,
                                             spec, cw);
                  });
      const util::WorkStealingPool& pool = util::WorkStealingPool::global();
      const std::uint64_t stolen_before = pool.tasks_stolen();
      const auto sweep_outcomes = sweep.run_all();
      const dc::CampaignResult total =
          dc::CampaignRunner::merged_totals(sweep_outcomes);
      std::cout << "[fan-out] fault storm, "
                << (corner.jobs > 1 ? "scenarios spawned" : "scenarios inline")
                << " x "
                << (corner.threads > 1 ? "chunks spawned" : "chunks inline")
                << " (jobs=" << corner.jobs << ", threads=" << corner.threads
                << "): " << (pool.tasks_stolen() - stolen_before)
                << " task(s) stolen on " << pool.size() << " worker(s)\n";
      if (!ref) {
        ref = total;
        continue;
      }
      require(total.num_jobs == ref->num_jobs &&
                  total.total_carbon_g == ref->total_carbon_g &&
                  total.total_water_l == ref->total_water_l &&
                  total.total_cost_usd == ref->total_cost_usd &&
                  total.violations == ref->violations,
              "fault-storm scenarios x chunks fan-out shape diverged from "
              "the serial aggregate");
    }
    std::cout << "[fan-out] fault-injected campaign byte-identical at all "
                 "four (jobs x solver_threads) fan-out shapes\n";
  }
  bench::print_pool_counters("fault storms");

  std::cout << "\nAll fault-storm invariants hold: every job placed exactly\n"
               "once, degradation counters reconcile, and fault-injected\n"
               "campaigns are byte-identical across solver thread counts.\n";
  return 0;
}
