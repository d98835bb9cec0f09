#include "common.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace ww::bench {

namespace {

/// A malformed bench knob is a usage error: the bench names the variable
/// and the value on stderr and exits with status 2.
[[noreturn]] void bad_knob(const std::invalid_argument& e) {
  std::cerr << "error: " << e.what() << "\n";
  std::exit(2);
}

}  // namespace

double scale() {
  try {
    return util::env_double("WW_BENCH_SCALE", 0.02, 20.0).value_or(1.0);
  } catch (const std::invalid_argument& e) {
    bad_knob(e);
  }
}

double campaign_days() { return 1.0 * scale(); }

std::size_t bench_jobs() {
  try {
    // Unset means 0, i.e. all cores.
    return static_cast<std::size_t>(
        util::env_long("WW_BENCH_JOBS", 0, 1024).value_or(0));
  } catch (const std::invalid_argument& e) {
    bad_knob(e);
  }
}

dc::CampaignConfig campaign_config() {
  dc::CampaignConfig cfg;
  cfg.jobs = bench_jobs();
  return cfg;
}

std::vector<dc::ScenarioOutcome> run_and_time(dc::CampaignRunner& runner) {
  const std::size_t threads =
      util::WorkStealingPool::resolve_threads(runner.config().jobs);
  const util::Stopwatch watch;
  auto outcomes = runner.run_all();
  std::cout << "[campaign] " << outcomes.size() << " scenario(s) in "
            << util::Table::fixed(watch.elapsed_seconds(), 2) << " s on "
            << threads << " thread(s)\n";
  return outcomes;
}

void banner(const std::string& experiment, const std::string& paper_ref) {
  // Read every process knob before printing, so a malformed one stops the
  // bench before any output instead of aborting it mid-campaign.
  const double days = campaign_days();
  try {
    (void)core::default_solve_failure_rate();
    (void)core::WaterWiseScheduler().effective_solver_threads();
  } catch (const std::invalid_argument& e) {
    bad_knob(e);
  }
  std::cout << "==============================================================\n"
            << "WaterWise reproduction | " << experiment << "\n"
            << "Paper reference: " << paper_ref << "\n"
            << "Campaign: " << days
            << " simulated day(s) of Borg-rate arrivals (WW_BENCH_SCALE="
            << scale() << ")\n"
            << "==============================================================\n";
}

dc::CampaignResult run_campaign(const std::vector<trace::Job>& jobs,
                                dc::Scheduler& scheduler,
                                const CampaignSpec& spec) {
  env::Environment env = env::Environment::builtin(spec.env_config);
  const footprint::FootprintModel fp(env, footprint::ServerSpec{},
                                     spec.embodied_scale);
  dc::SimConfig sim = spec.sim;
  sim.tol = spec.tol;
  sim.capacity_scale = spec.capacity_scale;
  dc::Simulator simulator(env, fp, sim);
  // Fault campaign: the ledger environment carries the true World view
  // (scarcity shocks only); a second Controller-view pair feeds the
  // scheduler biased observations; the simulator gates admissions on the
  // schedule's effective capacities.
  std::optional<env::Environment> observed_env;
  std::optional<footprint::FootprintModel> observed_fp;
  if (spec.faults != nullptr) {
    env.attach_faults(spec.faults, env::FaultView::World);
    observed_env.emplace(env::Environment::builtin(spec.env_config));
    observed_env->attach_faults(spec.faults, env::FaultView::Controller);
    observed_fp.emplace(*observed_env, footprint::ServerSpec{},
                        spec.embodied_scale);
    simulator.set_fault_injection(spec.faults, &*observed_fp);
  }
  return simulator.run(jobs, scheduler);
}

std::unique_ptr<dc::Scheduler> make_scheduler(
    Policy policy, const core::WaterWiseConfig& ww_config) {
  switch (policy) {
    case Policy::Baseline:
      return std::make_unique<sched::BaselineScheduler>();
    case Policy::RoundRobin:
      return std::make_unique<sched::RoundRobinScheduler>();
    case Policy::LeastLoad:
      return std::make_unique<sched::LeastLoadScheduler>();
    case Policy::Ecovisor:
      return std::make_unique<sched::EcovisorScheduler>();
    case Policy::CarbonGreedyOpt:
      return std::make_unique<sched::GreedyOptScheduler>(
          sched::GreedyMetric::Carbon);
    case Policy::WaterGreedyOpt:
      return std::make_unique<sched::GreedyOptScheduler>(
          sched::GreedyMetric::Water);
    case Policy::WaterWise:
      return std::make_unique<core::WaterWiseScheduler>(ww_config);
  }
  return nullptr;
}

std::string policy_name(Policy policy) {
  return make_scheduler(policy)->name();
}

dc::CampaignResult run_policy(const std::vector<trace::Job>& jobs,
                              Policy policy, const CampaignSpec& spec,
                              const core::WaterWiseConfig& ww_config) {
  const auto scheduler = make_scheduler(policy, ww_config);
  return run_campaign(jobs, *scheduler, spec);
}

bool check_chunk_parallel_equivalence(const std::vector<trace::Job>& jobs,
                                      const CampaignSpec& spec,
                                      core::WaterWiseConfig ww_config) {
  // Force multi-chunk windows so the check exercises real fan-out even on
  // short traces, and record per-job outcomes for the stream comparison.
  ww_config.max_jobs_per_solve = std::min(ww_config.max_jobs_per_solve, 25);
  CampaignSpec rec_spec = spec;
  rec_spec.sim.record_jobs = true;

  std::optional<dc::CampaignResult> ref;
  long ref_chunks = 0;
  std::size_t ref_threads = 0;
  bool ok = true;
  for (const int threads : {1, 2, 4, 8}) {
    ww_config.solver_threads = threads;
    core::WaterWiseScheduler ww(ww_config);
    const dc::CampaignResult res = run_campaign(jobs, ww, rec_spec);
    if (!ref) {
      ref = res;
      ref_chunks = ww.stats().chunks_planned;
      ref_threads = ww.effective_solver_threads();
      continue;
    }
    bool same = res.num_jobs == ref->num_jobs &&
                res.total_carbon_g == ref->total_carbon_g &&
                res.total_water_l == ref->total_water_l &&
                res.violations == ref->violations &&
                res.jobs_per_region == ref->jobs_per_region &&
                res.makespan_seconds == ref->makespan_seconds &&
                res.jobs.size() == ref->jobs.size();
    if (same) {
      for (std::size_t i = 0; i < res.jobs.size(); ++i) {
        if (res.jobs[i].job_id != ref->jobs[i].job_id ||
            res.jobs[i].exec_region != ref->jobs[i].exec_region ||
            res.jobs[i].start_time != ref->jobs[i].start_time) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      std::cout << "[chunk-parallel] FAILED: solver_threads=" << threads
                << " diverged from the solver_threads=1 decision stream\n";
      ok = false;
    }
  }
  if (ok)
    std::cout << "[chunk-parallel] solver_threads {1, 2, 4, 8}: decision "
                 "stream and aggregates byte-identical ("
              << ref_chunks << " chunk plans; first run used " << ref_threads
              << " thread(s))\n";
  return ok;
}

void print_degradation_counters(const std::string& label,
                                const core::SchedulerStats& stats) {
  std::cout << "[degradation] " << label << ": fault_events="
            << stats.fault_events << " degraded_windows="
            << stats.degraded_windows << " solve_retries="
            << stats.solve_retries << " fallback_placements="
            << stats.fallback_placements << " deferred_jobs="
            << stats.deferred_jobs << "\n";
}

void print_service_metrics(const std::string& label,
                           const dc::CampaignResult& result) {
  const util::Histogram* depth =
      result.service.find_hist("service.queue_depth");
  const util::Histogram* adm =
      result.service.find_hist("service.time_to_admission_s");
  if (result.overhead_series.empty() || depth == nullptr || adm == nullptr) {
    std::cout << "[service] " << label << ": no service metrics recorded\n";
    return;
  }
  // A window takes microseconds, so the exact quantiles print in us: in ms
  // a 1-2 us window would show as 0.001.
  std::vector<double> latency;
  latency.reserve(result.overhead_series.size());
  for (const auto& [minute, seconds] : result.overhead_series)
    latency.push_back(seconds * 1e6);
  std::cout << "[service] " << label << ": decision latency p50/p95/p99 = "
            << util::Table::fixed(util::percentile(latency, 50.0), 2) << "/"
            << util::Table::fixed(util::percentile(latency, 95.0), 2) << "/"
            << util::Table::fixed(util::percentile(latency, 99.0), 2)
            << " us over " << latency.size() << " window(s)\n";
  std::cout << "[service] " << label << ": queue depth p50/p99 = "
            << util::Table::fixed(depth->quantile(0.50), 1) << "/"
            << util::Table::fixed(depth->quantile(0.99), 1)
            << " job(s); time-to-admission p50/p99 = "
            << util::Table::fixed(adm->quantile(0.50), 1) << "/"
            << util::Table::fixed(adm->quantile(0.99), 1) << " s over "
            << adm->total() << " placement(s)\n";
}

void print_pool_counters(const std::string& label) {
  const util::WorkStealingPool& pool = util::WorkStealingPool::global();
  std::cout << "[pool] " << label << ": workers=" << pool.size()
            << " tasks_run=" << pool.tasks_run()
            << " tasks_stolen=" << pool.tasks_stolen()
            << " steal_attempts=" << pool.steal_attempts()
            << " (observational)\n";
}

bool export_trace_if_enabled(const std::string& metrics_json) {
  obs::Trace& trace = obs::Trace::instance();
  if (!obs::Trace::enabled()) return false;
  {
    std::ofstream out(trace.output_path());
    trace.write_chrome_json(out);
  }
  {
    std::ofstream out(trace.metrics_path());
    out << metrics_json;
  }
  std::cout << "[trace] wrote " << trace.event_count() << " event(s) from "
            << trace.thread_count() << " thread(s) to " << trace.output_path()
            << " (metrics: " << trace.metrics_path() << ", dropped "
            << trace.dropped_events() << ")\n";
  return true;
}

}  // namespace ww::bench
