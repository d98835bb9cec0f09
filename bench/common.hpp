// Shared harness for the per-figure/table benchmark binaries.
//
// Every bench prints a paper-style table on stdout.  Campaign length is
// scaled by the WW_BENCH_SCALE environment variable (default 1.0 => 1
// simulated day, ~23k Borg jobs; WW_BENCH_SCALE=10 reproduces the paper's
// full 10-day window).  Independent configurations fan out across a thread
// pool; results are deterministic regardless of parallelism.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/campaign_runner.hpp"
#include "dc/simulator.hpp"
#include "env/faults.hpp"
#include "sched/basic.hpp"
#include "sched/ecovisor.hpp"
#include "sched/greedy_opt.hpp"
#include "trace/generator.hpp"
#include "util/table.hpp"
#include "util/work_steal.hpp"

namespace ww::bench {

/// WW_BENCH_SCALE environment knob: a number in [0.02, 20], 1 when unset.
/// Any other value is reported on stderr, naming the variable and the
/// value, and the bench exits with status 2.
[[nodiscard]] double scale();

/// Simulated days for the default campaign: 1.0 * scale().
[[nodiscard]] double campaign_days();

/// WW_BENCH_JOBS environment knob: campaign fan-out threads, an integer in
/// [0, 1024] (unset or 0 => hardware concurrency, 1 => serial).  Any other
/// value is rejected as scale() rejects one.
[[nodiscard]] std::size_t bench_jobs();

/// CampaignConfig preconfigured from the bench environment knobs.
[[nodiscard]] dc::CampaignConfig campaign_config();

/// Runs the campaign across the pool, prints the wall-clock time and thread
/// count, and returns outcomes in add() order.
[[nodiscard]] std::vector<dc::ScenarioOutcome> run_and_time(
    dc::CampaignRunner& runner);

/// Prints the standard bench banner (figure/table id + provenance).  It
/// first reads WW_BENCH_SCALE, WW_FAULT_SOLVES and WW_SCHED_THREADS; a
/// malformed value is reported on stderr and the bench exits with status 2.
void banner(const std::string& experiment, const std::string& paper_ref);

struct CampaignSpec {
  double tol = 0.5;
  double capacity_scale = 1.0;
  env::EnvironmentConfig env_config;
  double embodied_scale = 1.0;
  dc::SimConfig sim;  ///< tol/capacity_scale fields are overwritten.
  /// Fault-injection campaign (borrowed; must outlive the run).  When set,
  /// run_campaign attaches it to the simulator (effective capacities, true
  /// World-view ledger) and builds a second biased Controller-view
  /// environment/footprint pair for the scheduler to observe.
  const env::FaultSchedule* faults = nullptr;
};

/// Runs one scheduler over one trace under one spec.  Builds a private
/// Environment/FootprintModel so specs can perturb them independently
/// (thread-safe fan-out).
[[nodiscard]] dc::CampaignResult run_campaign(
    const std::vector<trace::Job>& jobs, dc::Scheduler& scheduler,
    const CampaignSpec& spec);

/// Named scheduler factory used by the comparison benches.
enum class Policy {
  Baseline,
  RoundRobin,
  LeastLoad,
  Ecovisor,
  CarbonGreedyOpt,
  WaterGreedyOpt,
  WaterWise,
};

[[nodiscard]] std::unique_ptr<dc::Scheduler> make_scheduler(
    Policy policy, const core::WaterWiseConfig& ww_config = {});

[[nodiscard]] std::string policy_name(Policy policy);

/// Convenience: run (policy, spec) on `jobs` — constructs the scheduler too.
[[nodiscard]] dc::CampaignResult run_policy(
    const std::vector<trace::Job>& jobs, Policy policy,
    const CampaignSpec& spec, const core::WaterWiseConfig& ww_config = {});

/// Chunk-parallel equivalence check shared by the campaign drivers: runs a
/// WaterWise campaign over `jobs` with chunking forced (max_jobs_per_solve
/// clamped to 25) at solver_threads in {1, 2, 4, 8} on the unified
/// work-stealing pool and verifies the per-job decision stream and every
/// aggregate are byte-identical.  Prints a one-line verdict; returns false
/// on divergence (bench_fig13's startup self-check exits nonzero on it).
/// Under a WW_SCHED_THREADS override the four runs collapse onto the forced
/// thread count.
[[nodiscard]] bool check_chunk_parallel_equivalence(
    const std::vector<trace::Job>& jobs, const CampaignSpec& spec,
    core::WaterWiseConfig ww_config = {});

/// Prints the one-line degradation/fault summary for a WaterWise run:
/// fault events, degraded windows, solve retries, fallback placements,
/// deferred jobs (see core::SchedulerStats).
void print_degradation_counters(const std::string& label,
                                const core::SchedulerStats& stats);

/// Prints the service-level metrics panel of a campaign: exact
/// per-window decision-latency p50/p95/p99 in us (from overhead_series),
/// and queue depth and time-to-admission (from its service registry).
/// Latency is wall-clock (observational); queue depth and
/// time-to-admission are deterministic.
void print_service_metrics(const std::string& label,
                           const dc::CampaignResult& result);

/// Prints the global work-stealing pool's lifetime counters (workers,
/// tasks run, tasks stolen, steal attempts).  Observational: steal counts
/// vary run to run and are never part of byte-identity comparisons.
void print_pool_counters(const std::string& label);

/// When WW_TRACE enabled tracing: writes the buffered Chrome trace JSON to
/// obs::Trace::output_path() and `metrics_json` to metrics_path(), prints a
/// one-line summary, and returns true.  No-op (false) when tracing is off.
bool export_trace_if_enabled(const std::string& metrics_json);

}  // namespace ww::bench
