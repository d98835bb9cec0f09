// Fig. 13: decision-making overhead of WaterWise over time, as % of mean job
// execution time, on both the Google-Borg-rate and Alibaba-rate traces.
// Paper: < 0.2% throughout, higher for Alibaba (8.5x invocation rate).
#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

void report(const char* label, const ww::dc::CampaignResult& res,
            const ww::core::SchedulerStats& solver) {
  using namespace ww;
  const std::size_t windows = res.overhead_series.size();
  const double mean_s =
      windows == 0 ? 0.0
                   : res.decision_seconds_total / static_cast<double>(windows);
  double max_s = 0.0;
  for (const auto& [minute, seconds] : res.overhead_series)
    max_s = std::max(max_s, seconds);
  std::cout << "\n" << label << ": mean batch decision time "
            << util::Table::fixed(mean_s * 1000.0, 3) << " ms, p max "
            << util::Table::fixed(max_s * 1000.0, 3) << " ms, overhead "
            << util::Table::fixed(res.mean_overhead_pct_of_exec(), 4)
            << "% of mean execution time\n";
  std::cout << "  solver: " << solver.milp_solves << " transport solves, "
            << solver.soft_fallbacks << " soft fallbacks, "
            << util::Table::fixed(solver.solve_seconds, 3)
            << " s in sched::transport_assign\n";
  std::cout << "  pipeline: " << solver.chunks_planned << " chunk plans, "
            << solver.spill_resolves << " spill re-solves covering "
            << solver.spill_jobs << " job(s)\n";
  std::cout << "  degradation: " << solver.fault_events << " fault events, "
            << solver.degraded_windows << " degraded windows, "
            << solver.solve_retries << " solve retries, "
            << solver.fallback_placements << " fallback placements, "
            << solver.deferred_jobs << " deferred job(s)\n";

  // Time series in 10-minute buckets (paper plots minutes on the x-axis).
  util::Table series({"Sim minute", "Mean decision ms", "Overhead % of exec"});
  const double bucket_minutes = 10.0;
  double bucket_end = bucket_minutes;
  util::RunningStats acc;
  for (const auto& [minute, seconds] : res.overhead_series) {
    if (minute > bucket_end) {
      if (acc.count() > 0 && series.rows() < 12)
        series.add_row({util::Table::fixed(bucket_end, 0),
                        util::Table::fixed(acc.mean() * 1000.0, 3),
                        util::Table::fixed(
                            100.0 * acc.mean() / res.mean_exec_seconds, 4)});
      acc = util::RunningStats{};
      while (minute > bucket_end) bucket_end += bucket_minutes;
    }
    acc.add(seconds);
  }
  series.print(std::cout);
}

/// Startup gate (bench_micro_solver style): a one-burst trace — every
/// window fans out across many chunks — re-run at 1/2/4 solver threads must
/// produce an identical decision stream, or the overhead numbers below
/// would be measuring a scheduler that does not match the serial one.
void chunk_parallel_selfcheck() {
  using namespace ww;
  auto jobs = trace::generate_trace(trace::borg_config(7, 0.02));
  for (auto& j : jobs) j.submit_time = 0.0;  // one burst => multi-chunk windows
  bench::CampaignSpec spec;
  spec.tol = 0.5;
  if (!bench::check_chunk_parallel_equivalence(jobs, spec)) {
    std::cerr << "self-check FAILED: threaded and serial chunk solves "
                 "diverge; refusing to report overhead numbers\n";
    std::exit(1);
  }
}

/// Scenarios × chunks fan-out-shape panel: the same K-scenario × C-chunk
/// campaign run at the four (campaign jobs, solver_threads) corners.  (K, C)
/// used to be the nested-pool configuration that oversubscribed K·C threads
/// across two per-owner pools; every corner now shares the one work-stealing
/// pool, so the knobs select the *fan-out shape* — which layers spawn tasks
/// versus run inline — not the worker count: the global pool is created with
/// hardware_concurrency workers and `ensure_workers` only grows it, so all
/// non-inline corners execute on the same full-size worker set.  Campaign
/// aggregates must be byte-identical across all four shapes — the panel
/// exits nonzero on divergence — while wall-clock and the steal counters
/// (observational) show how the pool behaves; wall-clock deltas here compare
/// task granularities, not thread counts.
void scenario_chunk_scaling_panel() {
  using namespace ww;
  auto jobs = trace::generate_trace(trace::borg_config(7, 0.05));
  for (auto& j : jobs) j.submit_time = 0.0;  // one burst => multi-chunk windows
  const double tols[] = {0.25, 0.5, 1.0, 2.0};  // K = 4 scenarios
  struct Corner {
    const char* label;
    std::size_t jobs;
    int threads;
  };
  const Corner corners[] = {
      {"scenarios inline, chunks inline (serial)", 1, 1},
      {"scenarios spawned, chunks inline", 4, 1},
      {"scenarios inline, chunks spawned", 1, 4},
      {"scenarios spawned, chunks spawned (was nested pools)", 4, 4},
  };
  std::optional<dc::CampaignResult> ref;
  for (const auto& corner : corners) {
    dc::CampaignConfig cfg;
    cfg.jobs = corner.jobs;
    dc::CampaignRunner runner(cfg);
    for (const double tol : tols)
      runner.add("tol=" + util::Table::fixed(tol, 2),
                 [&, tol](dc::ScenarioContext&) {
                   bench::CampaignSpec spec;
                   spec.tol = tol;
                   core::WaterWiseConfig ww_cfg;
                   ww_cfg.max_jobs_per_solve = 25;  // force multi-chunk windows
                   ww_cfg.solver_threads = corner.threads;
                   return bench::run_policy(jobs, bench::Policy::WaterWise,
                                            spec, ww_cfg);
                 });
    const util::WorkStealingPool& pool = util::WorkStealingPool::global();
    const std::uint64_t stolen_before = pool.tasks_stolen();
    const util::Stopwatch watch;
    const auto outcomes = runner.run_all();
    const double seconds = watch.elapsed_seconds();
    const dc::CampaignResult total =
        dc::CampaignRunner::merged_totals(outcomes);
    std::cout << "[fan-out] " << corner.label << ": "
              << util::Table::fixed(seconds * 1000.0, 1) << " ms, "
              << (pool.tasks_stolen() - stolen_before) << " task(s) stolen on "
              << pool.size() << " worker(s)\n";
    if (!ref) {
      ref = total;
      continue;
    }
    const bool same = total.num_jobs == ref->num_jobs &&
                      total.total_carbon_g == ref->total_carbon_g &&
                      total.total_water_l == ref->total_water_l &&
                      total.total_cost_usd == ref->total_cost_usd &&
                      total.violations == ref->violations;
    if (!same) {
      std::cerr << "self-check FAILED: scenarios x chunks fan-out shape '"
                << corner.label
                << "' diverged from the serial campaign aggregate\n";
      std::exit(1);
    }
  }
  std::cout << "[fan-out] all four (jobs x solver_threads) fan-out shapes "
               "byte-identical on the unified pool\n";
}

/// Tracing-overhead panel: the one-burst campaign timed in 60 alternating
/// runs, spans off then on, with the trace cleared before each.  A timed
/// run takes about a millisecond, so a single run, or runs grouped by mode,
/// would let one scheduler hiccup or a drift over the panel decide the
/// verdict; pairing neighbours and taking the median of the per-pair deltas
/// does not.  A disabled span is one flag load, so the delta is the full
/// cost of the span layer; the self-check exits nonzero if its median
/// exceeds 5% of the untraced wall-clock.
void tracing_overhead_panel() {
  using namespace ww;
  auto jobs = trace::generate_trace(trace::borg_config(7, 0.1));
  for (auto& j : jobs) j.submit_time = 0.0;
  bench::CampaignSpec spec;
  spec.tol = 0.5;
  const bool was_enabled = obs::Trace::enabled();
  const auto time_once = [&](bool on) {
    obs::Trace::instance().clear();
    obs::Trace::instance().set_enabled(on);
    core::WaterWiseScheduler ww;
    const util::Stopwatch watch;
    const dc::CampaignResult res = bench::run_campaign(jobs, ww, spec);
    const double seconds = watch.elapsed_seconds();
    if (res.num_jobs == 0) {
      std::cerr << "tracing-overhead panel: empty campaign\n";
      std::exit(1);
    }
    return seconds;
  };
  constexpr int kPairs = 30;
  std::vector<double> off_s, on_s, delta_pct;
  for (int i = 0; i < kPairs; ++i) {
    off_s.push_back(time_once(false));
    on_s.push_back(time_once(true));
    delta_pct.push_back(100.0 * (on_s.back() - off_s.back()) / off_s.back());
  }
  obs::Trace::instance().set_enabled(was_enabled);
  // Drop the panel's own events so a WW_TRACE export below covers only the
  // real campaigns.
  obs::Trace::instance().clear();
  const double pct = util::percentile(delta_pct, 50.0);
  std::cout << "[tracing-overhead] spans off "
            << util::Table::fixed(util::percentile(off_s, 50.0) * 1000.0, 3)
            << " ms, on "
            << util::Table::fixed(util::percentile(on_s, 50.0) * 1000.0, 3)
            << " ms (medians), median paired delta "
            << util::Table::fixed(pct, 2) << "% (" << kPairs
            << " alternating off/on pairs, gate 5%)\n";
  if (pct > 5.0) {
    std::cerr << "self-check FAILED: span tracing costs "
              << util::Table::fixed(pct, 2)
              << "% > 5% of untraced wall-clock\n";
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace ww;
  obs::Trace::instance().configure_from_env();
  bench::banner("Figure 13: decision-making overhead", "Sec. 6, Fig. 13");
  chunk_parallel_selfcheck();
  scenario_chunk_scaling_panel();
  tracing_overhead_panel();

  const double days = std::min(bench::campaign_days(), 0.25);  // 6 sim hours
  const auto borg = trace::generate_trace(trace::borg_config(7, days));
  const auto ali = trace::generate_trace(trace::alibaba_config(7, days));

  bench::CampaignSpec spec;
  spec.tol = 0.5;
  dc::CampaignResult r_borg, r_ali;
  // Schedulers constructed here (not via run_policy) so their solver
  // counters survive the campaign and can be reported below.
  core::WaterWiseScheduler ww_borg, ww_ali;
  util::global_parallel_for(bench::bench_jobs(), 2, [&](std::size_t k) {
    if (k == 0)
      r_borg = bench::run_campaign(borg, ww_borg, spec);
    else
      r_ali = bench::run_campaign(ali, ww_ali, spec);
  });

  report("Google Borg trace", r_borg, ww_borg.stats());
  report("Alibaba trace", r_ali, ww_ali.stats());

  core::SchedulerStats total = ww_borg.stats();
  total += ww_ali.stats();
  std::cout << "\nBoth traces combined: " << total.milp_solves
            << " transport solves over " << total.chunks_planned
            << " chunk plans, " << util::Table::fixed(total.solve_seconds, 3)
            << " s in sched::transport_assign ("
            << ww_borg.effective_solver_threads()
            << " solver thread(s) per scheduler)\n";

  std::cout << "\n";
  bench::print_service_metrics("Google Borg trace", r_borg);
  bench::print_service_metrics("Alibaba trace", r_ali);
  bench::print_pool_counters("fig13 campaigns");

  // WW_TRACE export: Chrome trace JSON (chrome://tracing / ui.perfetto.dev)
  // plus the machine-readable metrics dump for both campaigns: each one's
  // service registry and its scheduler's solver counters.
  const auto campaign_json = [](const dc::CampaignResult& res,
                                const core::WaterWiseScheduler& ww) {
    return "{\"service\": " + res.service.to_json() +
           ", \"sched\": " + ww.registry().to_json() + "}";
  };
  (void)bench::export_trace_if_enabled(
      "{\n\"borg\": " + campaign_json(r_borg, ww_borg) +
      ",\n\"alibaba\": " + campaign_json(r_ali, ww_ali) + "}\n");

  std::cout << "\nShape check vs. paper: overhead well under 1% of mean execution\n"
               "time (paper: <0.2%), and higher for the Alibaba trace whose 8.5x\n"
               "job rate builds larger MILP batches.\n";
  return 0;
}
