// Scenario: extending the framework with your own policy.
//
// The dc::Scheduler interface is the library's extension point: implement
// schedule() and the simulator, metrics ledger, and benches work unchanged.
// Here we write a simple "WaterFirst" heuristic — place each job in the
// feasible region with the lowest current *water intensity* (Eq. 6), with a
// carbon tie-break — and pit it against Baseline and the full MILP-based
// WaterWise to show what the optimization layer adds.
#include <algorithm>
#include <iostream>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "trace/generator.hpp"
#include "util/table.hpp"

namespace {

class WaterFirstScheduler final : public ww::dc::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "WaterFirst"; }

  [[nodiscard]] std::vector<ww::dc::Decision> schedule(
      const std::vector<ww::dc::PendingJob>& batch,
      const ww::dc::ScheduleContext& ctx) override {
    const int n = ctx.capacity->num_regions();
    std::vector<int> free(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r)
      free[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);

    // Rank regions by water intensity now, carbon intensity as tie-break,
    // as the controller observes them: ctx.footprint's samples carry a
    // fault campaign's forecast bias and scarcity shocks.
    std::vector<ww::footprint::Intensities> at;
    ctx.footprint->sample_all(ctx.now, at);
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) order[static_cast<std::size_t>(r)] = r;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto& sa = at[static_cast<std::size_t>(a)];
      const auto& sb = at[static_cast<std::size_t>(b)];
      const double wa = sa.water_intensity();
      const double wb = sb.water_intensity();
      if (wa != wb) return wa < wb;
      return sa.ci < sb.ci;
    });

    const ww::env::Environment& env = ctx.footprint->environment();
    std::vector<ww::dc::Decision> decisions;
    for (const auto& p : batch) {
      for (const int r : order) {
        if (free[static_cast<std::size_t>(r)] <= 0) continue;
        const double latency = env.transfer_latency_seconds(
            p.job->home_region, r, p.job->package_bytes);
        // Respect the delay tolerance: skip regions whose transfer alone
        // would blow the allowance.
        const double waited = ctx.now - p.first_seen;
        if (latency + waited > ctx.tol * p.est_exec_s && r != p.job->home_region)
          continue;
        --free[static_cast<std::size_t>(r)];
        decisions.push_back({p.job->id, r, ctx.now + latency, 1.0});
        break;
      }
    }
    return decisions;
  }
};

}  // namespace

int main() {
  using namespace ww;
  const env::Environment env = env::Environment::builtin();
  const footprint::FootprintModel fp(env);
  const auto jobs = trace::generate_trace(trace::borg_config(5, 0.25));

  dc::SimConfig cfg;
  cfg.tol = 0.5;
  dc::Simulator sim(env, fp, cfg);

  sched::BaselineScheduler baseline;
  WaterFirstScheduler water_first;
  core::WaterWiseScheduler waterwise;

  const auto r_base = sim.run(jobs, baseline);
  const auto r_wf = sim.run(jobs, water_first);
  const auto r_ww = sim.run(jobs, waterwise);

  util::Table table({"Scheduler", "Carbon saving %", "Water saving %",
                     "Violation %"});
  for (const auto* r : {&r_wf, &r_ww}) {
    table.add_row({r->scheduler_name,
                   util::Table::fixed(r->carbon_saving_pct_vs(r_base), 2),
                   util::Table::fixed(r->water_saving_pct_vs(r_base), 2),
                   util::Table::fixed(r->violation_pct(), 2)});
  }
  table.print(std::cout);

  std::cout << "\nTakeaway: a ~40-line greedy policy plugs straight into the\n"
               "simulator; the MILP-based WaterWise beats it on the *joint*\n"
               "carbon+water objective because it solves the batch globally\n"
               "under capacity and delay constraints instead of job-by-job.\n";
  return 0;
}
