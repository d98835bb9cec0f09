// Ablation bench (our addition, motivated by DESIGN.md): isolates the
// contribution of each WaterWise design component — soft constraints, slack
// manager, history learner (lambda_ref sweep) — and the batch-window choice.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Ablation: WaterWise design components", "DESIGN.md ablations");

  // Quarter-length campaign: the ablation matrix runs 11 variants x 2
  // campaigns, several of them deliberately degraded (no soft constraints,
  // no slack manager) and therefore slow under capacity pressure.
  const auto jobs = trace::generate_trace(
      trace::borg_config(7, std::max(0.1, 0.25 * bench::campaign_days())));

  struct Case {
    std::string label;
    core::WaterWiseConfig cfg;
    bench::CampaignSpec spec;
  };
  std::vector<Case> cases;
  {
    bench::CampaignSpec tight;  // capacity pressure exercises slack/soft paths
    tight.tol = 0.25;
    tight.capacity_scale = 0.5;  // ~87 servers vs ~29 offered load: pressured, stable

    Case full{"Full WaterWise (tight capacity)", {}, tight};
    cases.push_back(full);

    Case no_soft = full;
    no_soft.label = "- soft constraints";
    no_soft.cfg.enable_soft_constraints = false;
    cases.push_back(no_soft);

    Case no_slack = full;
    no_slack.label = "- slack manager";
    no_slack.cfg.enable_slack_manager = false;
    cases.push_back(no_slack);

    Case no_hist = full;
    no_hist.label = "- history learner";
    no_hist.cfg.enable_history = false;
    cases.push_back(no_hist);

    for (const double lref : {0.0, 0.1, 0.3}) {
      Case c = full;
      c.label = "lambda_ref = " + util::Table::fixed(lref, 1);
      c.cfg.lambda_ref = lref;
      cases.push_back(c);
    }

    for (const double window : {30.0, 60.0, 300.0}) {
      Case c = full;
      c.label = "batch window = " + util::Table::fixed(window, 0) + " s";
      c.spec.sim.batch_window_s = window;
      cases.push_back(c);
    }
  }

  struct Row {
    dc::CampaignResult base, ww;
  };
  std::vector<Row> rows(cases.size());
  util::global_parallel_for(
      bench::bench_jobs(), cases.size() * 2, [&](std::size_t k) {
        const std::size_t i = k / 2;
        if (k % 2 == 0) {
          bench::CampaignSpec base_spec = cases[i].spec;
          rows[i].base =
              bench::run_policy(jobs, bench::Policy::Baseline, base_spec);
        } else {
          rows[i].ww = bench::run_policy(jobs, bench::Policy::WaterWise,
                                         cases[i].spec, cases[i].cfg);
        }
      });

  util::Table table({"Variant", "Carbon saving %", "Water saving %",
                     "Service norm", "Violation %"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    table.add_row({cases[i].label,
                   util::Table::fixed(rows[i].ww.carbon_saving_pct_vs(rows[i].base), 2),
                   util::Table::fixed(rows[i].ww.water_saving_pct_vs(rows[i].base), 2),
                   util::Table::fixed(rows[i].ww.mean_service_norm(), 3) + "x",
                   util::Table::fixed(rows[i].ww.violation_pct(), 2)});
  }
  table.print(std::cout);
  std::cout << "\nReading guide: under tight capacity the slack manager keeps\n"
               "violations low; soft constraints keep the solver feasible; the\n"
               "history learner damps region oscillation; a larger batch window\n"
               "lowers overhead but coarsens decisions.\n";
  return 0;
}
