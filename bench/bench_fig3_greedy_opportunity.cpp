// Fig. 3: (a) Carbon-/Water-Greedy-Opt savings vs. delay tolerance
// (1% .. 1000%), showing the carbon/water conflict and the opportunity that
// delay tolerance opens; (b) per-region job distribution at 10% tolerance.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 3: greedy-optimal opportunity scope",
                "Sec. 3, Observation 3");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  const std::vector<double> tolerances = {0.01, 0.10, 1.00, 10.00};

  // Fan out: per tolerance x {baseline, carbon-opt, water-opt}.
  struct Row {
    dc::CampaignResult base, carbon, water;
  };
  std::vector<Row> rows(tolerances.size());
  util::global_parallel_for(
      bench::bench_jobs(), tolerances.size(), [&](std::size_t i) {
        bench::CampaignSpec spec;
        spec.tol = tolerances[i];
        rows[i].base = bench::run_policy(jobs, bench::Policy::Baseline, spec);
        rows[i].carbon =
            bench::run_policy(jobs, bench::Policy::CarbonGreedyOpt, spec);
        rows[i].water =
            bench::run_policy(jobs, bench::Policy::WaterGreedyOpt, spec);
      });

  std::cout << "\nFig. 3(a): savings vs. baseline (% , higher is better)\n";
  util::Table table({"Delay tolerance", "Scheme", "Carbon saving %",
                     "Water saving %"});
  for (std::size_t i = 0; i < tolerances.size(); ++i) {
    const std::string tol = util::Table::fixed(tolerances[i] * 100.0, 0) + "%";
    table.add_row({tol, "Carbon-Greedy-Opt",
                   util::Table::fixed(rows[i].carbon.carbon_saving_pct_vs(rows[i].base), 2),
                   util::Table::fixed(rows[i].carbon.water_saving_pct_vs(rows[i].base), 2)});
    table.add_row({tol, "Water-Greedy-Opt",
                   util::Table::fixed(rows[i].water.carbon_saving_pct_vs(rows[i].base), 2),
                   util::Table::fixed(rows[i].water.water_saving_pct_vs(rows[i].base), 2)});
  }
  table.print(std::cout);

  // Panel (b): job distribution at 10% tolerance.
  const std::size_t ten_pct = 1;  // tolerances[1] == 10%
  const env::Environment env = env::Environment::builtin();
  std::cout << "\nFig. 3(b): job distribution across regions at 10% tolerance (%)\n";
  util::Table dist({"Scheme", env.region(0).name, env.region(1).name,
                    env.region(2).name, env.region(3).name,
                    env.region(4).name});
  auto add_dist = [&](const std::string& label, const dc::CampaignResult& r) {
    std::vector<std::string> row = {label};
    for (const double s : r.region_share_pct())
      row.push_back(util::Table::fixed(s, 1));
    dist.add_row(std::move(row));
  };
  add_dist("Carbon-Greedy-Opt", rows[ten_pct].carbon);
  add_dist("Water-Greedy-Opt", rows[ten_pct].water);
  dist.print(std::cout);

  std::cout << "\nShape check vs. paper: each oracle is suboptimal on the other\n"
               "metric; savings grow with tolerance with diminishing returns;\n"
               "jobs spread across all regions and the two distributions differ.\n";
  return 0;
}
