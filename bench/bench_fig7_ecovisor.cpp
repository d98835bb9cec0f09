// Fig. 7: WaterWise vs. Ecovisor under both water datasets.  Ecovisor is
// carbon-only, home-region-only, operational-carbon-only — the paper reports
// WaterWise beating it by ~27.6% carbon / ~17.5% water (ElectricityMaps).
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 7: WaterWise vs. Ecovisor", "Sec. 6, Fig. 7");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  const std::vector<env::WaterDataset> datasets = {
      env::WaterDataset::ElectricityMaps,
      env::WaterDataset::WorldResourcesInstitute};

  struct Row {
    dc::CampaignResult base, eco, ww;
  };
  std::vector<Row> rows(datasets.size());
  util::global_parallel_for(
      bench::bench_jobs(), datasets.size() * 3, [&](std::size_t k) {
        const std::size_t i = k / 3;
        bench::CampaignSpec spec;
        spec.tol = 0.5;
        spec.env_config.dataset = datasets[i];
        switch (k % 3) {
          case 0:
            rows[i].base =
                bench::run_policy(jobs, bench::Policy::Baseline, spec);
            break;
          case 1:
            rows[i].eco =
                bench::run_policy(jobs, bench::Policy::Ecovisor, spec);
            break;
          case 2:
            rows[i].ww =
                bench::run_policy(jobs, bench::Policy::WaterWise, spec);
            break;
        }
      });

  util::Table table({"Dataset", "Scheme", "Carbon saving %", "Water saving %"});
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const std::string ds(env::to_string(datasets[i]));
    const auto& b = rows[i].base;
    table.add_row({ds, "Ecovisor",
                   util::Table::fixed(rows[i].eco.carbon_saving_pct_vs(b), 2),
                   util::Table::fixed(rows[i].eco.water_saving_pct_vs(b), 2)});
    table.add_row({ds, "WaterWise",
                   util::Table::fixed(rows[i].ww.carbon_saving_pct_vs(b), 2),
                   util::Table::fixed(rows[i].ww.water_saving_pct_vs(b), 2)});
  }
  table.print(std::cout);

  const double carbon_gap =
      100.0 * (rows[0].eco.total_carbon_g - rows[0].ww.total_carbon_g) /
      rows[0].eco.total_carbon_g;
  const double water_gap =
      100.0 * (rows[0].eco.total_water_l - rows[0].ww.total_water_l) /
      rows[0].eco.total_water_l;
  std::cout << "\nWaterWise vs. Ecovisor directly (ElectricityMaps): "
            << util::Table::fixed(carbon_gap, 2) << "% less carbon, "
            << util::Table::fixed(water_gap, 2) << "% less water\n"
            << "Shape check vs. paper: Ecovisor saves modest carbon (no\n"
               "migration, embodied carbon grows with stretched jobs) and is\n"
               "water-blind; WaterWise dominates on both axes.\n";
  return 0;
}
