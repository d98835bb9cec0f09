// Fig. 6: WaterWise effectiveness when the World Resources Institute water
// dataset replaces the ElectricityMaps-style EWIF table (paper: >18% carbon
// and >11% water savings persist).
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 6: WRI water-dataset sensitivity", "Sec. 6, Fig. 6");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  const std::vector<double> tolerances = {0.25, 0.50, 0.75, 1.00};

  bench::CampaignSpec spec;
  spec.env_config.dataset = env::WaterDataset::WorldResourcesInstitute;
  bench::run_tolerance_sweep(jobs, tolerances, spec);
  std::cout << "\nShape check vs. paper: savings persist under the alternative\n"
               "water dataset (paper: >18% carbon, >11% water vs. baseline).\n";
  return 0;
}
