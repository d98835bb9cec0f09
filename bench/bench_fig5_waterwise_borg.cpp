// Fig. 5: WaterWise vs. Carbon-/Water-Greedy-Opt across delay tolerances
// 25%..100% on the Borg-rate trace (the paper's headline result: ~21%+
// carbon and ~14%+ water savings vs. baseline).
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 5: WaterWise vs. greedy oracles (Google Borg trace)",
                "Sec. 6, Fig. 5");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  const std::vector<double> tolerances = {0.25, 0.50, 0.75, 1.00};

  const auto rows = bench::run_tolerance_sweep(jobs, tolerances);

  // Paper's summary deltas at the headline operating points.
  const auto& r50 = rows[1];
  std::cout << "\nAt 50% tolerance: WaterWise carbon gap to Carbon-Greedy-Opt: "
            << util::Table::fixed(
                   r50.carbon.carbon_saving_pct_vs(r50.base) -
                       r50.ww.carbon_saving_pct_vs(r50.base), 2)
            << " pp; water gap to Water-Greedy-Opt: "
            << util::Table::fixed(
                   r50.water.water_saving_pct_vs(r50.base) -
                       r50.ww.water_saving_pct_vs(r50.base), 2)
            << " pp\n"
            << "Shape check vs. paper: WaterWise saves on BOTH metrics at every\n"
               "tolerance, sits between the two single-metric oracles, and savings\n"
               "grow with tolerance (paper: >=21.91% carbon, >=14.78% water).\n";
  return 0;
}
