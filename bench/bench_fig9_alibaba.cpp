// Fig. 9: WaterWise on the Alibaba-style VM trace (8.5x invocation rate,
// double-peaked day) across delay tolerances.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 9: Alibaba trace", "Sec. 6, Fig. 9");

  // The Alibaba rate is 8.5x Borg; scale days down so the default bench run
  // stays quick while keeping ~2x the Borg job count.
  const double days = std::max(0.05, 0.25 * bench::campaign_days());
  const auto jobs = trace::generate_trace(trace::alibaba_config(7, days));
  std::cout << "Jobs in campaign: " << jobs.size() << " over "
            << util::Table::fixed(days, 2) << " day(s)\n";

  const std::vector<double> tolerances = {0.25, 0.50, 0.75, 1.00};
  const auto rows = bench::run_tolerance_sweep(jobs, tolerances);

  const auto& r25 = rows[0];
  std::cout << "\nAt 25% tolerance: WaterWise within "
            << util::Table::fixed(
                   r25.carbon.carbon_saving_pct_vs(r25.base) -
                       r25.ww.carbon_saving_pct_vs(r25.base), 2)
            << " pp of Carbon-Greedy-Opt (carbon) and "
            << util::Table::fixed(
                   r25.water.water_saving_pct_vs(r25.base) -
                       r25.ww.water_saving_pct_vs(r25.base), 2)
            << " pp of Water-Greedy-Opt (water)\n"
            << "Shape check vs. paper: same trends as the Borg trace (paper: within\n"
               "3.43%/2.85% of the oracles at 25% tolerance).\n";
  return 0;
}
