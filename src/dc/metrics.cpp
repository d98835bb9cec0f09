#include "dc/metrics.hpp"

namespace ww::dc {

namespace {
double saving_pct(double base, double value) {
  return base > 0.0 ? 100.0 * (base - value) / base : 0.0;
}
}  // namespace

double CampaignResult::carbon_saving_pct_vs(const CampaignResult& base) const {
  return saving_pct(base.total_carbon_g, total_carbon_g);
}

double CampaignResult::water_saving_pct_vs(const CampaignResult& base) const {
  return saving_pct(base.total_water_l, total_water_l);
}

double CampaignResult::cost_saving_pct_vs(const CampaignResult& base) const {
  return saving_pct(base.total_cost_usd, total_cost_usd);
}

double CampaignResult::mean_overhead_pct_of_exec() const {
  if (mean_exec_seconds <= 0.0 || overhead_series.empty()) return 0.0;
  const double mean_seconds =
      decision_seconds_total / static_cast<double>(overhead_series.size());
  return 100.0 * mean_seconds / mean_exec_seconds;
}

std::vector<double> CampaignResult::region_share_pct() const {
  std::vector<double> shares(jobs_per_region.size(), 0.0);
  if (num_jobs == 0) return shares;
  for (std::size_t i = 0; i < shares.size(); ++i)
    shares[i] = 100.0 * static_cast<double>(jobs_per_region[i]) /
                static_cast<double>(num_jobs);
  return shares;
}

}  // namespace ww::dc
