#include "core/slack.hpp"

#include <algorithm>
#include <numeric>

namespace ww::core {

double urgency_score(const dc::PendingJob& job, const dc::ScheduleContext& ctx) {
  const int n = ctx.capacity->num_regions();
  const env::Environment& env = ctx.footprint->environment();
  double latency_total = 0.0;
  for (int r = 0; r < n; ++r)
    latency_total += env.transfer_latency_seconds(
        job.job->home_region, r, job.job->package_bytes);
  const double latency_avg = latency_total / static_cast<double>(n);
  const double allowance = ctx.tol * job.est_exec_s;
  const double waited = ctx.now - job.first_seen;
  return allowance - latency_avg - waited;
}

std::vector<std::size_t> select_most_urgent(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx,
    std::size_t limit) {
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> score(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    score[i] = urgency_score(batch[i], ctx);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score[a] < score[b];
                   });
  if (order.size() > limit) order.resize(limit);
  return order;
}

}  // namespace ww::core
