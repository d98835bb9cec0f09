#include "sched/basic.hpp"

#include <algorithm>

namespace ww::sched {

std::vector<dc::Decision> BaselineScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  std::vector<dc::Decision> decisions;
  std::vector<int> free(static_cast<std::size_t>(ctx.capacity->num_regions()));
  for (int r = 0; r < ctx.capacity->num_regions(); ++r)
    free[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);

  for (const dc::PendingJob& p : batch) {
    const int home = p.job->home_region;
    auto& f = free[static_cast<std::size_t>(home)];
    if (f <= 0) continue;  // wait for a home server (stays pending)
    --f;
    decisions.push_back(dc::Decision{p.job->id, home, ctx.now, 1.0});
  }
  return decisions;
}

std::vector<dc::Decision> RoundRobinScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  const int n = ctx.capacity->num_regions();
  const env::Environment& env = ctx.footprint->environment();
  std::vector<int> free(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    free[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);

  std::vector<dc::Decision> decisions;
  for (const dc::PendingJob& p : batch) {
    int chosen = -1;
    for (int k = 0; k < n; ++k) {
      const int r = (cursor_ + k) % n;
      if (free[static_cast<std::size_t>(r)] > 0) {
        chosen = r;
        cursor_ = (r + 1) % n;
        break;
      }
    }
    if (chosen < 0) continue;
    --free[static_cast<std::size_t>(chosen)];
    const double start = ctx.now + env.transfer_latency_seconds(
                                       p.job->home_region, chosen,
                                       p.job->package_bytes);
    decisions.push_back(dc::Decision{p.job->id, chosen, start, 1.0});
  }
  return decisions;
}

std::vector<dc::Decision> LeastLoadScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  const int n = ctx.capacity->num_regions();
  const env::Environment& env = ctx.footprint->environment();
  std::vector<int> free(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    free[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);

  std::vector<dc::Decision> decisions;
  for (const dc::PendingJob& p : batch) {
    const auto it = std::max_element(free.begin(), free.end());
    if (*it <= 0) continue;
    const int chosen = static_cast<int>(it - free.begin());
    --*it;
    const double start = ctx.now + env.transfer_latency_seconds(
                                       p.job->home_region, chosen,
                                       p.job->package_bytes);
    decisions.push_back(dc::Decision{p.job->id, chosen, start, 1.0});
  }
  return decisions;
}

}  // namespace ww::sched
