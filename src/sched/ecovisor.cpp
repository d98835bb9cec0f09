#include "sched/ecovisor.hpp"

#include <algorithm>

namespace ww::sched {

namespace {

/// Campaign time whose intensity anchors the target carbon rate.
constexpr double kAnchorTime = 0.0;
/// Deepest power cap the scaler applies.
constexpr double kMinPowerScale = 0.6;

}  // namespace

std::vector<dc::Decision> EcovisorScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  std::vector<int> free(static_cast<std::size_t>(ctx.capacity->num_regions()));
  for (int r = 0; r < ctx.capacity->num_regions(); ++r)
    free[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);

  std::vector<dc::Decision> decisions;
  for (const dc::PendingJob& p : batch) {
    const int home = p.job->home_region;
    auto& f = free[static_cast<std::size_t>(home)];
    if (f <= 0) continue;
    --f;

    // Carbon scaler: the target carbon rate is anchored to the intensity at
    // campaign start; when the grid is dirtier than the anchor, power is
    // capped proportionally (stretching the job), shifting energy toward
    // hopefully-cleaner hours.
    const double anchor = ctx.footprint->sample(home, kAnchorTime).ci;
    const double current = ctx.footprint->sample(home, ctx.now).ci;
    double scale = 1.0;
    if (current > anchor && current > 0.0)
      scale = std::clamp(anchor / current, kMinPowerScale, 1.0);

    decisions.push_back(dc::Decision{p.job->id, home, ctx.now, scale});
  }
  return decisions;
}

}  // namespace ww::sched
