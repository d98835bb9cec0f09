#include "sched/greedy_opt.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace ww::sched {

namespace {

/// Start times sampled across a job's slack window, per region.
constexpr int kStartCandidates = 9;

/// In-batch reservation overlay so jobs placed earlier in this batch are
/// visible to later placements before the simulator applies the decisions.
class Overlay {
 public:
  explicit Overlay(const dc::CapacityView* base) : base_(base) {
    deltas_.resize(static_cast<std::size_t>(base->num_regions()));
  }

  [[nodiscard]] bool fits(int region, double start, double end) const {
    int occ = base_->max_occupancy(region, start, end);
    // Conservative: add every overlapping overlay reservation.
    for (const auto& [s, e] : deltas_[static_cast<std::size_t>(region)])
      if (s < end && start < e) ++occ;
    return occ < base_->capacity(region);
  }

  void reserve(int region, double start, double end) {
    deltas_[static_cast<std::size_t>(region)].emplace_back(start, end);
  }

 private:
  const dc::CapacityView* base_;
  std::vector<std::vector<std::pair<double, double>>> deltas_;
};

}  // namespace

std::vector<dc::Decision> GreedyOptScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  const int n = ctx.capacity->num_regions();
  const env::Environment& env = ctx.footprint->environment();
  Overlay overlay(ctx.capacity);

  // Most-constrained (least remaining slack) jobs pick their slots first.
  std::vector<const dc::PendingJob*> order;
  order.reserve(batch.size());
  for (const auto& p : batch) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [&](const dc::PendingJob* a, const dc::PendingJob* b) {
              const double slack_a = (a->job->submit_time +
                                      ctx.tol * a->job->exec_seconds) - ctx.now;
              const double slack_b = (b->job->submit_time +
                                      ctx.tol * b->job->exec_seconds) - ctx.now;
              return slack_a < slack_b;
            });

  std::vector<dc::Decision> decisions;
  for (const dc::PendingJob* p : order) {
    const trace::Job& job = *p->job;
    // Latest start honoring service <= (1 + TOL) * exec.
    const double latest_start =
        job.submit_time + (1.0 + ctx.tol) * job.exec_seconds - job.exec_seconds;

    double best_cost = std::numeric_limits<double>::infinity();
    int best_region = -1;
    double best_start = 0.0;

    for (int r = 0; r < n; ++r) {
      const double transfer = env.transfer_latency_seconds(
          job.home_region, r, job.package_bytes);
      const double earliest = ctx.now + transfer;
      const double window = latest_start - earliest;
      const int steps = window > 0.0 ? kStartCandidates : 1;
      for (int k = 0; k < steps; ++k) {
        const double start =
            earliest + (steps > 1 ? window * static_cast<double>(k) /
                                        static_cast<double>(steps - 1)
                                  : 0.0);
        if (start > latest_start + 1e-9) break;
        const double end = start + job.exec_seconds;
        if (!overlay.fits(r, start, end)) continue;
        // Oracle: evaluate the true future footprint of this placement.
        const footprint::Breakdown fb = ctx.footprint->job_integrated(
            r, start, job.exec_seconds, job.energy_kwh());
        const footprint::Breakdown tb = ctx.footprint->transfer(
            job.home_region, r, job.package_bytes, ctx.now);
        const double cost = metric_ == GreedyMetric::Carbon
                                ? fb.carbon_g() + tb.carbon_g()
                                : fb.water_l() + tb.water_l();
        if (cost < best_cost) {
          best_cost = cost;
          best_region = r;
          best_start = start;
        }
      }
    }

    if (best_region < 0) {
      // Nothing fits inside the tolerance window: place at the earliest
      // feasible home slot we can see (may violate; Table 2 shows the
      // oracles do violate occasionally under capacity pressure).
      const int r = job.home_region;
      for (double start = ctx.now;
           start < ctx.now + 64.0 * job.exec_seconds + 3600.0;
           start += std::max(30.0, job.exec_seconds * 0.5)) {
        if (overlay.fits(r, start, start + job.exec_seconds)) {
          best_region = r;
          best_start = start;
          break;
        }
      }
      if (best_region < 0) continue;  // stay pending for the next batch
    }

    overlay.reserve(best_region, best_start, best_start + job.exec_seconds);
    decisions.push_back(dc::Decision{job.id, best_region, best_start, 1.0});
  }
  return decisions;
}

}  // namespace ww::sched
