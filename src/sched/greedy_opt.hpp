// Carbon-Greedy-Opt and Water-Greedy-Opt oracles (Sec. 3 / Sec. 5).
//
// Infeasible-in-practice reference schedulers: they know each job's true
// execution time and the *future* carbon/water intensity of every region,
// and brute-force, per job, every (region, start-time) pair inside the
// delay-tolerance window, reserving the single-metric cheapest slot that
// fits capacity.  They are greedy over jobs (no knowledge of future
// arrivals), exactly as the paper qualifies: "not truly optimal since they
// make the scheduling decision without knowing the characteristics of
// future job arrivals."
#pragma once

#include "dc/scheduler.hpp"

namespace ww::sched {

enum class GreedyMetric { Carbon, Water };

struct GreedyOptConfig {
  int start_candidates = 9;  ///< Start times sampled across the slack window.
};

/// Guaranteed-feasible greedy placement for WaterWise's retry-then-degrade
/// ladder (core/waterwise.cpp): when every solver rung has failed, assign
/// jobs most-constrained-first (longest estimated runtime, stable by input
/// order) to the cheapest region with remaining quota, where "cheapest"
/// ranks regions by the normalized lambda-weighted carbon/water intensity at
/// ctx.now: `ci[r]` and `wi[r]` are region r's carbon and Eq. 6 water
/// intensities there, one per region of `quota`.  A region is
/// delay-admissible when its transfer latency fits the job's remaining
/// allowance (exactly the hard model's Eq. 11 fixing rule).
/// With `allow_delay_violations` set, jobs with no admissible region fall
/// back to the region minimizing (exceedance, cost) — mirroring the soft
/// model's penalty trade — instead of deferring.
///
/// Returns one region index per input job, aligned with `jobs`; -1 means
/// "not placed" (quota exhausted, or inadmissible with violations
/// disallowed).  Placements never exceed `quota`, so the result is
/// capacity-feasible by construction, and the function is pure — the same
/// arguments produce the same assignment at any thread count.
[[nodiscard]] std::vector<int> greedy_fallback_assign(
    const std::vector<const dc::PendingJob*>& jobs,
    const std::vector<int>& quota, const std::vector<double>& ci,
    const std::vector<double>& wi, const dc::ScheduleContext& ctx,
    double lambda_co2, double lambda_h2o, double delay_estimate_margin,
    bool allow_delay_violations);

class GreedyOptScheduler final : public dc::Scheduler {
 public:
  explicit GreedyOptScheduler(GreedyMetric metric, GreedyOptConfig config = {})
      : metric_(metric), config_(config) {}

  [[nodiscard]] std::string name() const override {
    return metric_ == GreedyMetric::Carbon ? "Carbon-Greedy-Opt"
                                           : "Water-Greedy-Opt";
  }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override;

 private:
  GreedyMetric metric_;
  GreedyOptConfig config_;
};

}  // namespace ww::sched
