// Carbon-Greedy-Opt and Water-Greedy-Opt oracles (Sec. 3 / Sec. 5).
//
// Infeasible-in-practice reference schedulers: they know each job's true
// execution time and the *future* carbon/water intensity of every region,
// and brute-force, per job, every (region, start-time) pair inside the
// delay-tolerance window, reserving the single-metric cheapest slot that
// fits capacity.  They are greedy over jobs (no knowledge of future
// arrivals), exactly as the paper qualifies: "not truly optimal since they
// make the scheduling decision without knowing the characteristics of
// future job arrivals."  Each job samples nine start times across its
// slack window in every region.
//
// These are comparison policies only.  WaterWise's own last-resort greedy
// placement reads the chunk's transportation problem and lives beside the
// exact solver (sched::greedy_assign in sched/transport.hpp).
#pragma once

#include "dc/scheduler.hpp"

namespace ww::sched {

enum class GreedyMetric { Carbon, Water };

class GreedyOptScheduler final : public dc::Scheduler {
 public:
  explicit GreedyOptScheduler(GreedyMetric metric) : metric_(metric) {}

  [[nodiscard]] std::string name() const override {
    return metric_ == GreedyMetric::Carbon ? "Carbon-Greedy-Opt"
                                           : "Water-Greedy-Opt";
  }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override;

 private:
  GreedyMetric metric_;
};

}  // namespace ww::sched
