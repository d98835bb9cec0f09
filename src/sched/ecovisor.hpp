// Ecovisor-style carbon scaler (Souza et al., ASPLOS 2023), as the paper's
// customized comparison point (Sec. 5/6, Fig. 7).
//
// Behaviour reproduced per the paper's description of its customized
// implementation: every job executes in its *home* region (no cross-region
// scheduling); a carbon scaler anchors a target carbon rate to the carbon
// intensity observed when the job starts, and scales container power down
// (stretching execution) when the current intensity exceeds the anchor.
// Only operational carbon is managed; embodied carbon grows with the
// stretched execution time, and water is not considered at all — the two
// structural gaps Fig. 7 highlights.
//
// The anchor is the region's intensity at campaign start (t = 0; the paper
// notes: "if the initial carbon intensity is high when the experiment
// begins, the target carbon footprint is always set high"), and the
// deepest power cap is 0.6.
#pragma once

#include "dc/scheduler.hpp"

namespace ww::sched {

class EcovisorScheduler final : public dc::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Ecovisor"; }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override;
};

}  // namespace ww::sched
