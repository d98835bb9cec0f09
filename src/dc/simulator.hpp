// Event-driven geo-distributed datacenter simulator.
//
// Mirrors the paper's evaluation loop: jobs arrive per a production trace,
// the Decision Controller runs every batch window over all pending jobs
// (new arrivals plus previously deferred J_delay), decisions reserve a
// server in the chosen region from transfer completion through execution,
// and the ledger integrates carbon/water footprints over each job's actual
// run interval.  Execution-time/energy estimates given to schedulers are
// online means over finished jobs of the same benchmark — so estimates are
// realistically inaccurate, exactly as Sec. 4 assumes.
#pragma once

#include <vector>

#include "dc/capacity_timeline.hpp"
#include "dc/metrics.hpp"
#include "dc/scheduler.hpp"
#include "trace/job.hpp"

namespace ww::dc {

struct SimConfig {
  double batch_window_s = 60.0;  ///< Max wait between controller batches.
  /// Minimum spacing between controller batches.  Ticks align to job
  /// arrivals (event-driven) but never fire more often than this, so bursts
  /// accumulate into multi-job MILP batches while an idle controller reacts
  /// to a lone arrival immediately.
  double min_batch_interval_s = 2.0;
  double tol = 0.25;             ///< Delay tolerance (fraction of exec time).
  double capacity_scale = 1.0;   ///< Scales per-region servers (Fig. 11).
  bool record_jobs = false;      ///< Keep per-job outcomes in the result.
  bool integrate_footprints = true;  ///< Hourly integration vs. start-time
                                     ///< point sampling (faster).
};

class Simulator {
 public:
  Simulator(const env::Environment& env,
            const footprint::FootprintModel& footprint, SimConfig config = {});

  /// Runs the whole campaign; `jobs` must be sorted by submit_time.
  /// Throws std::invalid_argument, naming the job id, for a non-finite
  /// submit_time, a non-finite or non-positive exec_seconds, a negative or
  /// non-finite avg_power_watts or package_bytes, a home_region or
  /// benchmark out of range, or an id that appears twice.
  [[nodiscard]] CampaignResult run(const std::vector<trace::Job>& jobs,
                                   Scheduler& scheduler);

  /// Attaches a fault-injection campaign (env/faults.hpp).  All pointers are
  /// borrowed and must outlive the simulator.  `faults` drives the effective
  /// per-region capacity (outages and flaps gate *new* placements; running
  /// jobs drain through — degraded infrastructure stops accepting work, it
  /// does not kill work in flight).  `observed_env` / `observed_fp`, when
  /// given, replace the ScheduleContext's environment/footprint so the
  /// controller sees the biased Controller view while the ledger keeps
  /// integrating the true World view.  Pass nullptrs to detach.
  void set_fault_injection(
      const env::FaultSchedule* faults,
      const env::Environment* observed_env = nullptr,
      const footprint::FootprintModel* observed_fp = nullptr) noexcept {
    faults_ = faults;
    observed_env_ = observed_env;
    observed_footprint_ = observed_fp;
  }

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  /// Effective server count per region after capacity scaling.
  [[nodiscard]] std::vector<int> region_capacities() const;

 private:
  const env::Environment* env_;
  const footprint::FootprintModel* footprint_;
  SimConfig config_;
  const env::FaultSchedule* faults_ = nullptr;
  const env::Environment* observed_env_ = nullptr;
  const footprint::FootprintModel* observed_footprint_ = nullptr;
};

}  // namespace ww::dc
