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
#include "env/faults.hpp"
#include "trace/job.hpp"

namespace ww::dc {

struct SimConfig {
  /// Max wait between controller batches.  Batch ticks align to job
  /// arrivals but are at least 2 s apart, so the window may not be shorter.
  double batch_window_s = 60.0;
  double tol = 0.25;             ///< Delay tolerance (fraction of exec time).
  double capacity_scale = 1.0;   ///< Scales per-region servers (Fig. 11).
  bool record_jobs = false;      ///< Keep per-job outcomes in the result.
};

class Simulator {
 public:
  /// Throws std::invalid_argument for a batch window shorter than the 2 s
  /// minimum batch interval or a negative delay tolerance.
  Simulator(const env::Environment& env,
            const footprint::FootprintModel& footprint, SimConfig config = {});

  /// Runs the whole campaign; `jobs` must be sorted by submit_time.
  /// Throws std::invalid_argument, naming the job id, for a non-finite
  /// submit_time, a non-finite or non-positive exec_seconds, a negative or
  /// non-finite avg_power_watts or package_bytes, a home_region or
  /// benchmark out of range, or an id that appears twice.
  [[nodiscard]] CampaignResult run(const std::vector<trace::Job>& jobs,
                                   Scheduler& scheduler);

  /// Attaches a fault-injection campaign (env/faults.hpp).  The schedule is
  /// borrowed and must outlive the simulator.  It drives the effective
  /// per-region capacity (outages and flaps gate *new* placements; running
  /// jobs drain through — degraded infrastructure stops accepting work, it
  /// does not kill work in flight).  It also splits the footprint model
  /// into the campaign's two views of the one environment: the ledger
  /// integrates the World view (scarcity shocks), and the ScheduleContext
  /// carries the Controller view (shocks plus forecast bias); these
  /// replace any overlay the footprint model was given.  Throws
  /// std::invalid_argument, naming both counts, when the schedule's region
  /// count differs from the environment's.  Pass nullptr to detach.
  void set_fault_injection(const env::FaultSchedule* faults);

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  /// Effective server count per region after capacity scaling.
  [[nodiscard]] std::vector<int> region_capacities() const;

 private:
  const env::Environment* env_;
  const footprint::FootprintModel* footprint_;
  SimConfig config_;
  const env::FaultSchedule* faults_ = nullptr;
};

}  // namespace ww::dc
