// Scheduler interface between the simulator and all scheduling policies.
//
// The simulator batches pending jobs at a fixed window (the paper's Decision
// Controller cadence), presents them with the current environment state and
// capacity view, and applies the returned placement decisions.  Jobs the
// scheduler does not decide on stay pending and reappear in the next batch
// (the paper's J_delay set in Algorithm 1).
//
// The simulator, not the scheduler, records the service-level metrics of
// every window: it times each schedule() call, counts the jobs pending and
// measures each admitted job's wait (CampaignResult::overhead_series and
// CampaignResult::service).  A scheduler needs no clock or hook for them.
#pragma once

#include <string>
#include <vector>

#include "env/environment.hpp"
#include "footprint/footprint.hpp"
#include "trace/job.hpp"

namespace ww::dc {

/// A job awaiting placement, with the controller's (possibly inaccurate)
/// mean estimates of its execution time and energy (paper Sec. 4).
struct PendingJob {
  const trace::Job* job = nullptr;
  double first_seen = 0.0;      ///< T_start_m: when the controller got it.
  double est_exec_s = 0.0;      ///< Mean estimate from prior executions.
  double est_energy_kwh = 0.0;  ///< Mean estimate from prior executions.
};

/// Placement decision for one job.
struct Decision {
  std::uint64_t job_id = 0;
  int region = 0;
  /// Execution start time; must be >= now + transfer latency for remote
  /// placements.  Greedy-optimal oracles may set it further in the future.
  double start_time = 0.0;
  /// Ecovisor-style power scaling in (0, 1]: power multiplies by this,
  /// duration divides by it (energy conserved).
  double power_scale = 1.0;
};

/// Read-only view of region capacities, implemented by the simulator.
class CapacityView {
 public:
  virtual ~CapacityView() = default;
  [[nodiscard]] virtual int num_regions() const = 0;
  [[nodiscard]] virtual int capacity(int region) const = 0;
  /// Free servers at instant t (cap(n) of Eq. 10 when t = now).
  [[nodiscard]] virtual int free_at(int region, double t) const = 0;
  /// Peak occupancy over [start, end) — the greedy oracles' future view.
  [[nodiscard]] virtual int max_occupancy(int region, double start,
                                          double end) const = 0;
};

/// What a scheduler may observe at one batch window.  `footprint` is the
/// controller's view: every intensity comes from its sample(r, t), which
/// carries a fault campaign's forecast bias and scarcity shocks, and
/// everything else (price, PUE, transfer geometry) from
/// `footprint->environment()`.
struct ScheduleContext {
  double now = 0.0;
  double tol = 0.25;  ///< Delay tolerance (fraction; 0.25 = 25%).
  const footprint::FootprintModel* footprint = nullptr;
  const CapacityView* capacity = nullptr;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Returns decisions for any subset of `batch`; undecided jobs stay
  /// pending.  Decisions violating capacity, starting before transfer
  /// completion, or with a NaN or +inf start or an empty run are rejected
  /// by the simulator (the job stays pending).
  [[nodiscard]] virtual std::vector<Decision> schedule(
      const std::vector<PendingJob>& batch, const ScheduleContext& ctx) = 0;

  /// Completion callback (drives online execution-time/energy learning).
  virtual void on_job_finished(const trace::Job& job) { (void)job; }
};

}  // namespace ww::dc
