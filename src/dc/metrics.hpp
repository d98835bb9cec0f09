// Campaign results: the figures of merit of Sec. 5.
//
// Primary metrics are total carbon footprint and total (scarcity-weighted)
// water footprint, reported as % savings against the Baseline run on the
// identical trace.  Secondary metrics: average service time normalized to
// execution time, % of jobs violating their delay tolerance (Table 2),
// per-region job distribution (Fig. 3b), and decision-making overhead
// (Fig. 13).
#pragma once

#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "util/stats.hpp"

namespace ww::dc {

/// Per-job outcome (kept only when SimConfig::record_jobs is set).
struct JobOutcome {
  std::uint64_t job_id = 0;
  int home_region = 0;
  int exec_region = 0;
  double submit_time = 0.0;
  double start_time = 0.0;   ///< Execution start (after queue + transfer).
  double finish_time = 0.0;
  double exec_seconds = 0.0; ///< Actual run duration (after power scaling).
  double carbon_g = 0.0;     ///< Execution + transfer share.
  double water_l = 0.0;
  bool violated = false;
};

struct CampaignResult {
  std::string scheduler_name;
  double tol = 0.0;

  long num_jobs = 0;
  double total_carbon_g = 0.0;
  double total_water_l = 0.0;
  double transfer_carbon_g = 0.0;  ///< Included in total_carbon_g.
  double transfer_water_l = 0.0;   ///< Included in total_water_l.
  double embodied_carbon_g = 0.0;  ///< Included in total_carbon_g.
  double embodied_water_l = 0.0;   ///< Included in total_water_l.
  double total_cost_usd = 0.0;     ///< Electricity cost (Sec. 7 extension).

  util::RunningStats service_norm;  ///< service_time / exec_time per job.
  long violations = 0;
  std::vector<long> jobs_per_region;

  double decision_seconds_total = 0.0;  ///< Sum of overhead_series' seconds.
  /// (sim minute, decision seconds in that batch) pairs for Fig. 13: the
  /// one record of decision latency, the simulator's wall-clock measurement
  /// of every schedule() call.  Its size is the number of batch windows.
  std::vector<std::pair<double, double>> overhead_series;
  /// Service-level histograms, the same for every scheduler and
  /// deterministic: "service.queue_depth" (jobs pending per window) and
  /// "service.time_to_admission_s" (sim-time from first sighting to
  /// admission, per admitted job).
  obs::Registry service;

  double mean_exec_seconds = 0.0;
  double makespan_seconds = 0.0;

  std::vector<JobOutcome> jobs;  ///< Optional per-job records.

  [[nodiscard]] double violation_pct() const {
    return num_jobs ? 100.0 * static_cast<double>(violations) /
                          static_cast<double>(num_jobs)
                    : 0.0;
  }
  [[nodiscard]] double mean_service_norm() const {
    return service_norm.mean();
  }
  /// % carbon saving relative to `base` (positive = this result is better).
  [[nodiscard]] double carbon_saving_pct_vs(const CampaignResult& base) const;
  [[nodiscard]] double water_saving_pct_vs(const CampaignResult& base) const;
  [[nodiscard]] double cost_saving_pct_vs(const CampaignResult& base) const;
  /// Decision overhead as % of the mean job execution time (Fig. 13 metric).
  [[nodiscard]] double mean_overhead_pct_of_exec() const;
  /// Share of jobs executed in each region, % (Fig. 3b).
  [[nodiscard]] std::vector<double> region_share_pct() const;
};

}  // namespace ww::dc
