// Production-trace synthesis: Google-Borg-like and Alibaba-like campaigns.
//
// The paper replays a 10-day window of the Google Borg trace (~230,000 jobs;
// ~0.27 jobs/s long-run rate against 175 servers => ~15% utilization) and,
// for robustness, the Alibaba VM trace, which invokes jobs 8.5x faster
// (Sec. 6 / Fig. 13).  The generators reproduce those aggregate rates, the
// diurnal + bursty arrival structure, per-region submission weights, and
// per-job workload sampling from the Table 1 benchmark profiles.
#pragma once

#include <iosfwd>
#include <vector>

#include "trace/arrival.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/job.hpp"

namespace ww::trace {

struct TraceConfig {
  std::uint64_t seed = 7;
  double days = 10.0;
  int num_regions = 5;
  double rate_multiplier = 1.0;  ///< 2.0 = the doubled-request experiment.
  /// Per-region submission weights; empty = uniform.
  std::vector<double> region_weights;
  /// Scales sampled execution times (Alibaba jobs are short-lived VMs).
  double exec_scale = 1.0;
  ArrivalConfig arrival;
};

/// Borg-like defaults: 0.2662 jobs/s => ~230k jobs over 10 days, single
/// afternoon peak, moderate burstiness.
[[nodiscard]] TraceConfig borg_config(std::uint64_t seed = 7,
                                      double days = 10.0);

/// Alibaba-like defaults: 8.5x invocation rate, double-peaked day, burstier,
/// proportionally shorter jobs (so cluster utilization stays comparable).
[[nodiscard]] TraceConfig alibaba_config(std::uint64_t seed = 7,
                                         double days = 10.0);

/// Generates a submit-time-sorted job list.  Throws std::invalid_argument,
/// naming the field, when `num_regions` is not positive, `days` is negative
/// or non-finite, `rate_multiplier` or `exec_scale` is not finite and
/// positive, `region_weights` has the wrong size or a negative or non-finite
/// entry, or generate_arrivals rejects the (rate-multiplied) arrival config.
[[nodiscard]] std::vector<Job> generate_trace(const TraceConfig& config);

/// CSV persistence (header + one row per job), for sharing traces between
/// binaries and for offline inspection.
void write_trace_csv(std::ostream& out, const std::vector<Job>& jobs);
/// Reads what write_trace_csv writes.  Every row must have exactly seven
/// fields, each parsed whole: the id an unsigned decimal integer (no
/// sign), the region and benchmark decimal integers, and the rest finite
/// numbers; no blanks or trailing characters.  A bad row throws
/// std::runtime_error naming its line (the header is line 1; blank lines
/// are not counted) and, for a bad field, its column.  Value ranges (region,
/// benchmark, positive times) are dc::Simulator::run's to check.
[[nodiscard]] std::vector<Job> read_trace_csv(std::istream& in);

}  // namespace ww::trace
