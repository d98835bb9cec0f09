// Workload profiles for the ten benchmarks of Table 1.
//
// The paper profiles PARSEC-3.0 and CloudSuite applications on m5.metal
// (Likwid/RAPL energy, wall-clock time) and feeds the *mean* estimates to the
// scheduler while actual per-invocation behaviour varies.  We encode each
// benchmark as mean execution time / mean power with log-normal dispersion;
// individual job instances are sampled from these distributions, so the
// scheduler's estimates are naturally inaccurate — exactly the situation
// Sec. 4 describes.
#pragma once

#include <string>
#include <vector>

#include "trace/job.hpp"
#include "util/rng.hpp"

namespace ww::trace {

struct BenchmarkProfile {
  std::string name;
  std::string suite;    ///< "PARSEC" or "CloudSuite".
  std::string domain;   ///< Scientific domain per Table 1.
  double mean_exec_s = 60.0;
  double exec_cv = 0.3;       ///< Coefficient of variation (log-normal).
  double mean_power_w = 300.0;
  double power_cv = 0.08;
  double package_mb = 200.0;  ///< Execution-files .tar size.
};

/// The ten benchmarks of Table 1 (five PARSEC, five CloudSuite), with means
/// calibrated so the Borg-rate campaign lands at ~15% cluster utilization.
[[nodiscard]] const std::vector<BenchmarkProfile>& benchmark_profiles();

[[nodiscard]] const BenchmarkProfile& profile(int benchmark);
[[nodiscard]] int num_benchmarks();

/// What a job instance of one benchmark is drawn from: the parameters (mu,
/// sigma) of the normals under its log-normal execution time and power, and
/// its profile's package size in bytes.  For a profile mean and CV,
/// sigma^2 = ln(1 + cv^2) and mu = ln(mean) - sigma^2 / 2.
struct InstanceParams {
  double exec_mu, exec_sigma, power_mu, power_sigma, package_bytes;
};

/// One row per benchmark, in benchmark_profiles() order, computed once.
[[nodiscard]] const std::vector<InstanceParams>& instance_params();

/// Draws a job instance's execution time, power and package size from
/// `params`, in that order.  Sets no other field of `out`.
inline void draw_instance(const InstanceParams& params, util::Rng& rng,
                          Job& out) noexcept {
  out.exec_seconds = rng.lognormal(params.exec_mu, params.exec_sigma);
  out.avg_power_watts = rng.lognormal(params.power_mu, params.power_sigma);
  // Package size varies mildly with input set.
  out.package_bytes = params.package_bytes * rng.uniform(0.85, 1.15);
}

/// Samples a concrete job instance of `benchmark` (exec time, power, package
/// size) from the profile distributions.  Throws std::out_of_range for an
/// unknown benchmark index.
void sample_instance(int benchmark, util::Rng& rng, Job& out);

/// Mean execution time across benchmarks weighted uniformly; used to size
/// utilization targets.
[[nodiscard]] double mean_exec_seconds_overall();

}  // namespace ww::trace
