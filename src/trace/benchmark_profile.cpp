#include "trace/benchmark_profile.hpp"

#include <cmath>
#include <stdexcept>

namespace ww::trace {

const std::vector<BenchmarkProfile>& benchmark_profiles() {
  static const std::vector<BenchmarkProfile> profiles = {
      // PARSEC-3.0 (Table 1).
      {"Dedup", "PARSEC", "Data Compression", 60.0, 0.12, 310.0, 0.08, 350.0},
      {"Netdedup", "PARSEC", "Data Compression", 75.0, 0.12, 320.0, 0.08, 380.0},
      {"Canneal", "PARSEC", "Engineering", 140.0, 0.15, 340.0, 0.08, 480.0},
      {"Blackscholes", "PARSEC", "Financial Analysis", 45.0, 0.1, 290.0, 0.07, 160.0},
      {"Swaptions", "PARSEC", "Financial Analysis", 55.0, 0.1, 300.0, 0.07, 170.0},
      // CloudSuite (Table 1).
      {"DataCaching", "CloudSuite", "Data Caching", 120.0, 0.16, 280.0, 0.10, 700.0},
      {"GraphAnalytics", "CloudSuite", "Graph Analytics", 220.0, 0.18, 360.0, 0.10, 900.0},
      {"WebServing", "CloudSuite", "Web Serving", 90.0, 0.14, 270.0, 0.09, 650.0},
      {"MemoryAnalytics", "CloudSuite", "Memory Analytics", 160.0, 0.16, 350.0, 0.09, 800.0},
      {"MediaStreaming", "CloudSuite", "Media Streaming", 110.0, 0.14, 300.0, 0.09, 1000.0},
  };
  return profiles;
}

const BenchmarkProfile& profile(int benchmark) {
  const auto& all = benchmark_profiles();
  if (benchmark < 0 || static_cast<std::size_t>(benchmark) >= all.size())
    throw std::out_of_range("unknown benchmark index");
  return all[static_cast<std::size_t>(benchmark)];
}

int num_benchmarks() {
  return static_cast<int>(benchmark_profiles().size());
}

namespace {

/// Parameters (mu, sigma) of the underlying normals of one benchmark's
/// log-normal execution time and power.
struct LogNormalParams {
  double exec_mu, exec_sigma, power_mu, power_sigma;
};

/// Per-benchmark log-normal parameters, computed once.  For a profile mean
/// and CV: sigma^2 = ln(1 + cv^2), mu = ln(mean) - sigma^2 / 2.
const std::vector<LogNormalParams>& lognormal_params() {
  static const std::vector<LogNormalParams> params = [] {
    std::vector<LogNormalParams> out;
    for (const BenchmarkProfile& p : benchmark_profiles()) {
      const double s2e = std::log(1.0 + p.exec_cv * p.exec_cv);
      const double s2p = std::log(1.0 + p.power_cv * p.power_cv);
      out.push_back({std::log(p.mean_exec_s) - 0.5 * s2e, std::sqrt(s2e),
                     std::log(p.mean_power_w) - 0.5 * s2p, std::sqrt(s2p)});
    }
    return out;
  }();
  return params;
}

}  // namespace

void sample_instance(int benchmark, util::Rng& rng, Job& out) {
  const BenchmarkProfile& p = profile(benchmark);
  const LogNormalParams& ln =
      lognormal_params()[static_cast<std::size_t>(benchmark)];
  out.benchmark = benchmark;
  out.exec_seconds = rng.lognormal(ln.exec_mu, ln.exec_sigma);
  out.avg_power_watts = rng.lognormal(ln.power_mu, ln.power_sigma);
  // Package size varies mildly with input set.
  out.package_bytes = p.package_mb * 1.0e6 * rng.uniform(0.85, 1.15);
}

double mean_exec_seconds_overall() {
  double total = 0.0;
  for (const auto& p : benchmark_profiles()) total += p.mean_exec_s;
  return total / static_cast<double>(benchmark_profiles().size());
}

}  // namespace ww::trace
