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

const std::vector<InstanceParams>& instance_params() {
  static const std::vector<InstanceParams> params = [] {
    std::vector<InstanceParams> out;
    for (const BenchmarkProfile& p : benchmark_profiles()) {
      const double s2e = std::log(1.0 + p.exec_cv * p.exec_cv);
      const double s2p = std::log(1.0 + p.power_cv * p.power_cv);
      out.push_back({std::log(p.mean_exec_s) - 0.5 * s2e, std::sqrt(s2e),
                     std::log(p.mean_power_w) - 0.5 * s2p, std::sqrt(s2p),
                     p.package_mb * 1.0e6});
    }
    return out;
  }();
  return params;
}

void sample_instance(int benchmark, util::Rng& rng, Job& out) {
  (void)profile(benchmark);  // the index check
  out.benchmark = benchmark;
  draw_instance(instance_params()[static_cast<std::size_t>(benchmark)], rng,
                out);
}

double mean_exec_seconds_overall() {
  double total = 0.0;
  for (const auto& p : benchmark_profiles()) total += p.mean_exec_s;
  return total / static_cast<double>(benchmark_profiles().size());
}

}  // namespace ww::trace
