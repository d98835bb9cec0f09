#include "trace/generator.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/csv.hpp"

namespace ww::trace {

TraceConfig borg_config(std::uint64_t seed, double days) {
  TraceConfig c;
  c.seed = seed;
  c.days = days;
  // 230,000 jobs over 10 days ~= 0.2662 jobs/s.
  c.arrival.base_rate_per_s = 230000.0 / (10.0 * 86400.0);
  c.arrival.shape = DiurnalShape::SinglePeak;
  c.arrival.diurnal_swing = 0.45;
  c.arrival.peak_hour = 14.0;
  c.arrival.burst_rate_multiplier = 2.2;
  c.arrival.calm_rate_multiplier = 0.65;
  // Submission skews toward the large-population regions.
  c.region_weights = {0.15, 0.18, 0.30, 0.15, 0.22};
  return c;
}

TraceConfig alibaba_config(std::uint64_t seed, double days) {
  TraceConfig c;
  c.seed = seed;
  c.days = days;
  c.arrival.base_rate_per_s = 8.5 * 230000.0 / (10.0 * 86400.0);
  c.arrival.shape = DiurnalShape::DoublePeak;
  c.arrival.diurnal_swing = 0.6;
  c.arrival.peak_hour = 20.0;  // evening peak (Asia-centric usage)
  c.arrival.burst_rate_multiplier = 3.0;
  c.arrival.calm_rate_multiplier = 0.55;
  c.arrival.mean_burst_seconds = 900.0;
  c.arrival.mean_calm_seconds = 3600.0;
  // Short-lived VM-style invocations keep utilization comparable despite the
  // 8.5x request rate.
  c.exec_scale = 1.0 / 8.5;
  c.region_weights = {0.10, 0.12, 0.18, 0.10, 0.50};
  return c;
}

namespace {

[[noreturn]] void reject(const char* field, double value, const char* rule) {
  throw std::invalid_argument(std::string("generate_trace: ") + field + " " +
                              std::to_string(value) + " " + rule);
}

}  // namespace

std::vector<Job> generate_trace(const TraceConfig& config) {
  if (config.num_regions <= 0)
    throw std::invalid_argument("generate_trace: need at least one region");
  // The negated comparisons also reject NaN.
  if (!(config.days >= 0.0 && std::isfinite(config.days)))
    reject("days", config.days, "must be finite and >= 0");
  if (!(config.rate_multiplier > 0.0 && std::isfinite(config.rate_multiplier)))
    reject("rate_multiplier", config.rate_multiplier, "must be finite and > 0");
  if (!(config.exec_scale > 0.0 && std::isfinite(config.exec_scale)))
    reject("exec_scale", config.exec_scale, "must be finite and > 0");
  std::vector<double> weights = config.region_weights;
  if (weights.empty())
    weights.assign(static_cast<std::size_t>(config.num_regions), 1.0);
  if (static_cast<int>(weights.size()) != config.num_regions)
    throw std::invalid_argument(
        "generate_trace: region_weights size must match num_regions");
  // The sum Rng::weighted_index would take for every job, taken once.
  double weight_total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0 && std::isfinite(w)))
      reject("region_weights", w, "must be finite and >= 0");
    weight_total += w;
  }
  if (!(weight_total > 0.0))
    reject("region_weights sum", weight_total, "must be > 0");

  util::Rng root(config.seed);
  ArrivalConfig arrival = config.arrival;
  arrival.base_rate_per_s *= config.rate_multiplier;
  const double horizon = config.days * 86400.0;
  const std::vector<double> times =
      generate_arrivals(arrival, horizon, root.child("arrivals"));

  // Each job draws its home region as Rng::weighted_index(weights) and its
  // benchmark as Rng::uniform_int(0, benchmarks - 1) would (Table 1 has
  // ten, so that draw is never skipped), then its instance as
  // sample_instance would.  What those recompute per call (the weight sum,
  // the rejection limit, the profile lookups) is computed once per trace.
  const std::vector<InstanceParams>& params = instance_params();
  const std::uint64_t benchmarks = params.size();
  const std::uint64_t limit = util::Rng::rejection_limit(benchmarks);
  util::Rng rng = root.child("jobs");
  std::vector<Job> jobs(times.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& j = jobs[i];
    j.id = static_cast<std::uint64_t>(i);
    j.submit_time = times[i];
    j.home_region = static_cast<int>(rng.weighted_pick(weights, weight_total));
    j.benchmark = static_cast<int>(rng.below(benchmarks, limit));
    draw_instance(params[static_cast<std::size_t>(j.benchmark)], rng, j);
    j.exec_seconds *= config.exec_scale;
  }
  return jobs;  // arrival thinning emits times in increasing order
}

void write_trace_csv(std::ostream& out, const std::vector<Job>& jobs) {
  util::CsvWriter w(out);
  w.write_row({"id", "submit_time", "home_region", "benchmark", "exec_seconds",
               "avg_power_watts", "package_bytes"});
  for (const Job& j : jobs) {
    w.write_row({std::to_string(j.id), util::format_double(j.submit_time),
                 std::to_string(j.home_region), std::to_string(j.benchmark),
                 util::format_double(j.exec_seconds),
                 util::format_double(j.avg_power_watts),
                 util::format_double(j.package_bytes)});
  }
}

namespace {

constexpr std::size_t kNumColumns = 7;

/// Parses the whole of field `col` (0-based, named `name`) of `row` as a
/// T, or throws naming the line and the column.  std::from_chars takes no
/// leading blanks or '+', and no '-' for an unsigned T.
template <typename T>
T parse_field(const std::vector<std::string>& row, std::size_t line,
              std::size_t col, const char* name) {
  const std::string& field = row[col];
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  const char* expected = "an unsigned integer";
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
    expected = "a finite number";
  } else if constexpr (std::is_signed_v<T>) {
    expected = "an integer";
  }
  if (!ok)
    throw std::runtime_error("read_trace_csv: line " + std::to_string(line) +
                             ", column " + std::to_string(col + 1) + " (" +
                             name + "): '" + field + "' is not " + expected);
  return value;
}

}  // namespace

std::vector<Job> read_trace_csv(std::istream& in) {
  const util::CsvReader reader(in);
  const auto& rows = reader.rows();
  if (rows.empty()) return {};
  std::vector<Job> jobs;
  jobs.reserve(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {  // skip header
    const auto& r = rows[i];
    const std::size_t line = i + 1;
    if (r.size() != kNumColumns)
      throw std::runtime_error("read_trace_csv: line " + std::to_string(line) +
                               ": expected " + std::to_string(kNumColumns) +
                               " columns, got " + std::to_string(r.size()));
    Job j;
    j.id = parse_field<std::uint64_t>(r, line, 0, "id");
    j.submit_time = parse_field<double>(r, line, 1, "submit_time");
    j.home_region = parse_field<int>(r, line, 2, "home_region");
    j.benchmark = parse_field<int>(r, line, 3, "benchmark");
    j.exec_seconds = parse_field<double>(r, line, 4, "exec_seconds");
    j.avg_power_watts = parse_field<double>(r, line, 5, "avg_power_watts");
    j.package_bytes = parse_field<double>(r, line, 6, "package_bytes");
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace ww::trace
