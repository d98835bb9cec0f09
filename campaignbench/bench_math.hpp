// Metric math of the campaign benchmark, kept free of simulator types so
// bench_math_test.cpp can pin it down on hand-built inputs:
//
//   * quantiles of raw samples, refused unless at least ten samples lie
//     beyond the reported rank (a p99 needs >= 1000 samples);
//   * the host-speed reference kernel that timing metrics are scaled by;
//   * per-span self time folded from an obs::Trace Chrome-JSON export;
//   * the FNV-1a fingerprint that makes campaign outputs comparable byte
//     for byte across runs, repetitions and thread counts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace campaignbench {

/// Samples ranked strictly above the nearest-rank q-quantile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps q*n = 990.0000000000001 (0.99 is inexact) at rank 990.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank q-quantile of raw samples.  Throws unless `min_beyond`
/// samples lie above the reported rank, so a tail percentile is never read
/// off a handful of points (or off fixed histogram bins).
[[nodiscard]] inline double quantile(std::vector<double> samples, double q,
                                     std::size_t min_beyond = 10) {
  const std::size_t n = samples.size();
  if (n == 0 || samples_beyond(n, q) < min_beyond)
    throw std::runtime_error(
        "quantile " + std::to_string(q) + " of " + std::to_string(n) +
        " sample(s) has fewer than " + std::to_string(min_beyond) +
        " samples beyond it");
  const std::size_t rank = n - samples_beyond(n, q);  // 1-based
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a small set of per-repetition values (lower middle for even
/// counts, so the value is always one that was measured).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no values");
  const std::size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

/// Host-speed reference.  On a shared host a neighbour can slow every
/// instruction stream by up to 1.7x for tens of seconds at a time, longer
/// than a run, so no number of repetitions inside one run averages it out.
/// The benchmark times this fixed kernel around every campaign run and
/// scales the run's times by (kReferenceKernelSeconds / kernel time) ^
/// kHostExponent: times are reported at the speed of a host on which the
/// kernel takes kReferenceKernelSeconds.  The kernel mixes the work a
/// scheduling window does: a sort, ordered-map inserts (allocation, pointer
/// chasing) and floating-point math.  It does not call the program, so a
/// change to the program moves the scaled times exactly as it moves the raw
/// ones.
inline constexpr double kReferenceKernelSeconds = 1.3e-3;

/// How much more a serial campaign slows than the kernel when a neighbour
/// slows the host: the log-slope of campaign time against kernel time,
/// measured over ten 20-second runs per workload, was 1.1 to 1.5
/// (README.md).
inline constexpr double kHostExponent = 1.5;

/// One pass of the reference kernel.  Returns a checksum so that the work
/// cannot be optimised away; the checksum never changes.
[[nodiscard]] inline double reference_kernel() {
  static const std::vector<double> data = [] {
    std::vector<double> v(1 << 14);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    return v;
  }();
  std::vector<double> v = data;
  std::sort(v.begin(), v.end());
  std::map<int, double> m;
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += std::sqrt(v[i]) * std::log1p(v[i]);
    if (i % 8 == 0) m[static_cast<int>(v[i] * 1e6)] += acc;
  }
  for (const auto& [key, value] : m) acc -= value * 1e-9;
  return acc;
}

/// Fastest of three timed passes of the reference kernel, in seconds.
[[nodiscard]] inline double time_reference_kernel() {
  double fastest = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    volatile double sink = reference_kernel();
    (void)sink;
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (i == 0 || s < fastest) fastest = s;
  }
  return fastest;
}

/// Factor that brings a time measured while the kernel took `kernel_s` to
/// the reference host speed.
[[nodiscard]] inline double host_scale(double kernel_s) {
  if (!(kernel_s > 0.0)) throw std::runtime_error("kernel time must be > 0");
  return std::pow(kReferenceKernelSeconds / kernel_s, kHostExponent);
}

struct SpanEvent {
  std::string name;
  char phase = 'B';  ///< 'B' (begin) or 'E' (end).
  std::int64_t ts_us = 0;
  int tid = 0;
};

/// Parses the event lines of obs::Trace::write_chrome_json (one event per
/// line: name, ph, ts, pid, tid, optional args).
[[nodiscard]] inline std::vector<SpanEvent> parse_chrome_trace(
    std::string_view json) {
  const auto field = [](std::string_view line, std::string_view key) {
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos)
      throw std::runtime_error("trace event without " + std::string(key));
    return line.substr(at + key.size());
  };
  const auto to_int = [](std::string_view s) {
    std::int64_t v = 0;
    bool neg = !s.empty() && s.front() == '-';
    for (std::size_t i = neg ? 1 : 0; i < s.size() && s[i] >= '0' && s[i] <= '9';
         ++i)
      v = v * 10 + (s[i] - '0');
    return neg ? -v : v;
  };
  std::vector<SpanEvent> events;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t end = json.find('\n', pos);
    if (end == std::string_view::npos) end = json.size();
    const std::string_view line = json.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("{\"name\": \"", 0) != 0) continue;
    SpanEvent ev;
    const std::string_view name = field(line, "\"name\": \"");
    ev.name = std::string(name.substr(0, name.find('"')));
    ev.phase = field(line, "\"ph\": \"").front();
    ev.ts_us = to_int(field(line, "\"ts\": "));
    ev.tid = static_cast<int>(to_int(field(line, "\"tid\": ")));
    events.push_back(std::move(ev));
  }
  return events;
}

/// Self time per span name, in seconds: each span's duration minus the part
/// of it that its direct children on the same thread cover, summed over all
/// spans of that name on all threads.  Events must be in append order per
/// thread (threads may interleave).  Throws on an unbalanced or mis-nested
/// stream rather than report a partial breakdown.
[[nodiscard]] inline std::map<std::string, double> fold_self_seconds(
    const std::vector<SpanEvent>& events) {
  struct Frame {
    const std::string* name;
    std::int64_t start_us;
    std::int64_t child_us;
  };
  std::map<int, std::vector<Frame>> stacks;
  std::map<std::string, std::int64_t> self_us;
  for (const SpanEvent& ev : events) {
    std::vector<Frame>& stack = stacks[ev.tid];
    if (ev.phase == 'B') {
      stack.push_back({&ev.name, ev.ts_us, 0});
      continue;
    }
    if (ev.phase != 'E' || stack.empty() || *stack.back().name != ev.name)
      throw std::runtime_error("mis-nested trace event '" + ev.name + "'");
    const Frame frame = stack.back();
    stack.pop_back();
    const std::int64_t duration = ev.ts_us - frame.start_us;
    self_us[ev.name] += duration - frame.child_us;
    if (!stack.empty()) stack.back().child_us += duration;
  }
  for (const auto& [tid, stack] : stacks)
    if (!stack.empty())
      throw std::runtime_error("unclosed trace span '" + *stack.back().name +
                               "' on tid " + std::to_string(tid));
  std::map<std::string, double> out;
  for (const auto& [name, us] : self_us)
    out[name] = static_cast<double>(us) * 1e-6;
  return out;
}

/// FNV-1a over the exact bytes of the values folded in.
class Fingerprint {
 public:
  template <typename T>
  Fingerprint& add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace campaignbench
