// Deterministic metrics registry: named counters, gauges, and
// quantile-capable histograms behind typed handles.
//
// Determinism contract (the reason this exists instead of a third-party
// metrics client): every exported artifact is reproducible given the same
// inputs.  Registration order defines handle ids; JSON export iterates
// name-ordered.  The registry is single-writer: registration and mutation
// happen on the owning thread only.  Work done on other threads reports
// back through plain values its owner records in a deterministic order:
// the scheduler's chunk solves return their stats deltas in their result
// slot, and commit folds them in chunk-index order, never completion
// order.  Histogram bins are integer counts, so the exported bytes do not
// depend on how the samples were grouped.
//
// Two kinds of registry exist.  Each dc::CampaignResult carries the
// simulator's "service.*" histograms (queue depth per window,
// time-to-admission per admitted job), and WaterWiseScheduler keeps its
// "sched.*" solver counters.  Wall-clock derived values (the solve-seconds
// gauges) are observational — they may differ run to run and are exported
// for humans, while counters and sim-time histograms are byte-stable and
// safe to assert on in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ww::obs {

/// Typed handles: cheap value types resolved once at registration so hot
/// paths never do string lookups.  Default-constructed handles are invalid
/// and ignored by mutators (so optional instrumentation can stay unwired).
struct Counter {
  std::size_t id = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const noexcept {
    return id != static_cast<std::size_t>(-1);
  }
};
struct Gauge {
  std::size_t id = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const noexcept {
    return id != static_cast<std::size_t>(-1);
  }
};
struct Hist {
  std::size_t id = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const noexcept {
    return id != static_cast<std::size_t>(-1);
  }
};

class Registry {
 public:
  /// Register-or-lookup by name.  Re-registering an existing name returns
  /// the same handle; a histogram re-registered with a different layout
  /// throws (two call sites disagreeing on bins is a bug, not a merge).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Hist histogram(const std::string& name, double lo, double hi,
                 std::size_t bins);

  void add(Counter c, std::uint64_t delta = 1) noexcept;
  void add(Gauge g, double delta) noexcept;
  void set(Gauge g, double value) noexcept;
  void observe(Hist h, double sample) noexcept;

  [[nodiscard]] std::uint64_t counter_value(Counter c) const;
  [[nodiscard]] double gauge_value(Gauge g) const;
  [[nodiscard]] const util::Histogram& hist(Hist h) const;

  /// Const lookups by name for consumers without handles (bench printers,
  /// tests); nullptr when the name was never registered.
  [[nodiscard]] const std::uint64_t* find_counter(
      const std::string& name) const;
  [[nodiscard]] const util::Histogram* find_hist(const std::string& name) const;

  /// Name-ordered JSON: counters and gauges as flat maps, histograms with
  /// layout, totals, p50/p95/p99 (util::Histogram::quantile), and bin
  /// counts.  Deterministic given deterministic values.
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::size_t> counter_ids_;
  std::map<std::string, std::size_t> gauge_ids_;
  std::map<std::string, std::size_t> hist_ids_;
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<util::Histogram> hists_;
};

}  // namespace ww::obs
