// Streaming and batch statistics used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ww::util {

/// Welford streaming accumulator: numerically stable mean/variance plus
/// min/max, usable over arbitrarily long simulations without storing samples.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< Sample variance (n-1).
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolated percentile of an unsorted sample, p in [0, 100].
/// Throws std::invalid_argument on an empty sample or a p outside [0, 100]
/// (NaN included).
[[nodiscard]] double percentile(std::span<const double> sample, double p);

[[nodiscard]] double mean(std::span<const double> sample) noexcept;
[[nodiscard]] double stddev(std::span<const double> sample) noexcept;

/// Pearson correlation coefficient; 0 when either side is constant.
[[nodiscard]] double correlation(std::span<const double> x,
                                 std::span<const double> y);

/// Least-squares line y = a + b*x; returns {a, b}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
};
[[nodiscard]] LinearFit linear_fit(std::span<const double> x,
                                   std::span<const double> y);

/// Fixed-width histogram over [lo, hi); finite out-of-range samples clamp
/// to the edge bins so mass is conserved.  Non-finite samples (NaN, ±inf)
/// are routed to a counted drop bucket — binning them would be undefined
/// behaviour — and are excluded from total().
class Histogram {
 public:
  /// Throws std::invalid_argument unless hi - lo is finite and positive
  /// and bins > 0.
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count(std::size_t i) const;
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }

  /// Deterministic quantile estimate, q in [0, 1]: walks the bins to the
  /// one holding the q-th sample and interpolates linearly inside it
  /// (samples assumed uniform within a bin).  Pure integer bin walk plus
  /// one fixed-order float expression, so the result depends only on bin
  /// contents — never on insertion order or thread count.  Returns 0 on an
  /// empty histogram; dropped (non-finite) samples are excluded.  Throws
  /// std::invalid_argument on a q outside [0, 1] (NaN included).
  [[nodiscard]] double quantile(double q) const;

  /// Fold `other` into this histogram bin-by-bin.  Both sides must share
  /// the exact same layout (lo, hi, bin count) — merging differently-shaped
  /// histograms would silently rebin, so a mismatch throws instead.
  /// Drop-bucket counts accumulate too.
  void merge(const Histogram& other);

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t dropped_ = 0;  ///< Non-finite samples rejected by add().
};

}  // namespace ww::util
