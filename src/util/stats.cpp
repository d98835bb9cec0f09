#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ww::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> sample, double p) {
  if (sample.empty()) throw std::invalid_argument("percentile: empty sample");
  // Negated so a NaN p, which compares false, is rejected too.
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile: p out of [0,100]");
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> sample) noexcept {
  RunningStats s;
  for (const double x : sample) s.add(x);
  return s.mean();
}

double stddev(std::span<const double> sample) noexcept {
  RunningStats s;
  for (const double x : sample) s.add(x);
  return s.stddev();
}

double correlation(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size())
    throw std::invalid_argument("correlation: size mismatch");
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.empty())
    throw std::invalid_argument("linear_fit: bad input sizes");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  LinearFit fit;
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  // An infinite bound makes hi - lo infinite (or NaN), and every bin edge
  // and quantile read off it NaN.
  const double span = hi - lo;
  if (!(span > 0.0) || !std::isfinite(span) || bins == 0)
    throw std::invalid_argument(
        "Histogram: require finite hi - lo > 0 and bins > 0");
}

void Histogram::add(double x) noexcept {
  // Casting a NaN or out-of-range scaled value to an integer is undefined
  // behaviour, so non-finite samples land in a counted drop bucket and
  // finite samples are range-checked *before* the cast (clamping after the
  // cast would be too late for huge values like 1e300).
  if (!std::isfinite(x)) {
    ++dropped_;
    return;
  }
  std::size_t idx;
  if (x <= lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    const double span = hi_ - lo_;
    const double scaled = (x - lo_) / span * static_cast<double>(counts_.size());
    idx = std::min(static_cast<std::size_t>(scaled), counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t i) const { return counts_.at(i); }

double Histogram::quantile(double q) const {
  // Negated so a NaN q, which compares false, is rejected too.
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("Histogram::quantile: q out of [0,1]");
  if (total_ == 0) return 0.0;
  // Target rank in [1, total]; ceil keeps q=0 on the first sample and the
  // whole walk in exact integer arithmetic.
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(total_))));
  std::size_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (seen + counts_[i] >= rank) {
      // Interpolate inside the bin: the k-th of c samples sits at fraction
      // (k - 0.5) / c of the bin width (midpoint convention, so a
      // single-sample bin reports its midpoint, not an edge).
      const auto k = static_cast<double>(rank - seen);
      const auto c = static_cast<double>(counts_[i]);
      const double frac = (k - 0.5) / c;
      return bin_lo(i) + (bin_hi(i) - bin_lo(i)) * frac;
    }
    seen += counts_[i];
  }
  return hi_;  // Unreachable when counts are consistent with total_.
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ ||
      other.counts_.size() != counts_.size())
    throw std::invalid_argument("Histogram::merge: layout mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  total_ += other.total_;
  dropped_ += other.dropped_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

}  // namespace ww::util
