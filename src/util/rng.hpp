// Deterministic random number generation for reproducible experiments.
//
// Every stochastic input in WaterWise (traces, weather, energy-mix noise,
// estimate error) is derived from a named 64-bit seed through this module, so
// any experiment re-runs bit-for-bit.  The generator is xoshiro256**, seeded
// through SplitMix64 as its authors recommend; named child streams are formed
// by hashing a label into the parent seed, which keeps independent subsystems
// statistically decoupled without a global ordering dependency.
#pragma once

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ww::util {

/// SplitMix64 step: the standard 64-bit seed expander / string mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// FNV-1a hash of a label, used to derive named child seeds.
[[nodiscard]] std::uint64_t hash_label(std::string_view label) noexcept;

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies std::uniform_random_bit_generator, so it can also feed
/// <random> distributions when needed.  The draws trace generation makes
/// per job and per arrival candidate are defined here, inline.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// Independent child stream identified by a stable label.
  [[nodiscard]] Rng child(std::string_view label) const noexcept;
  /// Independent child stream identified by an index (e.g. per-region).
  [[nodiscard]] Rng child(std::uint64_t index) const noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }
  result_type operator()() noexcept { return next(); }

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    // 53-bit mantissa construction for uniform doubles in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [lo, hi] (inclusive); lo when lo >= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// The rejection limit below() takes for `range` (> 0): the largest
  /// multiple of `range` that max() reaches.
  [[nodiscard]] static constexpr std::uint64_t rejection_limit(
      std::uint64_t range) noexcept {
    return max() - max() % range;
  }
  /// Uniform integer in [0, range), for range > 0 and limit =
  /// rejection_limit(range); draws at or above the limit are rejected to
  /// remove modulo bias.  uniform_int draws through it; a caller making
  /// many draws over one range computes the limit once.
  [[nodiscard]] std::uint64_t below(std::uint64_t range,
                                    std::uint64_t limit) noexcept {
    std::uint64_t r;
    do {
      r = next();
    } while (r >= limit);
    return r % range;
  }
  /// Standard normal via Box-Muller (cached spare).
  [[nodiscard]] double normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_normal_;
    }
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
    has_spare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
  }
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }
  /// Log-normal with given parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }
  /// Exponential with rate lambda (mean 1/lambda).
  [[nodiscard]] double exponential(double lambda) noexcept {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
  }
  /// Gamma(shape k, scale theta) via Marsaglia-Tsang.
  [[nodiscard]] double gamma(double shape, double scale) noexcept;
  /// Bernoulli with probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// Index sampled from unnormalized weights.  Throws
  /// std::invalid_argument when `weights` is empty, holds a negative or
  /// non-finite weight, or sums to zero.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);
  /// The draw weighted_index makes once it has checked `weights`, given
  /// their sum `total`; the weights are not checked again.  A caller making
  /// many draws over one set of weights checks and sums them once.
  [[nodiscard]] std::size_t weighted_pick(const std::vector<double>& weights,
                                          double total) noexcept {
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      target -= weights[i];
      if (target <= 0.0) return i;
    }
    return weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ww::util
