#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace ww::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::child(std::string_view label) const noexcept {
  // Mix the label hash with the parent's initial state image so that
  // child("a").child("b") != child("b").child("a").
  std::uint64_t mixed = s_[0] ^ rotl(s_[1], 17) ^ hash_label(label);
  return Rng(splitmix64(mixed));
}

Rng Rng::child(std::uint64_t index) const noexcept {
  std::uint64_t mixed = s_[0] ^ rotl(s_[1], 17) ^
                        (index * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
  return Rng(splitmix64(mixed));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  // The span hi - lo in unsigned arithmetic: it exceeds INT64_MAX when the
  // bounds straddle zero far enough, and is max() over the full range,
  // where every 64-bit draw is already uniform.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == max()) return static_cast<std::int64_t>(next());
  const std::uint64_t range = span + 1;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   below(range, rejection_limit(range)));
}

double Rng::gamma(double shape, double scale) noexcept {
  if (shape < 1.0) {
    // Boost to shape+1 and correct (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  // The negated comparisons also reject NaN, in a weight or in the sum.
  double total = 0.0;
  bool finite_nonnegative = true;
  for (const double w : weights) {
    finite_nonnegative = finite_nonnegative && w >= 0.0 && std::isfinite(w);
    total += w;
  }
  if (!(finite_nonnegative && total > 0.0))
    throw std::invalid_argument(
        "weighted_index: weights must be finite, >= 0 and have a positive sum");
  return weighted_pick(weights, total);
}

}  // namespace ww::util
