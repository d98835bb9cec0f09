// Arrival-process library: diurnal envelopes and Markov-modulated Poisson
// burst structure, the two features of production cluster traces (Google
// Borg, Alibaba) that stress batch scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ww::trace {

/// Diurnal modulation shapes.
enum class DiurnalShape {
  Flat,        ///< No time-of-day structure.
  SinglePeak,  ///< One broad daytime peak (Borg-like).
  DoublePeak,  ///< Morning + evening peaks (Alibaba-like).
};

struct ArrivalConfig {
  double base_rate_per_s = 0.27;  ///< Long-run mean arrival rate.
  DiurnalShape shape = DiurnalShape::SinglePeak;
  double diurnal_swing = 0.45;    ///< Relative amplitude of the envelope.
  double peak_hour = 14.0;        ///< Local hour of the (first) peak.

  // Two-state MMPP burst modulation.
  double burst_rate_multiplier = 2.2;  ///< Rate multiplier in the burst state.
  double calm_rate_multiplier = 0.65;  ///< Rate multiplier in the calm state.
  double mean_burst_seconds = 1800.0;  ///< Mean burst-state sojourn.
  double mean_calm_seconds = 5400.0;   ///< Mean calm-state sojourn.
};

/// Deterministic arrival-time sequence over [0, horizon_seconds).
///
/// Implemented by thinning a homogeneous Poisson process against the
/// time-varying rate (Lewis & Shedler, 1979), which keeps the sequence exact
/// for any envelope.  A squeeze on diurnal_bounds decides most candidates
/// without evaluating diurnal_factor: with the bin's bounds lo <= d <= hi
/// and a base rate >= 0, monotone rounding gives base * lo <= base * d <=
/// base * hi, so a candidate below base * lo is accepted and one at or above
/// base * hi rejected exactly as the full test would; only the rest run
/// diurnal_factor.  Throws std::invalid_argument, naming the field, when
/// `horizon_seconds`, `base_rate_per_s`, `diurnal_swing` or a rate multiplier
/// is negative or non-finite, or a sojourn mean is not positive: each would
/// hang the thinning loop or void the squeeze.
[[nodiscard]] std::vector<double> generate_arrivals(const ArrivalConfig& config,
                                                    double horizon_seconds,
                                                    util::Rng rng);

/// The instantaneous diurnal envelope factor at time t (mean ~1 over a day).
/// For swing >= 0 it lies in [1 - swing, 1 + swing], computed in double.
[[nodiscard]] double diurnal_factor(DiurnalShape shape, double swing,
                                    double peak_hour, double t_seconds);

/// Number of equal bins the day is cut into for diurnal_bounds.
inline constexpr std::size_t kDiurnalBins = 1024;

/// The bin of the day holding t, in [0, kDiurnalBins), or kDiurnalBins when
/// t is negative, NaN, or at least 2^32 bins (about 11,000 years) from 0:
/// below that, the computed index is within 2^-20 bins of the exact one.
[[nodiscard]] inline std::size_t diurnal_bin(double t_seconds) noexcept {
  const double b =
      t_seconds * (static_cast<double>(kDiurnalBins) / 86400.0);
  if (!(b >= 0.0 && b < 0x1p32)) return kDiurnalBins;
  return static_cast<std::size_t>(static_cast<std::int64_t>(b)) &
         (kDiurnalBins - 1);
}

struct FactorBounds {
  double lo;
  double hi;
};

/// Bounds on diurnal_factor(shape, swing, peak_hour, t) for every t with
/// diurnal_bin(t) == bin, for swing >= 0.  They are the factor at the bin's
/// centre, padded by what the envelope can move from there: it changes by
/// at most swing * 2 pi / 86400 per second, over half a bin plus one second
/// of slack for the rounding of the bin index and of t / 3600, and an
/// absolute margin, growing with swing and |peak_hour|, covers the rounding
/// in diurnal_factor's fmod and cos.  Each bound is clamped to the global
/// [1 - swing, 1 + swing] (fmax / fmin, so a NaN factor yields exactly
/// those), which keeps swing 0 exact and no squeeze looser than the global
/// one.
[[nodiscard]] FactorBounds diurnal_bounds(DiurnalShape shape, double swing,
                                          double peak_hour, std::size_t bin);

}  // namespace ww::trace
