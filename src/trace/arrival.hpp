// Arrival-process library: diurnal envelopes and Markov-modulated Poisson
// burst structure, the two features of production cluster traces (Google
// Borg, Alibaba) that stress batch scheduling.
#pragma once

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
/// for any envelope.  A squeeze on the envelope's bounds [1 - swing,
/// 1 + swing] decides most candidates without evaluating diurnal_factor;
/// it changes no accept/reject outcome.  Throws std::invalid_argument,
/// naming the field, when `horizon_seconds`, `base_rate_per_s`,
/// `diurnal_swing` or a rate multiplier is negative or non-finite, or a
/// sojourn mean is not positive: each would hang the thinning loop or void
/// the squeeze.
[[nodiscard]] std::vector<double> generate_arrivals(const ArrivalConfig& config,
                                                    double horizon_seconds,
                                                    util::Rng rng);

/// The instantaneous diurnal envelope factor at time t (mean ~1 over a day).
/// For swing >= 0 it lies in [1 - swing, 1 + swing], computed in double.
[[nodiscard]] double diurnal_factor(DiurnalShape shape, double swing,
                                    double peak_hour, double t_seconds);

}  // namespace ww::trace
