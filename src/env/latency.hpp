// Inter-region transfer model.
//
// The paper compresses job execution files into a .tar and moves them across
// regions with SCP over 25 Gbps links; Table 3 shows the resulting latency /
// carbon / water overheads are small but nonzero.  We model transfer latency
// as propagation (great-circle distance over fiber with a routing stretch)
// plus serialization at an effective WAN throughput, and transfer energy with
// a per-byte WAN energy factor plus a small distance term.  Region
// locations never move, so the great-circle distances, and the per-pair
// terms of both formulas that depend only on them, are computed once, at
// construction, into n x n tables every transfer query reads.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace ww::env {

struct TransferConfig {
  double fiber_speed_km_per_s = 200000.0;  ///< ~2/3 c in glass.
  double route_stretch = 1.6;              ///< Path vs. great-circle.
  double rtt_setup_count = 8.0;            ///< SCP/TCP handshake round trips.
  /// Single-stream cross-region SCP throughput.  Deliberately WAN-realistic
  /// (not the 25 Gbps NIC rate): at ~25 MB/s a 200-500 MB package costs
  /// 8-20 s, which is what makes the delay-tolerance constraint (Eq. 11)
  /// bind for short jobs — the effect Figs. 3/5 sweep.
  double effective_bandwidth_bytes_per_s = 25.0e6;
  double energy_kwh_per_gb = 6.0e-5;       ///< WAN transport energy.
  double energy_kwh_per_gb_per_1000km = 6.0e-6;  ///< Distance-dependent hops.
};

/// Throws std::invalid_argument, prefixed with `who`, unless `lat` is a
/// finite latitude in [-90, 90] and `lon` a finite longitude in
/// [-180, 180].
void check_lat_lon(double lat, double lon, const std::string& who);

class TransferModel {
 public:
  /// One (latitude, longitude) pair per region, in degrees; each must pass
  /// check_lat_lon.
  TransferModel(std::vector<std::pair<double, double>> lat_lon,
                TransferConfig config = {});

  /// The per-job part of moving a package of `bytes`: its size in GB and
  /// its serialization seconds at the effective bandwidth.  The per-pair
  /// forms below add the pair's handshake and per-GB energy to it.
  struct Package {
    double gb = 0.0;
    double serialize_s = 0.0;
  };
  [[nodiscard]] Package package(double bytes) const noexcept {
    return {bytes / 1.0e9, bytes / config_.effective_bandwidth_bytes_per_s};
  }

  /// Seconds to move `pkg` from region `from` to region `to`: the pair's
  /// handshake round trips plus serialization.  Zero when from == to (local
  /// execution needs no transfer); otherwise throws std::out_of_range for
  /// an index outside [0, num_regions()).
  [[nodiscard]] double latency_seconds(int from, int to,
                                       const Package& pkg) const {
    if (from == to) return 0.0;
    return handshake_s_[cell(from, to)] + pkg.serialize_s;
  }
  [[nodiscard]] double latency_seconds(int from, int to, double bytes) const {
    return latency_seconds(from, to, package(bytes));
  }

  /// Energy consumed by the transfer (kWh); split evenly between endpoints
  /// for accounting purposes.  Zero when from == to; otherwise throws like
  /// latency_seconds.
  [[nodiscard]] double energy_kwh(int from, int to, const Package& pkg) const {
    if (from == to) return 0.0;
    return pkg.gb * kwh_per_gb_[cell(from, to)];
  }
  [[nodiscard]] double energy_kwh(int from, int to, double bytes) const {
    return energy_kwh(from, to, package(bytes));
  }

  /// Row `from` of the per-pair tables: entry `to` of `handshake_s` and of
  /// `kwh_per_gb` is the pair's term of latency_seconds and of energy_kwh.
  /// The diagonal holds the terms of a zero-distance move; both forms above
  /// return zero there instead.  Throws std::out_of_range for `from`
  /// outside [0, num_regions()).
  struct Row {
    const double* handshake_s;
    const double* kwh_per_gb;
  };
  [[nodiscard]] Row row(int from) const {
    const std::size_t i = cell(from, 0);
    return {handshake_s_.data() + i, kwh_per_gb_.data() + i};
  }

  /// haversine_km between the two regions, read from the table; throws
  /// std::out_of_range for an index outside [0, num_regions()).
  [[nodiscard]] double distance_km(int from, int to) const {
    return km_[cell(from, to)];
  }
  [[nodiscard]] int num_regions() const noexcept { return n_; }

 private:
  /// Row-major index of (from, to); throws std::out_of_range when either
  /// is outside [0, n).
  [[nodiscard]] std::size_t cell(int from, int to) const {
    if (from < 0 || from >= n_ || to < 0 || to >= n_)
      throw_out_of_range(from, to);
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(to);
  }
  [[noreturn]] static void throw_out_of_range(int from, int to);

  int n_;
  TransferConfig config_;
  // Row-major n x n tables.
  std::vector<double> km_;           ///< haversine_km.
  std::vector<double> handshake_s_;  ///< Handshake round trips, seconds.
  std::vector<double> kwh_per_gb_;   ///< Transfer energy per GB, kWh.
};

}  // namespace ww::env
