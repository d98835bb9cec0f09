// Inter-region transfer model.
//
// The paper compresses job execution files into a .tar and moves them across
// regions with SCP over 25 Gbps links; Table 3 shows the resulting latency /
// carbon / water overheads are small but nonzero.  We model transfer latency
// as propagation (great-circle distance over fiber with a routing stretch)
// plus serialization at an effective WAN throughput, and transfer energy with
// a per-byte WAN energy factor plus a small distance term.  Region
// locations never move, so the great-circle distances are computed once, at
// construction, into an n x n table every transfer query reads.
#pragma once

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

  /// Seconds to move `bytes` from region `from` to region `to`.  Zero when
  /// from == to (local execution needs no transfer).
  [[nodiscard]] double latency_seconds(int from, int to, double bytes) const;

  /// Energy consumed by the transfer (kWh); split evenly between endpoints
  /// for accounting purposes.
  [[nodiscard]] double energy_kwh(int from, int to, double bytes) const;

  /// haversine_km between the two regions, read from the table; throws
  /// std::out_of_range for an index outside [0, num_regions()).
  [[nodiscard]] double distance_km(int from, int to) const;
  [[nodiscard]] int num_regions() const noexcept { return n_; }

 private:
  int n_;
  std::vector<double> km_;  ///< Row-major n x n haversine_km table.
  TransferConfig config_;
};

}  // namespace ww::env
