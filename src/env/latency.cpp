#include "env/latency.hpp"

#include <stdexcept>

#include "env/region.hpp"

namespace ww::env {

void check_lat_lon(double lat, double lon, const std::string& who) {
  // The negated comparisons also reject NaN.
  if (!(lat >= -90.0 && lat <= 90.0))
    throw std::invalid_argument(who + ": latitude " + std::to_string(lat) +
                                " is not in [-90, 90]");
  if (!(lon >= -180.0 && lon <= 180.0))
    throw std::invalid_argument(who + ": longitude " + std::to_string(lon) +
                                " is not in [-180, 180]");
}

TransferModel::TransferModel(std::vector<std::pair<double, double>> lat_lon,
                             TransferConfig config)
    : n_(static_cast<int>(lat_lon.size())), config_(config) {
  if (lat_lon.empty())
    throw std::invalid_argument("TransferModel: need at least one region");
  for (int i = 0; i < n_; ++i) {
    const auto& p = lat_lon[static_cast<std::size_t>(i)];
    check_lat_lon(p.first, p.second,
                  "TransferModel: region " + std::to_string(i));
  }
  km_.reserve(lat_lon.size() * lat_lon.size());
  for (const auto& a : lat_lon)
    for (const auto& b : lat_lon)
      km_.push_back(haversine_km(a.first, a.second, b.first, b.second));
}

double TransferModel::distance_km(int from, int to) const {
  if (from < 0 || from >= n_ || to < 0 || to >= n_)
    throw std::out_of_range("TransferModel: region pair (" +
                            std::to_string(from) + ", " + std::to_string(to) +
                            ") out of range");
  return km_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
             static_cast<std::size_t>(to)];
}

double TransferModel::latency_seconds(int from, int to, double bytes) const {
  if (from == to) return 0.0;
  const double km = distance_km(from, to) * config_.route_stretch;
  const double one_way = km / config_.fiber_speed_km_per_s;
  const double handshakes = config_.rtt_setup_count * 2.0 * one_way;
  const double serialization = bytes / config_.effective_bandwidth_bytes_per_s;
  return handshakes + serialization;
}

double TransferModel::energy_kwh(int from, int to, double bytes) const {
  if (from == to) return 0.0;
  const double gb = bytes / 1.0e9;
  const double km = distance_km(from, to);
  return gb * (config_.energy_kwh_per_gb +
               config_.energy_kwh_per_gb_per_1000km * km / 1000.0);
}

}  // namespace ww::env
