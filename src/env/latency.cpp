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
  const std::size_t cells = lat_lon.size() * lat_lon.size();
  km_.reserve(cells);
  handshake_s_.reserve(cells);
  kwh_per_gb_.reserve(cells);
  for (const auto& a : lat_lon)
    for (const auto& b : lat_lon) {
      const double km = haversine_km(a.first, a.second, b.first, b.second);
      km_.push_back(km);
      const double one_way =
          km * config_.route_stretch / config_.fiber_speed_km_per_s;
      handshake_s_.push_back(config_.rtt_setup_count * 2.0 * one_way);
      kwh_per_gb_.push_back(config_.energy_kwh_per_gb +
                            config_.energy_kwh_per_gb_per_1000km * km /
                                1000.0);
    }
}

void TransferModel::throw_out_of_range(int from, int to) {
  throw std::out_of_range("TransferModel: region pair (" +
                          std::to_string(from) + ", " + std::to_string(to) +
                          ") out of range");
}

}  // namespace ww::env
