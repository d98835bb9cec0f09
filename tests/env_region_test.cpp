#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "env/latency.hpp"
#include "env/region.hpp"

namespace ww::env {
namespace {

TEST(Region, FiveBuiltinsInPaperOrder) {
  const auto specs = builtin_region_specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].name, "Zurich");
  EXPECT_EQ(specs[1].name, "Madrid");
  EXPECT_EQ(specs[2].name, "Oregon");
  EXPECT_EQ(specs[3].name, "Milan");
  EXPECT_EQ(specs[4].name, "Mumbai");
  EXPECT_EQ(specs[0].aws_zone, "eu-central-2");
  EXPECT_EQ(specs[4].aws_zone, "ap-south-1");
}

TEST(Region, PaperClusterSize) {
  // 175 nodes equally distributed across five regions (Sec. 5).
  const auto specs = builtin_region_specs();
  int total = 0;
  for (const auto& s : specs) {
    EXPECT_EQ(s.servers, 35);
    total += s.servers;
  }
  EXPECT_EQ(total, 175);
}

TEST(Region, WsfLandscape) {
  // Fig. 2d: Madrid and Mumbai highly water-stressed, Zurich least.
  const auto specs = builtin_region_specs();
  const auto wsf = [&](const char* name) {
    for (const auto& s : specs)
      if (s.name == name) return s.wsf;
    ADD_FAILURE();
    return 0.0;
  };
  EXPECT_LT(wsf("Zurich"), wsf("Milan"));
  EXPECT_LT(wsf("Milan"), wsf("Oregon"));
  EXPECT_GT(wsf("Madrid"), 0.6);
  EXPECT_GT(wsf("Mumbai"), 0.6);
  for (const auto& s : specs) {
    EXPECT_GE(s.wsf, 0.0);
    EXPECT_LT(s.wsf, 1.0);
  }
}

TEST(Region, DefaultPueMatchesPaper) {
  for (const auto& s : builtin_region_specs()) EXPECT_DOUBLE_EQ(s.pue, 1.2);
}

TEST(Haversine, KnownDistances) {
  // Zurich -> Milan is ~215 km; Zurich -> Mumbai ~6750 km.
  const double zm = haversine_km(47.38, 8.54, 45.46, 9.19);
  EXPECT_NEAR(zm, 218.0, 25.0);
  const double z_mum = haversine_km(47.38, 8.54, 19.08, 72.88);
  EXPECT_NEAR(z_mum, 6750.0, 300.0);
  EXPECT_DOUBLE_EQ(haversine_km(10.0, 20.0, 10.0, 20.0), 0.0);
}

TEST(Transfer, ZeroForLocal) {
  const TransferModel model({{47.38, 8.54}, {45.46, 9.19}});
  EXPECT_DOUBLE_EQ(model.latency_seconds(0, 0, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(model.energy_kwh(0, 0, 1e9), 0.0);
}

TEST(Transfer, SymmetricAndMonotoneInDistance) {
  // Zurich, Milan, Mumbai.
  const TransferModel model(
      {{47.38, 8.54}, {45.46, 9.19}, {19.08, 72.88}});
  const double near = model.latency_seconds(0, 1, 2e8);
  const double far = model.latency_seconds(0, 2, 2e8);
  EXPECT_GT(far, near);
  EXPECT_NEAR(model.latency_seconds(0, 2, 2e8), model.latency_seconds(2, 0, 2e8),
              1e-12);
}

TEST(Transfer, SerializationDominatesForLargePackages) {
  const TransferModel model({{47.38, 8.54}, {45.46, 9.19}});
  const double small = model.latency_seconds(0, 1, 1e6);
  const double large = model.latency_seconds(0, 1, 1e9);
  // 1 GB at 100 MB/s ~ 10 s of serialization.
  EXPECT_GT(large - small, 9.0);
}

TEST(Transfer, EnergyGrowsWithBytesAndDistance) {
  const TransferModel model(
      {{47.38, 8.54}, {45.46, 9.19}, {19.08, 72.88}});
  EXPECT_GT(model.energy_kwh(0, 1, 2e9), model.energy_kwh(0, 1, 1e9));
  EXPECT_GT(model.energy_kwh(0, 2, 1e9), model.energy_kwh(0, 1, 1e9));
}

TEST(Transfer, RejectsEmpty) {
  EXPECT_THROW(TransferModel({}), std::invalid_argument);
}

TEST(Transfer, DistanceTableMatchesHaversineForEveryBuiltinPair) {
  const auto specs = builtin_region_specs();
  std::vector<std::pair<double, double>> points;
  for (const auto& s : specs) points.emplace_back(s.latitude, s.longitude);
  const TransferModel model(points);
  ASSERT_EQ(model.num_regions(), static_cast<int>(specs.size()));
  for (std::size_t a = 0; a < specs.size(); ++a) {
    for (std::size_t b = 0; b < specs.size(); ++b) {
      // Bitwise: the table stores the haversine_km result itself.
      EXPECT_EQ(model.distance_km(static_cast<int>(a), static_cast<int>(b)),
                haversine_km(specs[a].latitude, specs[a].longitude,
                             specs[b].latitude, specs[b].longitude))
          << a << "->" << b;
    }
  }
}

TEST(Transfer, BadRegionIndexThrowsOutOfRange) {
  const TransferModel model({{47.38, 8.54}, {45.46, 9.19}});
  EXPECT_THROW((void)model.distance_km(-1, 0), std::out_of_range);
  EXPECT_THROW((void)model.distance_km(0, 2), std::out_of_range);
  EXPECT_THROW((void)model.distance_km(2, 2), std::out_of_range);
  EXPECT_THROW((void)model.latency_seconds(0, 2, 1e6), std::out_of_range);
  EXPECT_THROW((void)model.energy_kwh(-1, 1, 1e6), std::out_of_range);
}

TEST(Transfer, PrecomputedTermsMatchTheFormula) {
  // Bitwise against the per-query formula, at a non-default config so
  // every coefficient takes part.
  TransferConfig cfg;
  cfg.fiber_speed_km_per_s = 190000.0;
  cfg.route_stretch = 1.37;
  cfg.rtt_setup_count = 5.0;
  cfg.effective_bandwidth_bytes_per_s = 31.0e6;
  cfg.energy_kwh_per_gb = 7.3e-5;
  cfg.energy_kwh_per_gb_per_1000km = 4.1e-6;
  const auto specs = builtin_region_specs();
  std::vector<std::pair<double, double>> points;
  for (const auto& s : specs) points.emplace_back(s.latitude, s.longitude);
  const TransferModel model(points, cfg);
  const int n = model.num_regions();
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      for (const double bytes : {0.0, 1.0, 3.3e8, 2.0e9}) {
        if (a == b) {
          EXPECT_EQ(model.latency_seconds(a, b, bytes), 0.0);
          EXPECT_EQ(model.energy_kwh(a, b, bytes), 0.0);
          continue;
        }
        const double km = model.distance_km(a, b) * cfg.route_stretch;
        const double one_way = km / cfg.fiber_speed_km_per_s;
        const double handshakes = cfg.rtt_setup_count * 2.0 * one_way;
        EXPECT_EQ(model.latency_seconds(a, b, bytes),
                  handshakes + bytes / cfg.effective_bandwidth_bytes_per_s)
            << a << "->" << b << " " << bytes;
        const double gb = bytes / 1.0e9;
        EXPECT_EQ(model.energy_kwh(a, b, bytes),
                  gb * (cfg.energy_kwh_per_gb +
                        cfg.energy_kwh_per_gb_per_1000km *
                            model.distance_km(a, b) / 1000.0))
            << a << "->" << b << " " << bytes;
      }
    }
  }
  for (const auto& [a, b] : {std::pair{-1, 0}, std::pair{0, n},
                             std::pair{n, 0}, std::pair{0, -1}}) {
    EXPECT_THROW((void)model.latency_seconds(a, b, 1e6), std::out_of_range);
    EXPECT_THROW((void)model.energy_kwh(a, b, 1e6), std::out_of_range);
  }
}

TEST(Transfer, RejectsBadCoordinatesNamingTheRegion) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::pair<double, double>& bad :
       {std::pair{nan, 9.19}, std::pair{45.46, inf}, std::pair{90.5, 9.19},
        std::pair{45.46, -180.5}}) {
    try {
      const TransferModel model({{47.38, 8.54}, bad});
      ADD_FAILURE() << "accepted (" << bad.first << ", " << bad.second << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("region 1"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ww::env
