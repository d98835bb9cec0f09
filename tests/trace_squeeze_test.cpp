// The thinning squeeze in generate_arrivals decides most candidates from
// per-bin bounds on the diurnal envelope instead of evaluating it.  These
// tests hold it to the loop it replaced, bit for bit, and check the bounds
// themselves on every bin of the day, near the start of a campaign and 399
// days in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "trace/arrival.hpp"
#include "util/rng.hpp"

namespace ww::trace {
namespace {

/// generate_arrivals as it was before the per-bin squeeze: thinning with a
/// squeeze on the global bounds [1 - swing, 1 + swing] only.
std::vector<double> reference_arrivals(const ArrivalConfig& config,
                                       double horizon_seconds, util::Rng rng) {
  const double rate_max = config.base_rate_per_s *
                          (1.0 + config.diurnal_swing) *
                          std::max(config.burst_rate_multiplier, 1.0);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<std::size_t>(std::clamp(
      config.base_rate_per_s * horizon_seconds * 1.1, 16.0, 1e7)));
  bool bursting = false;
  double state_until = rng.exponential(1.0 / config.mean_calm_seconds);
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate_max);
    if (t >= horizon_seconds) break;
    while (t > state_until) {
      bursting = !bursting;
      state_until += rng.exponential(
          1.0 / (bursting ? config.mean_burst_seconds : config.mean_calm_seconds));
    }
    const double mult =
        bursting ? config.burst_rate_multiplier : config.calm_rate_multiplier;
    const double base = config.base_rate_per_s * mult;
    const double x = rng.uniform() * rate_max;
    if (x >= base * (1.0 + config.diurnal_swing)) continue;
    if (x < base * (1.0 - config.diurnal_swing) ||
        x < base * diurnal_factor(config.shape, config.diurnal_swing,
                                  config.peak_hour, t))
      arrivals.push_back(t);
  }
  return arrivals;
}

constexpr DiurnalShape kShapes[] = {
    DiurnalShape::Flat, DiurnalShape::SinglePeak, DiurnalShape::DoublePeak};
constexpr double kSwings[] = {0.0, 0.45, 0.6, 1.0};
constexpr double kPeaks[] = {0.0, 14.0, 20.0, 23.5};

/// Checks generate_arrivals against the reference, bit for bit, and that
/// it ends with the buffer the reference's push_back leaves; returns the
/// arrival count.
std::size_t expect_same_arrivals(const ArrivalConfig& c, double horizon,
                                 std::uint64_t seed) {
  const util::Rng rng(seed);
  const std::vector<double> want = reference_arrivals(c, horizon, rng);
  const std::vector<double> got = generate_arrivals(c, horizon, rng);
  EXPECT_EQ(got.capacity(), want.capacity()) << "seed " << seed;
  EXPECT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i] != want[i]) {
      ADD_FAILURE() << "seed " << seed << " arrival " << i;
      break;
    }
  return want.size();
}

// Seeded random configs over every shape, swing and peak hour above, with
// a calm multiplier of 0, burst multipliers below 1, and sojourns down to
// a second so the MMPP state flips between neighbouring candidates.
TEST(ArrivalSqueeze, MatchesReferenceThinning) {
  util::Rng pick(2027);
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    ArrivalConfig c;
    c.shape = kShapes[seed % 3];
    c.diurnal_swing = kSwings[(seed / 3) % 4];
    c.peak_hour = kPeaks[(seed / 12) % 4];
    c.base_rate_per_s = pick.uniform(0.05, 1.5);
    c.calm_rate_multiplier = seed % 5 == 0 ? 0.0 : pick.uniform(0.2, 1.0);
    c.burst_rate_multiplier =
        seed % 4 == 0 ? pick.uniform(0.3, 0.95) : pick.uniform(1.0, 3.5);
    const bool short_sojourns = seed % 2 == 0;
    c.mean_calm_seconds = short_sojourns ? pick.uniform(1.0, 30.0)
                                         : pick.uniform(600.0, 6000.0);
    c.mean_burst_seconds = short_sojourns ? pick.uniform(1.0, 30.0)
                                          : pick.uniform(300.0, 3000.0);
    const double horizon = pick.uniform(0.05, 0.4) * 86400.0;
    expect_same_arrivals(c, horizon, seed);
  }
}

// Long horizons: candidates 399 days in, and past 2^32 bins, where
// diurnal_bin gives up and every undecided candidate takes the full test.
TEST(ArrivalSqueeze, MatchesReferenceOnLongHorizons) {
  for (const DiurnalShape shape : kShapes) {
    ArrivalConfig c;
    c.shape = shape;
    c.diurnal_swing = 0.6;
    c.peak_hour = 20.0;
    c.base_rate_per_s = 0.002;
    expect_same_arrivals(c, 400.0 * 86400.0, 11);

    c.base_rate_per_s = 2e-10;
    c.mean_calm_seconds = 3e10;
    c.mean_burst_seconds = 1e10;
    expect_same_arrivals(c, 1e12, 12);
  }
}

TEST(ArrivalSqueeze, MatchesReferenceOnDegenerateConfigs) {
  ArrivalConfig c;
  expect_same_arrivals(c, 0.0, 1);  // empty horizon
  c.base_rate_per_s = 0.0;          // zero rate bound
  expect_same_arrivals(c, 86400.0, 2);
  c.base_rate_per_s = 0.5;
  c.peak_hour = std::numeric_limits<double>::quiet_NaN();
  expect_same_arrivals(c, 0.2 * 86400.0, 3);  // NaN envelope
  c.diurnal_swing = 0.0;
  expect_same_arrivals(c, 0.2 * 86400.0, 4);
  c.peak_hour = 1e9;  // cos arguments far from zero
  c.diurnal_swing = 0.45;
  expect_same_arrivals(c, 0.2 * 86400.0, 5);
}

// Counts that end just under, at and just over the reservation (1,100
// here, the expected 1,000 plus 10 %): every candidate is kept, so the
// buffer is full after the 1,100th, and it must grow only if one more is
// kept, to the capacity push_back reaches.
TEST(ArrivalSqueeze, BufferGrowsAsPushBackWould) {
  ArrivalConfig c;
  c.shape = DiurnalShape::Flat;
  c.diurnal_swing = 0.0;
  c.base_rate_per_s = 1.0;
  c.calm_rate_multiplier = 1.1;
  c.burst_rate_multiplier = 1.1;
  constexpr std::size_t kReserved = 1100;
  std::size_t under = 0;
  std::size_t full = 0;
  std::size_t over = 0;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    const std::size_t n = expect_same_arrivals(c, 1000.0, seed);
    under += n + 512 > kReserved && n < kReserved;
    full += n == kReserved;
    over += n > kReserved;
  }
  EXPECT_GT(under, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_GT(over, 0u);
}

TEST(ArrivalSqueeze, BinOfTime) {
  constexpr double kWidth = 86400.0 / kDiurnalBins;
  for (std::size_t k = 0; k < kDiurnalBins; ++k)
    for (const double day : {0.0, 1.0, 399.0}) {
      const double t = day * 86400.0 + (static_cast<double>(k) + 0.5) * kWidth;
      EXPECT_EQ(diurnal_bin(t), k) << t;
    }
  EXPECT_EQ(diurnal_bin(-1.0), kDiurnalBins);
  EXPECT_EQ(diurnal_bin(std::numeric_limits<double>::quiet_NaN()),
            kDiurnalBins);
  EXPECT_EQ(diurnal_bin(std::numeric_limits<double>::infinity()),
            kDiurnalBins);
  EXPECT_EQ(diurnal_bin(0x1p33 * kWidth), kDiurnalBins);
  EXPECT_LT(diurnal_bin(0x1p31 * kWidth), kDiurnalBins);
}

// Each bin's bounds bracket diurnal_factor at its edges, one ulp either
// side, and on a grid of 32 points across it, on day 0 and on day 399 (the
// default environment horizon is 400 days), for every t's own bin too.
TEST(ArrivalSqueeze, BinBoundsBracketFactor) {
  constexpr double kWidth = 86400.0 / kDiurnalBins;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const DiurnalShape shape : kShapes)
    for (const double swing : kSwings)
      for (const double peak : kPeaks) {
        std::size_t outside = 0;
        std::size_t own_bin_outside = 0;
        for (std::size_t k = 0; k < kDiurnalBins; ++k) {
          const FactorBounds b = diurnal_bounds(shape, swing, peak, k);
          EXPECT_GE(b.lo, 1.0 - swing);
          EXPECT_LE(b.hi, 1.0 + swing);
          const auto check = [&](double t) {
            const double d = diurnal_factor(shape, swing, peak, t);
            outside += !(b.lo <= d && d <= b.hi);
            const std::size_t own = diurnal_bin(t);
            if (own == k || own == kDiurnalBins) return;  // t < 0 has none
            const FactorBounds ob = diurnal_bounds(shape, swing, peak, own);
            own_bin_outside += !(ob.lo <= d && d <= ob.hi);
          };
          for (const double day : {0.0, 399.0}) {
            const double start =
                day * 86400.0 + static_cast<double>(k) * kWidth;
            const double end = start + kWidth;
            for (const double edge : {start, end}) {
              check(edge);
              check(std::nextafter(edge, -kInf));
              check(std::nextafter(edge, kInf));
            }
            for (int i = 1; i < 32; ++i) check(start + i * (kWidth / 32.0));
          }
        }
        EXPECT_EQ(outside, 0u) << "shape " << static_cast<int>(shape)
                               << " swing " << swing << " peak " << peak;
        EXPECT_EQ(own_bin_outside, 0u)
            << "shape " << static_cast<int>(shape) << " swing " << swing
            << " peak " << peak;
      }
}

// The squeeze must leave little to the full test, or it saves nothing:
// every bin of the Alibaba-like envelope is narrower than 1 % of the factor.
TEST(ArrivalSqueeze, BinBoundsAreTight) {
  for (std::size_t k = 0; k < kDiurnalBins; ++k) {
    const FactorBounds b =
        diurnal_bounds(DiurnalShape::DoublePeak, 0.6, 20.0, k);
    EXPECT_LT(b.hi - b.lo, 0.01) << k;
  }
}

}  // namespace
}  // namespace ww::trace
