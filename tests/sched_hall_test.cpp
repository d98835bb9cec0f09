// sched::hall_verdict, the scheduler's feasibility test of a chunk's hard
// form, against sched::transport_assign on the same transportation
// instance: over seeded instances with 1-8 regions, 0-40 jobs, quotas in
// [-1, jobs], empty masks, and all-narrow, all-open and pinned-or-roomy
// chunks, the verdict
// must say "feasible" exactly when the solver finds an assignment.  Each
// gate may answer only on feasible instances, and the corpus must reach
// the full subset test often, with both answers, so that a fault in it
// cannot hide behind the gates.
#include "sched/transport.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace ww::sched {
namespace {

const char* name(HallVerdict v) {
  switch (v) {
    case HallVerdict::kRoomyRegion:
      return "roomy-region gate";
    case HallVerdict::kOpenRegions:
      return "open-regions gate";
    case HallVerdict::kPinnedOrRoomy:
      return "pinned-or-roomy gate";
    case HallVerdict::kHallHolds:
      return "subset test (holds)";
    case HallVerdict::kInfeasible:
      return "subset test (fails)";
  }
  return "?";
}

/// One seeded instance: per-job region masks and quotas.  The mask shape
/// and the quota range are drawn per instance, so the corpus mixes roomy,
/// tight, narrow, open, pinned-or-roomy and empty-mask chunks.
struct Instance {
  std::vector<std::uint32_t> masks;
  std::vector<int> quota;
};

Instance draw(util::Rng& rng) {
  Instance in;
  const int n = static_cast<int>(rng.uniform_int(1, 8));
  const int m = static_cast<int>(rng.uniform_int(0, 40));
  const std::uint32_t all = (1U << n) - 1U;
  // Quotas over the full [-1, m] range, or tight around m / n.
  const bool tight = rng.bernoulli(0.7);
  const int top = tight ? std::max(1, 2 * m / n) : m;
  for (int r = 0; r < n; ++r)
    in.quota.push_back(static_cast<int>(rng.uniform_int(-1, top)));
  const int shape = static_cast<int>(rng.uniform_int(0, 4));
  const double density = rng.uniform(0.1, 0.9);
  // Shape 4's roomy regions (quota m), each region with probability 0.3.
  std::uint32_t roomy = 0;
  if (shape == 4)
    for (int r = 0; r < n; ++r)
      if (rng.bernoulli(0.3)) {
        roomy |= 1U << r;
        in.quota[static_cast<std::size_t>(r)] = m;
      }
  for (int j = 0; j < m; ++j) {
    std::uint32_t mask = 0;
    switch (shape) {
      case 0:  // random pairs
        for (int r = 0; r < n; ++r)
          if (rng.bernoulli(density)) mask |= 1U << r;
        break;
      case 1:  // all narrow: one or two regions
        mask = 1U << rng.uniform_int(0, n - 1);
        if (rng.bernoulli(0.5)) mask |= 1U << rng.uniform_int(0, n - 1);
        break;
      case 2:  // all open
        mask = all;
        break;
      case 3:  // mostly open, some narrow, some empty
        mask = rng.bernoulli(0.6) ? all : 1U << rng.uniform_int(0, n - 1);
        if (rng.bernoulli(0.05)) mask = 0;
        break;
      default:  // pinned to one region, or reaching a roomy one
        mask = 1U << rng.uniform_int(0, n - 1);
        if (roomy != 0 && rng.bernoulli(0.5 + 0.5 * density))
          for (int r = 0; r < n; ++r)
            if ((roomy >> r & 1U) != 0 || rng.bernoulli(0.3)) mask |= 1U << r;
        break;
    }
    in.masks.push_back(mask);
  }
  return in;
}

/// The transportation instance the masks describe, with arbitrary finite
/// costs on the allowed pairs.
TransportProblem problem_of(const Instance& in, util::Rng& rng) {
  TransportProblem p;
  p.jobs = static_cast<int>(in.masks.size());
  p.quota = in.quota;
  const int n = p.regions();
  for (const std::uint32_t mask : in.masks)
    for (int r = 0; r < n; ++r) {
      p.allowed.push_back(static_cast<std::uint8_t>((mask >> r) & 1U));
      p.cost.push_back(rng.uniform(0.0, 10.0));
    }
  return p;
}

TEST(HallVerdict, MatchesTransportFeasibilityOnSeededInstances) {
  util::Rng rng(20240611);
  std::vector<int> scratch;
  TransportSolution sol;
  TransportWorkspace ws;
  std::array<int, 5> seen{};
  int infeasible = 0;
  for (int i = 0; i < 30000; ++i) {
    const Instance in = draw(rng);
    const HallVerdict v = hall_verdict(in.masks, in.quota, scratch);
    transport_assign(problem_of(in, rng), sol, ws);
    ++seen[static_cast<std::size_t>(v)];
    infeasible += sol.optimal() ? 0 : 1;
    ASSERT_EQ(v != HallVerdict::kInfeasible, sol.optimal())
        << "instance " << i << ": " << name(v) << " on " << in.masks.size()
        << " jobs x " << in.quota.size() << " regions";
  }
  // Every answer is reached often: a fault in any of them would show.
  for (std::size_t k = 0; k < seen.size(); ++k)
    EXPECT_GE(seen[k], 1000) << name(static_cast<HallVerdict>(k));
  EXPECT_GE(infeasible, 2000);
}

TEST(HallVerdict, EmptyChunkAndEmptyMasks) {
  std::vector<int> scratch;
  EXPECT_EQ(hall_verdict({}, {3, -1}, scratch), HallVerdict::kRoomyRegion);
  EXPECT_EQ(hall_verdict({}, {}, scratch), HallVerdict::kRoomyRegion);
  // A job allowed nowhere, or only where there is no quota, never fits.
  EXPECT_EQ(hall_verdict({0b01, 0b00}, {5, 5}, scratch),
            HallVerdict::kInfeasible);
  EXPECT_EQ(hall_verdict({0b01, 0b10}, {5, 0}, scratch),
            HallVerdict::kInfeasible);
  EXPECT_EQ(hall_verdict({0b1}, {}, scratch), HallVerdict::kInfeasible);
}

TEST(HallVerdict, SubsetTestFindsTheDeficientPair) {
  // Three jobs allowed only in regions 0 and 1, which hold two slots
  // between them; region 2 is roomy but allowed to nobody.  No gate
  // answers, and only the pair {0, 1} violates Hall's condition.
  std::vector<int> scratch;
  EXPECT_EQ(hall_verdict({0b011, 0b011, 0b001}, {1, 1, 5}, scratch),
            HallVerdict::kInfeasible);
  // One more slot in region 1 and every job fits.
  EXPECT_EQ(hall_verdict({0b011, 0b011, 0b001}, {1, 2, 5}, scratch),
            HallVerdict::kHallHolds);
}

TEST(HallVerdict, GatesAnswerWithoutTheSubsetTest) {
  std::vector<int> scratch;
  // Every job reaches region 2, whose quota covers all of them.
  EXPECT_EQ(hall_verdict({0b100, 0b110, 0b101}, {0, 1, 3}, scratch),
            HallVerdict::kRoomyRegion);
  // Two narrow jobs fit the smallest open quota of 2; the wide ones fill
  // the rest.
  EXPECT_EQ(hall_verdict({0b01, 0b10, 0b11, 0b11}, {2, 2}, scratch),
            HallVerdict::kOpenRegions);
  // Jobs 0-2 may go only to region 0 or only to region 1, within their
  // quotas of 2 and 1; jobs 3 and 4 reach region 2, which holds all five.
  // All five jobs are narrow, more than the smallest open quota of 1, so
  // the open gate does not answer.
  EXPECT_EQ(hall_verdict({0b001, 0b001, 0b010, 0b110, 0b101}, {2, 1, 5},
                         scratch),
            HallVerdict::kPinnedOrRoomy);
  EXPECT_TRUE(scratch.empty()) << "a gate answered after the subset pass";
  // One more job pinned to region 1 overfills it, and the subset pass
  // finds that.
  EXPECT_EQ(hall_verdict({0b001, 0b001, 0b010, 0b010, 0b101}, {2, 1, 5},
                         scratch),
            HallVerdict::kInfeasible);
}

TEST(HallVerdict, RejectsMoreRegionsThanItsScratchHolds) {
  std::vector<int> scratch;
  const std::vector<int> quota(static_cast<std::size_t>(kHallMaxRegions) + 1,
                               1);
  EXPECT_THROW(static_cast<void>(hall_verdict({1U}, quota, scratch)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ww::sched
