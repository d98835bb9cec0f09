#include <gtest/gtest.h>

#include "core/slack.hpp"

namespace ww::core {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 2;
  return cfg;
}

class AllFree final : public dc::CapacityView {
 public:
  [[nodiscard]] int num_regions() const override { return 5; }
  [[nodiscard]] int capacity(int) const override { return 35; }
  [[nodiscard]] int free_at(int, double) const override { return 35; }
  [[nodiscard]] int max_occupancy(int, double, double) const override {
    return 0;
  }
};

struct Rig {
  env::Environment env = env::Environment::builtin(small_env());
  footprint::FootprintModel fp{env};
  AllFree cap;
  std::vector<trace::Job> jobs;

  dc::ScheduleContext ctx(double now, double tol = 0.25) {
    dc::ScheduleContext c;
    c.now = now;
    c.tol = tol;
    c.footprint = &fp;
    c.capacity = &cap;
    return c;
  }

  trace::Job& make_job(std::uint64_t id, double exec) {
    trace::Job j;
    j.id = id;
    j.home_region = 2;
    j.exec_seconds = exec;
    j.avg_power_watts = 300.0;
    j.package_bytes = 2e8;
    jobs.push_back(j);
    return jobs.back();
  }
};

TEST(Urgency, LongerWaitIsMoreUrgent) {
  Rig rig;
  rig.jobs.reserve(4);
  const auto& j = rig.make_job(1, 100.0);
  const dc::PendingJob waited_long{&j, /*first_seen=*/0.0, 100.0, 0.01};
  const dc::PendingJob waited_short{&j, /*first_seen=*/500.0, 100.0, 0.01};
  const auto ctx = rig.ctx(/*now=*/600.0);
  EXPECT_LT(urgency_score(waited_long, ctx), urgency_score(waited_short, ctx));
}

TEST(Urgency, LargerToleranceBudgetIsLessUrgent) {
  Rig rig;
  rig.jobs.reserve(4);
  const auto& small = rig.make_job(1, 50.0);
  const auto& large = rig.make_job(2, 500.0);
  const dc::PendingJob a{&small, 0.0, 50.0, 0.01};
  const dc::PendingJob b{&large, 0.0, 500.0, 0.05};
  const auto ctx = rig.ctx(0.0);
  // Larger exec time => larger TOL*t allowance => less urgent.
  EXPECT_LT(urgency_score(a, ctx), urgency_score(b, ctx));
}

TEST(Urgency, MatchesEq14Algebra) {
  Rig rig;
  rig.jobs.reserve(2);
  const auto& j = rig.make_job(1, 200.0);
  const dc::PendingJob p{&j, 100.0, 200.0, 0.02};
  const auto ctx = rig.ctx(/*now=*/400.0, /*tol=*/0.5);
  double lat_total = 0.0;
  for (int r = 0; r < 5; ++r)
    lat_total +=
        rig.env.transfer_latency_seconds(j.home_region, r, j.package_bytes);
  const double expected = 0.5 * 200.0 - lat_total / 5.0 - (400.0 - 100.0);
  EXPECT_NEAR(urgency_score(p, ctx), expected, 1e-9);
}

TEST(SelectMostUrgent, OrdersAndLimits) {
  Rig rig;
  rig.jobs.reserve(8);
  std::vector<dc::PendingJob> batch;
  // Jobs that have waited longer are more urgent.
  for (int i = 0; i < 6; ++i) {
    const auto& j = rig.make_job(static_cast<std::uint64_t>(i), 100.0);
    batch.push_back(dc::PendingJob{&j, /*first_seen=*/i * 100.0, 100.0, 0.01});
  }
  const auto ctx = rig.ctx(/*now=*/1000.0);
  const auto picked = select_most_urgent(batch, ctx, 3);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0], 0u);  // waited the longest
  EXPECT_EQ(picked[1], 1u);
  EXPECT_EQ(picked[2], 2u);
}

TEST(SelectMostUrgent, LimitLargerThanBatch) {
  Rig rig;
  rig.jobs.reserve(4);
  std::vector<dc::PendingJob> batch;
  for (int i = 0; i < 2; ++i) {
    const auto& j = rig.make_job(static_cast<std::uint64_t>(i), 100.0);
    batch.push_back(dc::PendingJob{&j, 0.0, 100.0, 0.01});
  }
  const auto picked = select_most_urgent(batch, rig.ctx(0.0), 10);
  EXPECT_EQ(picked.size(), 2u);
}

TEST(SelectMostUrgent, StableForTies) {
  Rig rig;
  rig.jobs.reserve(6);
  std::vector<dc::PendingJob> batch;
  for (int i = 0; i < 4; ++i) {
    const auto& j = rig.make_job(static_cast<std::uint64_t>(i), 100.0);
    batch.push_back(dc::PendingJob{&j, 0.0, 100.0, 0.01});
  }
  const auto picked = select_most_urgent(batch, rig.ctx(0.0), 4);
  ASSERT_EQ(picked.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(picked[i], i);
}

}  // namespace
}  // namespace ww::core
