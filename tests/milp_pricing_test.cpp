// Pricing-rule equivalence: Devex (candidate list) and Dantzig must land on
// identical optimal objectives across the instance corpus, under forced
// Bland fallback (Beale's cycling LP), and across forced refactorization
// cadences (update_budget sweep) — the knobs must change speed, never
// answers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

/// Assignment/capacity/delay-shaped model (the WaterWise chunk shape).
Model scheduler_shaped(int jobs, int regions, std::uint64_t seed) {
  util::Rng rng(seed);
  Model m;
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary(rng.uniform(0.1, 2.0));
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(
        std::move(t), Sense::LessEqual,
        std::ceil(jobs / static_cast<double>(regions)) + 1.0);
  }
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 1; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)],
                   rng.uniform(1.0, 20.0)});
    (void)m.add_constraint(std::move(t), Sense::LessEqual, 25.0);
  }
  return m;
}

Model beale_cycling() {
  Model m;
  const int x1 = m.add_continuous(0.0, kInfinity, -0.75);
  const int x2 = m.add_continuous(0.0, kInfinity, 150.0);
  const int x3 = m.add_continuous(0.0, kInfinity, -0.02);
  const int x4 = m.add_continuous(0.0, kInfinity, 6.0);
  (void)m.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                         Sense::LessEqual, 0.0);
  (void)m.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                         Sense::LessEqual, 0.0);
  (void)m.add_constraint({{x3, 1.0}}, Sense::LessEqual, 1.0);
  return m;
}

std::vector<Model> corpus() {
  std::vector<Model> out;
  out.push_back(scheduler_shaped(12, 4, 21));
  out.push_back(scheduler_shaped(30, 5, 22));
  out.push_back(weak_relaxation_model(10, 3, 4.0));
  out.push_back(weak_relaxation_model(16, 3, 6.0, /*seed=*/7));
  {
    // Degenerate transportation (all supplies/demands equal).
    util::Rng rng(99);
    const int k = 6;
    Model m;
    std::vector<std::vector<int>> v(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i)
      for (int j = 0; j < k; ++j)
        v[static_cast<std::size_t>(i)].push_back(
            m.add_continuous(0.0, kInfinity, rng.uniform(1.0, 9.0)));
    for (int i = 0; i < k; ++i) {
      std::vector<Term> t;
      for (int j = 0; j < k; ++j)
        t.push_back(
            {v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
      (void)m.add_constraint(std::move(t), Sense::Equal, 2.0);
    }
    for (int j = 0; j < k; ++j) {
      std::vector<Term> t;
      for (int i = 0; i < k; ++i)
        t.push_back(
            {v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
      (void)m.add_constraint(std::move(t), Sense::Equal, 2.0);
    }
    out.push_back(std::move(m));
  }
  out.push_back(beale_cycling());
  return out;
}

TEST(Pricing, DevexAndDantzigAgreeAcrossCorpus) {
  const std::vector<Model> models = corpus();
  for (std::size_t idx = 0; idx < models.size(); ++idx) {
    const Model& m = models[idx];
    SolverOptions devex;
    devex.pricing = Pricing::Devex;
    SolverOptions dantzig;
    dantzig.pricing = Pricing::Dantzig;
    const Solution a = solve(m, devex);
    const Solution b = solve(m, dantzig);
    ASSERT_EQ(a.status, Status::Optimal) << "model " << idx;
    ASSERT_EQ(b.status, Status::Optimal) << "model " << idx;
    EXPECT_NEAR(a.objective, b.objective, 1e-7) << "model " << idx;
    EXPECT_LE(m.max_violation(a.values), 1e-6) << "model " << idx;
    EXPECT_LE(m.max_violation(b.values), 1e-6) << "model " << idx;
  }
}

TEST(Pricing, BealeTerminatesUnderForcedBlandWithEitherRule) {
  const Model m = beale_cycling();
  for (const Pricing rule : {Pricing::Devex, Pricing::Dantzig}) {
    SolverOptions opts;
    opts.pricing = rule;
    opts.bland_iterations = 1;  // Bland's rule from the very first pivot
    SimplexSolver s(m, opts);
    const Solution sol = s.solve();
    ASSERT_EQ(sol.status, Status::Optimal);
    EXPECT_NEAR(sol.objective, -0.05, 1e-9);
    EXPECT_LE(m.max_violation(sol.values), 1e-7);
  }
}

TEST(Pricing, UpdateBudgetSweepPreservesObjectives) {
  // Forrest-Tomlin update budget: 1 refactorizes after every pivot, 4
  // exercises short update chains, 64 matches the default.  All must
  // agree — the update cadence is a pure representation change.
  const std::vector<Model> models = corpus();
  for (std::size_t idx = 0; idx < models.size(); ++idx) {
    const Model& m = models[idx];
    double ref = 0.0;
    bool have_ref = false;
    for (const int budget : {1, 4, 64}) {
      SolverOptions opts;
      opts.update_budget = budget;
      const Solution sol = solve(m, opts);
      ASSERT_EQ(sol.status, Status::Optimal)
          << "model " << idx << " update_budget " << budget;
      if (!have_ref) {
        ref = sol.objective;
        have_ref = true;
      } else {
        EXPECT_NEAR(sol.objective, ref, 1e-7)
            << "model " << idx << " update_budget " << budget;
      }
    }
  }
}

TEST(Pricing, RefactorIntervalSweepPreservesObjectives) {
  const Model m = weak_relaxation_model(12, 3, 5.0);
  SolverOptions base;
  const Solution ref = solve(m, base);
  ASSERT_EQ(ref.status, Status::Optimal);
  for (const int interval : {1, 7, 1000}) {
    SolverOptions opts;
    opts.refactor_interval = interval;
    const Solution sol = solve(m, opts);
    ASSERT_EQ(sol.status, Status::Optimal) << "interval " << interval;
    EXPECT_NEAR(sol.objective, ref.objective, 1e-7) << "interval " << interval;
  }
}

TEST(Pricing, WarmStartAgreesUnderDevexAndDantzig) {
  // The dual-simplex replay path must also be pricing-agnostic.
  const Model m = weak_relaxation_model(10, 3, 4.0);
  for (const Pricing rule : {Pricing::Devex, Pricing::Dantzig}) {
    SolverOptions warm_opts;
    warm_opts.pricing = rule;
    SolverOptions cold_opts = warm_opts;
    cold_opts.warm_start = false;
    const Solution warm = solve(m, warm_opts);
    const Solution cold = solve(m, cold_opts);
    ASSERT_EQ(warm.status, Status::Optimal);
    ASSERT_EQ(cold.status, Status::Optimal);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
    ASSERT_GT(warm.nodes_explored, 1);
    const long non_root = warm.nodes_explored - 1;
    const auto bar =
        static_cast<long>(std::ceil(0.9 * static_cast<double>(non_root)));
    EXPECT_GE(warm.warm_started_nodes, bar);
  }
}

}  // namespace
}  // namespace ww::milp
