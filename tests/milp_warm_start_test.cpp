// Warm-start / dual-simplex coverage: basis replay after bound tightening,
// branch-and-bound warm counters, warm-vs-cold equivalence over the stress
// corpus, forced Bland's rule on degenerate programs, and the regression
// guards for the iteration-limit bound fold and ratio-test tie-break.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

// min -2x - 3y  s.t.  x + y <= 4,  x + 3y <= 6,  0 <= x, y <= 10.
// Optimum x = 3, y = 1, objective -9.
Model two_row_lp() {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0, -2.0);
  const int y = m.add_continuous("y", 0.0, 10.0, -3.0);
  (void)m.add_constraint("r1", {{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 4.0);
  (void)m.add_constraint("r2", {{x, 1.0}, {y, 3.0}}, Sense::LessEqual, 6.0);
  return m;
}

TEST(WarmStart, DualSimplexReoptimizesAfterBoundTightening) {
  const Model m = two_row_lp();
  SimplexSolver solver(m);
  const std::vector<double> lower{0.0, 0.0};
  const std::vector<double> upper{10.0, 10.0};
  const Solution base = solver.solve_with_bounds(lower, upper);
  ASSERT_EQ(base.status, Status::Optimal);
  EXPECT_NEAR(base.objective, -9.0, 1e-9);

  const SimplexSolver::WarmStartBasis basis = solver.capture_basis();
  ASSERT_TRUE(basis.valid());

  // Tighten y <= 0.5: the captured basis (y basic at 1) turns primal
  // infeasible and the dual simplex must pivot it out.
  const std::vector<double> tight_upper{10.0, 0.5};
  const Solution warm = solver.solve_with_bounds(lower, tight_upper, &basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_EQ(warm.warm_started_nodes, 1);
  EXPECT_EQ(warm.phase1_nodes, 0);

  SimplexSolver cold_solver(m);
  const Solution cold = cold_solver.solve_with_bounds(lower, tight_upper);
  ASSERT_EQ(cold.status, Status::Optimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.values.size(), cold.values.size());
  for (std::size_t j = 0; j < warm.values.size(); ++j)
    EXPECT_NEAR(warm.values[j], cold.values[j], 1e-8);
}

TEST(WarmStart, DualSimplexProvesChildInfeasibility) {
  const Model m = two_row_lp();
  SimplexSolver solver(m);
  const std::vector<double> lower{0.0, 0.0};
  const std::vector<double> upper{10.0, 10.0};
  ASSERT_EQ(solver.solve_with_bounds(lower, upper).status, Status::Optimal);
  const SimplexSolver::WarmStartBasis basis = solver.capture_basis();
  ASSERT_TRUE(basis.valid());

  // x >= 5 contradicts x + y <= 4 with y >= 0.
  const std::vector<double> tight_lower{5.0, 0.0};
  const Solution warm = solver.solve_with_bounds(tight_lower, upper, &basis);
  EXPECT_EQ(warm.status, Status::Infeasible);
}

TEST(WarmStart, CaptureInvalidAfterInfeasibleSolve) {
  const Model m = two_row_lp();
  SimplexSolver solver(m);
  const Solution sol =
      solver.solve_with_bounds({5.0, 0.0}, {10.0, 10.0});
  EXPECT_EQ(sol.status, Status::Infeasible);
  EXPECT_FALSE(solver.capture_basis().valid());
}

TEST(WarmStart, WarmStartKnobDisablesBasisReplay) {
  const Model m = two_row_lp();
  SolverOptions opts;
  opts.warm_start = false;
  SimplexSolver solver(m, opts);
  const std::vector<double> lower{0.0, 0.0};
  const std::vector<double> upper{10.0, 10.0};
  ASSERT_EQ(solver.solve_with_bounds(lower, upper).status, Status::Optimal);
  const SimplexSolver::WarmStartBasis basis = solver.capture_basis();
  ASSERT_TRUE(basis.valid());
  const Solution again = solver.solve_with_bounds(lower, {10.0, 0.5}, &basis);
  ASSERT_EQ(again.status, Status::Optimal);
  EXPECT_EQ(again.warm_started_nodes, 0);
}

// The DP-checked knapsack from the branch-and-bound suite: fractional
// relaxation, so the tree genuinely branches.
Model dp_knapsack(double* out_best) {
  const std::vector<double> value = {12, 7, 9, 15, 5, 11, 3, 8, 14, 6};
  const std::vector<int> weight = {4, 2, 3, 5, 1, 4, 1, 3, 5, 2};
  const int cap = 12;
  std::vector<double> dp(static_cast<std::size_t>(cap) + 1, 0.0);
  for (std::size_t i = 0; i < value.size(); ++i)
    for (int w = cap; w >= weight[i]; --w)
      dp[static_cast<std::size_t>(w)] =
          std::max(dp[static_cast<std::size_t>(w)],
                   dp[static_cast<std::size_t>(w - weight[i])] + value[i]);
  *out_best = dp[static_cast<std::size_t>(cap)];

  Model m;
  std::vector<Term> row;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const int v = m.add_binary("v", -value[i]);
    row.push_back({v, static_cast<double>(weight[i])});
  }
  (void)m.add_constraint("w", row, Sense::LessEqual, static_cast<double>(cap));
  return m;
}

TEST(WarmStart, BranchAndBoundWarmStartsNearlyEveryNode) {
  const Model m = weak_relaxation_model(10, 3, 4.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_GT(sol.nodes_explored, 1);
  // The acceptance bar: >= 90% of non-root nodes re-solved from the parent
  // basis with no phase-1 run.
  const long non_root = sol.nodes_explored - 1;
  EXPECT_GE(sol.warm_started_nodes,
            static_cast<long>(std::ceil(0.9 * static_cast<double>(non_root))));
  EXPECT_LE(sol.phase1_nodes, sol.nodes_explored - sol.warm_started_nodes);

  // And the warm tree must agree with the cold tree on the answer, while
  // doing a fraction of the simplex work.
  SolverOptions cold_opts;
  cold_opts.warm_start = false;
  const Solution cold = solve(m, cold_opts);
  ASSERT_EQ(cold.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
  EXPECT_LT(sol.simplex_iterations, cold.simplex_iterations);
}

/// Builds the corpus the equivalence sweep runs over (mirrors the stress
/// and branch-and-bound suites: assignment, capacitated assignment,
/// symmetric subset-pick, weak-relaxation soft rows, general integers).
std::vector<Model> equivalence_corpus() {
  std::vector<Model> corpus;
  {
    double ignored = 0.0;
    corpus.push_back(dp_knapsack(&ignored));
  }
  {
    // 3x3 assignment with a unique diagonal optimum.
    const double cost[3][3] = {{1, 9, 9}, {9, 2, 9}, {9, 9, 3}};
    Model m;
    int v[3][3];
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) v[i][j] = m.add_binary("x", cost[i][j]);
    for (int i = 0; i < 3; ++i)
      (void)m.add_constraint("row",
                             {{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}},
                             Sense::Equal, 1.0);
    for (int j = 0; j < 3; ++j)
      (void)m.add_constraint("col",
                             {{v[0][j], 1.0}, {v[1][j], 1.0}, {v[2][j], 1.0}},
                             Sense::Equal, 1.0);
    corpus.push_back(std::move(m));
  }
  {
    // Symmetric pick-7 with epsilon symmetry breaking.
    Model m;
    std::vector<Term> row;
    for (int i = 0; i < 18; ++i) {
      const int v = m.add_binary("v", 1.0 + 1e-9 * i);
      row.push_back({v, 1.0});
    }
    (void)m.add_constraint("pick", std::move(row), Sense::Equal, 7.0);
    corpus.push_back(std::move(m));
  }
  corpus.push_back(weak_relaxation_model(10, 3, 4.0));
  {
    // General integer + continuous mix.
    Model m;
    const int xi = m.add_variable("xi", 0.0, 10.0, VarType::Integer, -1.0);
    const int y = m.add_binary("y", -1.0);
    const int xc = m.add_continuous("xc", 0.0, 3.7, -0.5);
    (void)m.add_constraint("c1", {{xi, 2.0}}, Sense::LessEqual, 9.0);
    (void)m.add_constraint("c2", {{xc, 1.0}, {y, -10.0}}, Sense::LessEqual,
                           0.0);
    corpus.push_back(std::move(m));
  }
  return corpus;
}

TEST(WarmStart, WarmAndColdAgreeAcrossCorpus) {
  const std::vector<Model> corpus = equivalence_corpus();
  for (std::size_t idx = 0; idx < corpus.size(); ++idx) {
    const Model& m = corpus[idx];
    Solution sols[2];
    int k = 0;
    for (const bool warm : {false, true}) {
      SolverOptions opts;
      opts.warm_start = warm;
      sols[k++] = solve(m, opts);
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(sols[i].status, sols[0].status) << "model " << idx;
      ASSERT_TRUE(sols[i].usable()) << "model " << idx;
      EXPECT_NEAR(sols[i].objective, sols[0].objective, 1e-7)
          << "model " << idx << " config " << i;
      EXPECT_LE(m.max_violation(sols[i].values), 1e-6) << "model " << idx;
    }
  }
}

TEST(WarmStart, BestBoundNeverOverstatesUnderIterationLimit) {
  // Regression: a node LP hitting its iteration limit used to vanish from
  // the open-bound fold, letting best_bound overstate the true optimum (at
  // the root, the reported bound was +inf).
  double dp_best = 0.0;
  const Model m = dp_knapsack(&dp_best);
  const double true_opt = -dp_best;  // minimization objective
  for (const long limit : {1L, 2L, 4L, 8L, 16L, 64L, 200000L}) {
    SolverOptions opts;
    opts.max_iterations = limit;
    const Solution sol = solve(m, opts);
    EXPECT_LE(sol.best_bound, true_opt + 1e-6) << "limit " << limit;
    if (sol.status == Status::Optimal) {
      EXPECT_NEAR(sol.objective, true_opt, 1e-7) << "limit " << limit;
    }
    if (sol.has_incumbent) {
      EXPECT_LE(m.max_violation(sol.values), 1e-6) << "limit " << limit;
    }
  }
}

TEST(WarmStart, RootIterationLimitReportsIterationLimitStatus) {
  double dp_best = 0.0;
  const Model m = dp_knapsack(&dp_best);
  SolverOptions opts;
  opts.max_iterations = 1;  // every LP (including the root) hits the limit
  const Solution sol = solve(m, opts);
  EXPECT_EQ(sol.status, Status::IterationLimit);
  EXPECT_FALSE(sol.has_incumbent);
  // Nothing was resolved, so any finite claimed bound would overstate.
  EXPECT_TRUE(std::isinf(sol.best_bound) && sol.best_bound < 0.0)
      << "claimed bound " << sol.best_bound;
}

TEST(Degenerate, BealeCycleTerminatesUnderForcedBland) {
  // Beale's classic cycling example.  With bland_iterations = 1 the whole
  // solve runs under Bland's rule, which must terminate at the known
  // optimum x = (1/25, 0, 1, 0), objective -1/20.
  Model m;
  const int x1 = m.add_continuous("x1", 0.0, kInfinity, -0.75);
  const int x2 = m.add_continuous("x2", 0.0, kInfinity, 150.0);
  const int x3 = m.add_continuous("x3", 0.0, kInfinity, -0.02);
  const int x4 = m.add_continuous("x4", 0.0, kInfinity, 6.0);
  (void)m.add_constraint(
      "r1", {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
      Sense::LessEqual, 0.0);
  (void)m.add_constraint(
      "r2", {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
      Sense::LessEqual, 0.0);
  (void)m.add_constraint("r3", {{x3, 1.0}}, Sense::LessEqual, 1.0);
  SolverOptions opts;
  opts.bland_iterations = 1;
  SimplexSolver s(m, opts);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  EXPECT_LE(m.max_violation(sol.values), 1e-7);
}

TEST(Degenerate, ForcedBlandMatchesDantzigOnDegenerateTransportation) {
  // Highly degenerate (all supplies/demands equal) transportation problem:
  // Bland-forced and default pricing must land on the same objective.
  util::Rng rng(99);
  const int k = 6;
  Model m;
  std::vector<std::vector<int>> v(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j)
      v[static_cast<std::size_t>(i)].push_back(
          m.add_continuous("t", 0.0, kInfinity, rng.uniform(1.0, 9.0)));
  for (int i = 0; i < k; ++i) {
    std::vector<Term> t;
    for (int j = 0; j < k; ++j)
      t.push_back({v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                   1.0});
    (void)m.add_constraint("s", std::move(t), Sense::Equal, 2.0);
  }
  for (int j = 0; j < k; ++j) {
    std::vector<Term> t;
    for (int i = 0; i < k; ++i)
      t.push_back({v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                   1.0});
    (void)m.add_constraint("d", std::move(t), Sense::Equal, 2.0);
  }
  SimplexSolver dantzig(m);
  const Solution a = dantzig.solve();
  SolverOptions opts;
  opts.bland_iterations = 1;
  SimplexSolver bland(m, opts);
  const Solution b = bland.solve();
  ASSERT_EQ(a.status, Status::Optimal);
  ASSERT_EQ(b.status, Status::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
}

TEST(RatioTest, TieBreakNeverLeavesBounds) {
  // Regression for the tie-break step-growth bug: many exactly-tied ratio
  // rows; the accepted replacement must not stretch the step by up to tol
  // and push the outgoing basic variable past its bound.
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0, -1.0);
  const int y = m.add_continuous("y", 0.0, 10.0, -1.0 - 1e-12);
  for (int r = 0; r < 8; ++r)
    (void)m.add_constraint("tie", {{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 5.0);
  SimplexSolver s(m);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[static_cast<std::size_t>(x)] +
                  sol.values[static_cast<std::size_t>(y)],
              5.0, 1e-9);
  EXPECT_LE(m.max_violation(sol.values), 1e-9);
}

}  // namespace
}  // namespace ww::milp
