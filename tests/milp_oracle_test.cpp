// The milp::Model builder and the dense-simplex oracle (milp::solve):
// textbook LPs with known optima, status paths, degenerate and tied
// pivots, the dual certificate (textbook duals and the Lagrangian identity
// with optimality signs on random LPs), random LPs feasible by
// construction, square equality systems against their unique solution,
// assignments and knapsacks against enumeration, the soft chunk model's
// penalty fold, and concurrent solves against serial ones.
#include "milp/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "milp/instances.hpp"
#include "milp/model.hpp"
#include "util/rng.hpp"
#include "util/work_steal.hpp"

namespace ww::milp {
namespace {

std::size_t idx(int i) { return static_cast<std::size_t>(i); }

// --- Model builder -----------------------------------------------------------

TEST(Model, AddVariableBasics) {
  Model m;
  const int x = m.add_continuous(0.0, 10.0, 2.0);
  const int y = m.add_binary(-1.0);
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 1);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.variable(x).objective, 2.0);
  EXPECT_EQ(m.variable(y).lower, 0.0);
  EXPECT_EQ(m.variable(y).upper, 1.0);
  EXPECT_EQ(m.variable(y).type, VarType::Binary);
}

TEST(Model, BinaryForcesBounds) {
  Model m;
  const int b = m.add_variable(-5.0, 5.0, VarType::Binary);
  EXPECT_EQ(m.variable(b).lower, 0.0);
  EXPECT_EQ(m.variable(b).upper, 1.0);
}

TEST(Model, RejectsInvertedBounds) {
  Model m;
  EXPECT_THROW(m.add_continuous(2.0, 1.0), std::invalid_argument);
  const int x = m.add_continuous(0.0, 1.0);
  EXPECT_THROW(m.set_variable_bounds(x, 1.0, 0.0), std::invalid_argument);
}

TEST(Model, ConstraintMergesDuplicateTerms) {
  Model m;
  const int x = m.add_continuous(0.0, 1.0);
  const int y = m.add_continuous(0.0, 1.0);
  const int c = m.add_constraint({{y, -1.0}, {x, 1.0}, {x, 2.0}, {y, 1.0}},
                                 Sense::LessEqual, 4.0);
  const auto& row = m.constraint(c);
  ASSERT_EQ(row.terms.size(), 1u);  // y cancelled out, x merged
  EXPECT_EQ(row.terms[0].var, x);
  EXPECT_DOUBLE_EQ(row.terms[0].coeff, 3.0);
}

TEST(Model, ConstraintRejectsUnknownVariable) {
  Model m;
  (void)m.add_continuous(0.0, 1.0);
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Sense::Equal, 0.0),
               std::out_of_range);
}

TEST(Model, ObjectiveValue) {
  Model m;
  (void)m.add_continuous(0.0, 10.0, 2.0);
  (void)m.add_continuous(0.0, 10.0, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({3.0, 4.0}), 2.0);
}

TEST(Model, MaxViolationFeasiblePoint) {
  Model m;
  const int x = m.add_continuous(0.0, 10.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 5.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({7.0}), 2.0);   // row violated
  EXPECT_DOUBLE_EQ(m.max_violation({-2.0}), 2.0);  // bound violated
}

TEST(Model, MaxViolationSenses) {
  Model m;
  const int x = m.add_continuous(-10.0, 10.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::Equal, 3.0);
  EXPECT_DOUBLE_EQ(m.max_violation({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.max_violation({1.0}), 2.0);  // eq off by 2, ge off by 1
}

TEST(Model, ReservePreservesContents) {
  Model m;
  m.reserve(100, 50);
  const int x = m.add_binary(2.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 1.0);
  EXPECT_EQ(m.num_variables(), 1);
  EXPECT_EQ(m.num_constraints(), 1);
  EXPECT_DOUBLE_EQ(m.variable(x).objective, 2.0);
}

// --- Oracle: textbook LPs and status paths -----------------------------------

TEST(StatusToString, AllCovered) {
  EXPECT_STREQ(to_string(Status::Optimal), "optimal");
  EXPECT_STREQ(to_string(Status::Infeasible), "infeasible");
  EXPECT_STREQ(to_string(Status::Unbounded), "unbounded");
  EXPECT_STREQ(to_string(Status::Fractional), "fractional");
}

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), obj 36.
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -3.0);
  const int y = m.add_continuous(0.0, kInfinity, -5.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  (void)m.add_constraint({{y, 2.0}}, Sense::LessEqual, 12.0);
  (void)m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::LessEqual, 18.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.values[1], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraintNeedsPhase1) {
  // min x + 2y s.t. x + y = 10, x <= 6  => x=6, y=4, obj 14.
  Model m;
  const int x = m.add_continuous(0.0, 6.0, 1.0);
  const int y = m.add_continuous(0.0, kInfinity, 2.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 10.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 14.0, 1e-8);
  EXPECT_NEAR(sol.values[0], 6.0, 1e-8);
  EXPECT_NEAR(sol.values[1], 4.0, 1e-8);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6  => (3, 1), obj 9.
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, 2.0);
  const int y = m.add_continuous(0.0, kInfinity, 3.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 4.0);
  (void)m.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::GreaterEqual, 6.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 9.0, 1e-8);
  EXPECT_NEAR(sol.values[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const int x = m.add_continuous(0.0, 1.0, 1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, 2.0);
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsContradictoryRows) {
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, 0.0);
  const int y = m.add_continuous(0.0, kInfinity, 0.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::Equal, 3.0);
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -1.0);
  const int y = m.add_continuous(0.0, kInfinity, 0.0);
  (void)m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::LessEqual, 1.0);
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, BoundedVariablesOnly) {
  // No rows: min -x - 2y with x in [1,3], y in [0,5] => (3,5), obj -13.
  Model m;
  (void)m.add_continuous(1.0, 3.0, -1.0);
  (void)m.add_continuous(0.0, 5.0, -2.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -13.0, 1e-9);
}

TEST(Simplex, NoRowsUnboundedDetected) {
  Model m;
  (void)m.add_continuous(0.0, kInfinity, -1.0);
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, UpperBoundedVariableBindsFirst) {
  // min -x s.t. x <= 10 row, but x's own bound is 3 => x = 3.
  Model m;
  const int x = m.add_continuous(0.0, 3.0, -1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 10.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 3.0, 1e-9);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y with x in [-5, 5], y in [-2, 2] and x + y >= -4: the row
  // binds, so the optimum is exactly -4.
  Model m;
  const int x = m.add_continuous(-5.0, 5.0, 1.0);
  const int y = m.add_continuous(-2.0, 2.0, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, -4.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
}

TEST(Simplex, FreeVariable) {
  // min x with x free, x >= -7 via row  => x = -7.
  Model m;
  const int x = m.add_continuous(-kInfinity, kInfinity, 1.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::GreaterEqual, -7.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], -7.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Multiple redundant constraints through one vertex (classic cycling bait).
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -1.0);
  const int y = m.add_continuous(0.0, kInfinity, -1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 1.0);
  (void)m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::LessEqual, 2.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 1.0);
  (void)m.add_constraint({{y, 1.0}}, Sense::LessEqual, 1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -1.0, 1e-8);
}

TEST(Simplex, TransportationProblemIsIntegral) {
  // 2 supplies x 3 demands; LP relaxation of a transportation problem has
  // integral vertices, so the simplex answer should be integer-valued.
  Model m;
  const double cost[2][3] = {{4, 6, 9}, {5, 3, 8}};
  int v[2][3];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      v[i][j] = m.add_continuous(0.0, kInfinity, cost[i][j]);
  const double supply[2] = {10, 15};
  const double demand[3] = {7, 9, 9};
  for (int i = 0; i < 2; ++i)
    (void)m.add_constraint({{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}},
                           Sense::LessEqual, supply[i]);
  for (int j = 0; j < 3; ++j)
    (void)m.add_constraint({{v[0][j], 1.0}, {v[1][j], 1.0}},
                           Sense::GreaterEqual, demand[j]);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  for (const double val : sol.values) EXPECT_NEAR(val, std::round(val), 1e-7);
  // Optimum: s1->d1 7@4, s2->d2 9@3, d3 split 3@9 (s1) + 6@8 (s2) = 130.
  EXPECT_NEAR(sol.objective, 130.0, 1e-6);
}

TEST(Simplex, RepeatedSolvesAreIndependent) {
  Model m;
  const int x = m.add_continuous(0.0, 5.0, -2.0);
  const int y = m.add_continuous(0.0, 5.0, -1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 6.0);
  const Solution first = solve(m);
  const Solution second = solve(m);
  ASSERT_EQ(first.status, Status::Optimal);
  ASSERT_EQ(second.status, Status::Optimal);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.values, second.values);
}

TEST(Simplex, FixedVariableViaEqualBounds) {
  Model m;
  const int x = m.add_continuous(2.0, 2.0, 1.0);
  const int y = m.add_continuous(0.0, kInfinity, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::GreaterEqual, 5.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 3.0, 1e-9);
}

TEST(Simplex, LargerDenseProblem) {
  // min sum x_i s.t. for each of 40 rows: x_i + x_{i+1} >= 1 (ring).
  Model m;
  const int n = 40;
  for (int i = 0; i < n; ++i) (void)m.add_continuous(0.0, 1.0, 1.0);
  for (int i = 0; i < n; ++i)
    (void)m.add_constraint({{i, 1.0}, {(i + 1) % n, 1.0}}, Sense::GreaterEqual,
                           1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, n / 2.0, 1e-7);  // all at 0.5
}

TEST(SimplexStress, HighlyDegenerateEqualitySystem) {
  // Many redundant equalities through the same point.
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, 1.0);
  const int y = m.add_continuous(0.0, kInfinity, 1.0);
  const int z = m.add_continuous(0.0, kInfinity, 1.0);
  (void)m.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Sense::Equal, 3.0);
  (void)m.add_constraint({{x, 2.0}, {y, 2.0}, {z, 2.0}}, Sense::Equal, 6.0);
  (void)m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::Equal, 0.0);
  (void)m.add_constraint({{y, 1.0}, {z, -1.0}}, Sense::Equal, 0.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-7);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-7);
  EXPECT_NEAR(sol.values[2], 1.0, 1e-7);
}

TEST(SimplexStress, LargeTransportationStaysExact) {
  // 12 x 12 transportation problem: the vertex the simplex stops at must
  // be feasible and integral.
  util::Rng rng(2024);
  const int k = 12;
  Model m;
  for (int i = 0; i < k * k; ++i)
    (void)m.add_continuous(0.0, kInfinity, rng.uniform(1.0, 9.0));
  for (int i = 0; i < k; ++i) {
    std::vector<Term> supply, demand;
    for (int j = 0; j < k; ++j) {
      supply.push_back({i * k + j, 1.0});
      demand.push_back({j * k + i, 1.0});
    }
    (void)m.add_constraint(std::move(supply), Sense::Equal, 5.0);
    (void)m.add_constraint(std::move(demand), Sense::Equal, 5.0);
  }
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_LE(m.max_violation(sol.values), 1e-6);
  for (const double val : sol.values) EXPECT_NEAR(val, std::round(val), 1e-6);
}

TEST(Degenerate, BealeCycleTerminatesUnderBlandFallback) {
  // Beale's example, on which the most-negative-reduced-cost rule can
  // cycle; the Bland fallback must still reach the known optimum
  // x = (1/25, 0, 1, 0), objective -1/20.
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
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  EXPECT_LE(m.max_violation(sol.values), 1e-7);
}

TEST(RatioTest, TieBreakNeverLeavesBounds) {
  // Many exactly tied ratio rows: whichever leaves, the step must stop at
  // the shared bound and no basic variable may cross its own.
  Model m;
  const int x = m.add_continuous(0.0, 10.0, -1.0);
  const int y = m.add_continuous(0.0, 10.0, -1.0 - 1e-12);
  for (int r = 0; r < 8; ++r)
    (void)m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::LessEqual, 5.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[idx(x)] + sol.values[idx(y)], 5.0, 1e-9);
  EXPECT_LE(m.max_violation(sol.values), 1e-9);
}

// --- Oracle: dual certificate -----------------------------------------------

TEST(Duality, TextbookDuals) {
  // min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
  // Optimal (2, 6); binding rows 2 and 3 with duals (0, -3/2, -1).
  Model m;
  const int x = m.add_continuous(0.0, kInfinity, -3.0);
  const int y = m.add_continuous(0.0, kInfinity, -5.0);
  (void)m.add_constraint({{x, 1.0}}, Sense::LessEqual, 4.0);
  (void)m.add_constraint({{y, 2.0}}, Sense::LessEqual, 12.0);
  (void)m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::LessEqual, 18.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_EQ(sol.duals.size(), 3u);
  EXPECT_NEAR(sol.duals[0], 0.0, 1e-8);
  EXPECT_NEAR(sol.duals[1], -1.5, 1e-8);
  EXPECT_NEAR(sol.duals[2], -1.0, 1e-8);
  // Basic structural variables have zero reduced cost.
  ASSERT_EQ(sol.reduced_costs.size(), 2u);
  EXPECT_NEAR(sol.reduced_costs[0], 0.0, 1e-8);
  EXPECT_NEAR(sol.reduced_costs[1], 0.0, 1e-8);
  // Strong duality for this (lb = 0) program: obj = y^T b.
  EXPECT_NEAR(sol.objective, -1.5 * 12.0 - 1.0 * 18.0, 1e-8);
}

TEST(Duality, ReducedCostSignsAtBounds) {
  // min x1 + 2 x2 - x3, all in [0, 2], x1 + x2 + x3 >= 1.
  Model m;
  (void)m.add_continuous(0.0, 2.0, 1.0);
  (void)m.add_continuous(0.0, 2.0, 2.0);
  (void)m.add_continuous(0.0, 2.0, -1.0);
  (void)m.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Sense::GreaterEqual,
                         1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  // x3 = 2 (at upper) with negative reduced cost; x1, x2 at lower with
  // non-negative reduced costs.
  EXPECT_NEAR(sol.values[2], 2.0, 1e-9);
  EXPECT_LE(sol.reduced_costs[2], 1e-9);
  EXPECT_GE(sol.reduced_costs[0], -1e-9);
  EXPECT_GE(sol.reduced_costs[1], -1e-9);
}

class DualityProperty : public ::testing::TestWithParam<int> {};

TEST_P(DualityProperty, LagrangianIdentityAndSigns) {
  // The identity and the sign conditions together prove the returned point
  // optimal, independently of how the simplex reached it.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 11);
  const int n = static_cast<int>(rng.uniform_int(2, 7));
  const int rows = static_cast<int>(rng.uniform_int(1, 5));

  Model m;
  std::vector<double> witness;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 4.0);
    (void)m.add_continuous(lo, hi, rng.uniform(-2.0, 2.0));
    witness.push_back(lo + 0.5 * (hi - lo));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.25)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({j, c});
      lhs += c * witness[idx(j)];
    }
    if (terms.empty()) {
      terms.push_back({0, 1.0});
      lhs = witness[0];
    }
    (void)m.add_constraint(std::move(terms), Sense::LessEqual,
                           lhs + rng.uniform(0.05, 2.0));
  }

  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  ASSERT_EQ(sol.duals.size(), idx(m.num_constraints()));
  ASSERT_EQ(sol.reduced_costs.size(), idx(n));

  // Lagrangian identity: c.x = y.b + sum_j d_j x_j + sum_i (-y_i) slack_i.
  double rhs_total = 0.0;
  for (int i = 0; i < m.num_constraints(); ++i) {
    const Constraint& c = m.constraint(i);
    double activity = 0.0;
    for (const Term& t : c.terms) activity += t.coeff * sol.values[idx(t.var)];
    const double slack = c.rhs - activity;  // row + slack = rhs
    rhs_total += sol.duals[idx(i)] * c.rhs;
    rhs_total += -sol.duals[idx(i)] * slack;
  }
  for (int j = 0; j < n; ++j)
    rhs_total += sol.reduced_costs[idx(j)] * sol.values[idx(j)];
  EXPECT_NEAR(sol.objective, rhs_total, 1e-6);

  // Sign conditions: d_j >= 0 when x_j at lower bound, <= 0 at upper, ~0 in
  // the interior.  LE rows require y_i <= 0 in min form (slack at lower
  // bound 0 must not price in).
  for (int j = 0; j < n; ++j) {
    const auto& v = m.variable(j);
    const double x = sol.values[idx(j)];
    const double d = sol.reduced_costs[idx(j)];
    if (x > v.lower + 1e-7 && x < v.upper - 1e-7) {
      EXPECT_NEAR(d, 0.0, 1e-6);
    }
    if (std::abs(x - v.lower) <= 1e-9 && std::abs(x - v.upper) > 1e-9) {
      EXPECT_GE(d, -1e-6);
    }
    if (std::abs(x - v.upper) <= 1e-9 && std::abs(x - v.lower) > 1e-9) {
      EXPECT_LE(d, 1e-6);
    }
  }
  for (const double y : sol.duals) EXPECT_LE(y, 1e-6);  // all rows are LE
}

INSTANTIATE_TEST_SUITE_P(Sweep, DualityProperty, ::testing::Range(0, 30));

// --- Oracle: integrality -----------------------------------------------------

TEST(Oracle, FractionalKnapsackReportsFractional) {
  // max 8a + 11b + 6c, weights 5, 7, 4, capacity 9.  The LP optimum is
  // a = 1, b = 4/7 (value 8 + 44/7); the integer optimum {a, c} is 14.
  // The oracle must flag the fractional column, not claim optimality.
  Model m;
  const int a = m.add_binary(-8.0);
  const int b = m.add_binary(-11.0);
  const int c = m.add_binary(-6.0);
  (void)m.add_constraint({{a, 5.0}, {b, 7.0}, {c, 4.0}}, Sense::LessEqual,
                         9.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Fractional);
  EXPECT_NEAR(sol.values[idx(a)], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[idx(b)], 4.0 / 7.0, 1e-9);
  EXPECT_NEAR(sol.objective, -8.0 - 44.0 / 7.0, 1e-9);
  EXPECT_LT(sol.objective, -14.0);  // an LP bound, below the MILP optimum
}

// The next four cases come from the deleted branch-and-bound suite and
// keep its names.  Each model's LP optimum is already integral, so the
// oracle must return it as Optimal without branching.

TEST(BranchAndBound, PureLpPassthrough) {
  Model m;
  (void)m.add_continuous(0.0, 4.0, -1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
}

TEST(BranchAndBound, AssignmentProblemOptimal) {
  // 3x3 assignment, cost matrix with known optimum 1+2+3 = 6 on diagonal
  // after permutation.
  const double cost[3][3] = {{1, 9, 9}, {9, 2, 9}, {9, 9, 3}};
  Model m;
  int v[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) v[i][j] = m.add_binary(cost[i][j]);
  for (int i = 0; i < 3; ++i)
    (void)m.add_constraint({{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}},
                           Sense::Equal, 1.0);
  for (int j = 0; j < 3; ++j)
    (void)m.add_constraint({{v[0][j], 1.0}, {v[1][j], 1.0}, {v[2][j], 1.0}},
                           Sense::Equal, 1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 6.0, 1e-7);
}

TEST(BranchAndBound, CapacitatedAssignmentLikeWaterWise) {
  // 4 jobs, 2 regions, region capacity 2 each; region 0 cheaper for all:
  // optimum places 2 jobs in each region picking the cheapest split.
  Model m;
  const double cost[4][2] = {{1, 2}, {1, 3}, {1, 1.5}, {1, 5}};
  int x[4][2];
  for (int j = 0; j < 4; ++j)
    for (int r = 0; r < 2; ++r) x[j][r] = m.add_binary(cost[j][r]);
  for (int j = 0; j < 4; ++j)
    (void)m.add_constraint({{x[j][0], 1.0}, {x[j][1], 1.0}}, Sense::Equal,
                           1.0);
  for (int r = 0; r < 2; ++r)
    (void)m.add_constraint(
        {{x[0][r], 1.0}, {x[1][r], 1.0}, {x[2][r], 1.0}, {x[3][r], 1.0}},
        Sense::LessEqual, 2.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  // Cheapest: jobs with the largest regret (1 vs 5, 1 vs 3) go to region 0;
  // jobs (1 vs 2), (1 vs 1.5) to region 1 => 1 + 1 + 2 + 1.5 = 5.5.
  EXPECT_NEAR(sol.objective, 5.5, 1e-7);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // min -y - 0.5 x with y binary, x continuous <= 3.7, x <= 10 y
  // => y = 1, x = 3.7, obj -2.85.
  Model m;
  const int y = m.add_binary(-1.0);
  const int x = m.add_continuous(0.0, 3.7, -0.5);
  (void)m.add_constraint({{x, 1.0}, {y, -10.0}}, Sense::LessEqual, 0.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -2.85, 1e-8);
  EXPECT_NEAR(sol.values[idx(y)], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[idx(x)], 3.7, 1e-7);
}

TEST(MilpEquivalence, InfeasibleAgreesAcrossModes) {
  // An over-capacitated assignment (12 jobs but only 4 x 2 = 8 slots) has
  // no feasible point.  The oracle must prove it in every way of stating
  // the model: binary or continuous [0, 1] columns, and capacity rows as
  // sum <= 2 or as -sum >= -2 (which enters phase 1 through the other
  // slack bound).
  const int jobs = 12, regions = 4;
  for (const VarType type : {VarType::Binary, VarType::Continuous}) {
    for (const bool ge_rows : {false, true}) {
      Model m;
      for (int j = 0; j < jobs; ++j)
        for (int r = 0; r < regions; ++r)
          (void)m.add_variable(0.0, 1.0, type, 0.5 + 0.1 * r);
      for (int j = 0; j < jobs; ++j) {
        std::vector<Term> t;
        for (int r = 0; r < regions; ++r) t.push_back({j * regions + r, 1.0});
        (void)m.add_constraint(std::move(t), Sense::Equal, 1.0);
      }
      const double sign = ge_rows ? -1.0 : 1.0;
      for (int r = 0; r < regions; ++r) {
        std::vector<Term> t;
        for (int j = 0; j < jobs; ++j) t.push_back({j * regions + r, sign});
        (void)m.add_constraint(std::move(t),
                               ge_rows ? Sense::GreaterEqual : Sense::LessEqual,
                               sign * 2.0);
      }
      EXPECT_EQ(solve(m).status, Status::Infeasible)
          << (type == VarType::Binary ? "binary" : "continuous")
          << (ge_rows ? " >= rows" : " <= rows");
    }
  }
}

/// The folded twin of a soft chunk model: every penalty row
/// `e * x - p <= 0` (e > 0) is dropped together with its penalty column p,
/// and cost(p) * e moves onto x's cost.  p has a positive cost and appears
/// in no other row, so every optimum has p = e * x and the substitution is
/// exact; the twin is the form the scheduler builds.
Model fold_penalty_rows(const Model& m) {
  std::vector<double> cost(m.variables().size());
  std::vector<bool> penalty(m.variables().size(), false);
  for (std::size_t v = 0; v < cost.size(); ++v)
    cost[v] = m.variables()[v].objective;
  std::vector<bool> folded(m.constraints().size(), false);
  for (std::size_t i = 0; i < m.constraints().size(); ++i) {
    const Constraint& c = m.constraints()[i];
    if (c.sense != Sense::LessEqual || c.rhs != 0.0 || c.terms.size() != 2)
      continue;
    const Term& x = c.terms[0];
    const Term& p = c.terms[1];
    if (x.coeff <= 0.0 || p.coeff != -1.0) continue;
    const auto pv = static_cast<std::size_t>(p.var);
    cost[static_cast<std::size_t>(x.var)] += cost[pv] * x.coeff;
    penalty[pv] = true;
    folded[i] = true;
  }
  Model out;
  std::vector<int> remap(cost.size(), -1);
  for (std::size_t v = 0; v < cost.size(); ++v) {
    if (penalty[v]) continue;
    const Variable& var = m.variables()[v];
    remap[v] = out.add_variable(var.lower, var.upper, var.type, cost[v]);
  }
  for (std::size_t i = 0; i < m.constraints().size(); ++i) {
    if (folded[i]) continue;
    const Constraint& c = m.constraints()[i];
    std::vector<Term> terms;
    terms.reserve(c.terms.size());
    for (const Term& t : c.terms)
      terms.push_back({remap[static_cast<std::size_t>(t.var)], t.coeff});
    (void)out.add_constraint(std::move(terms), c.sense, c.rhs);
  }
  return out;
}

TEST(MilpEquivalence, FoldedSoftPenaltyIsExactAndRootIntegral) {
  // The scheduler's soft model charges delay exceedance on the assignment
  // costs instead of through penalty columns.  The folded model must reach
  // the unfolded optimum and, being a transportation polytope, settle it
  // at an integral LP vertex (Optimal, not Fractional) — and so must the
  // unfolded one.
  for (const auto& [jobs, regions] : {std::pair{30, 4}, std::pair{100, 5}}) {
    for (const std::uint64_t seed : {13ULL, 29ULL}) {
      const Model unfolded = soft_chunk_model(jobs, regions, seed);
      const Model folded = fold_penalty_rows(unfolded);
      const std::string tag = std::to_string(jobs) + "x" +
                              std::to_string(regions) +
                              " seed=" + std::to_string(seed);
      ASSERT_EQ(folded.num_variables(), jobs * regions) << tag;
      ASSERT_EQ(folded.num_constraints(), jobs + regions) << tag;
      const Solution ref = solve(unfolded);
      const Solution got = solve(folded);
      ASSERT_EQ(ref.status, Status::Optimal) << tag;
      ASSERT_EQ(got.status, Status::Optimal) << tag;
      EXPECT_NEAR(got.objective, ref.objective,
                  1e-9 * std::max(1.0, std::abs(ref.objective)))
          << tag;
    }
  }
}

TEST(MilpEquivalence, ConcurrentSolvesMatchSerialBitwise) {
  // milp::solve keeps no shared mutable state, so eight simultaneous
  // solves of each chunk model must return bitwise the answer of a serial
  // solve.  (The oracle is deterministic, so "equal" here means ==, not
  // within a tolerance.)
  util::WorkStealingPool pool(4);
  const std::pair<const char*, Model> corpus[] = {
      {"hard-chunk-60x4", hard_chunk_model(60, 4, 0.4)},
      {"soft-chunk-30x4", soft_chunk_model(30, 4)},
  };
  for (const auto& [name, model] : corpus) {
    const Solution ref = solve(model);
    ASSERT_EQ(ref.status, Status::Optimal) << name;

    constexpr std::size_t kConcurrent = 8;
    std::vector<Solution> sols(kConcurrent);
    pool.parallel_for(kConcurrent,
                      [&](std::size_t i) { sols[i] = solve(model); });
    for (std::size_t i = 0; i < kConcurrent; ++i) {
      const std::string tag =
          std::string(name) + " concurrent #" + std::to_string(i);
      EXPECT_EQ(sols[i].status, ref.status) << tag;
      EXPECT_EQ(sols[i].objective, ref.objective) << tag;
      EXPECT_EQ(sols[i].values, ref.values) << tag;
      EXPECT_EQ(sols[i].duals, ref.duals) << tag;
    }
  }
}

// --- Oracle: randomized sweeps -----------------------------------------------

class LpRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomProperty, FeasibleByConstructionSolvesOptimal) {
  // A random interior point keeps every LE row feasible; the optimum must
  // satisfy every row and bound and beat the witness and every sampled
  // feasible point.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  const int rows = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<double> witness;
  Model m;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-3.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 6.0);
    (void)m.add_continuous(lo, hi, rng.uniform(-2.0, 2.0));
    witness.push_back(lo + 0.5 * (hi - lo));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({j, c});
      lhs += c * witness[idx(j)];
    }
    if (terms.empty()) continue;
    (void)m.add_constraint(std::move(terms), Sense::LessEqual,
                           lhs + rng.uniform(0.1, 3.0));
  }

  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal) << "seed param " << GetParam();
  EXPECT_LE(m.max_violation(sol.values), 1e-6);
  EXPECT_LE(sol.objective, m.objective_value(witness) + 1e-7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> p;
    for (int j = 0; j < n; ++j)
      p.push_back(rng.uniform(m.variable(j).lower, m.variable(j).upper));
    if (m.max_violation(p) <= 1e-9) {
      EXPECT_LE(sol.objective, m.objective_value(p) + 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpRandomProperty, ::testing::Range(0, 40));

class EqualitySystemProperty : public ::testing::TestWithParam<int> {};

TEST_P(EqualitySystemProperty, UniqueSolutionRecovered) {
  // Square, diagonally dominant A x = b with bounds wide enough: the LP
  // has one feasible point, so any objective must return exactly it.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7741 + 3);
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  std::vector<std::vector<double>> a(idx(n), std::vector<double>(idx(n)));
  std::vector<double> xref(idx(n));
  for (auto& row : a)
    for (auto& c : row) c = rng.uniform(-3.0, 3.0);
  for (int i = 0; i < n; ++i) a[idx(i)][idx(i)] += 4.0;
  for (auto& x : xref) x = rng.uniform(-2.0, 2.0);

  Model m;
  for (int j = 0; j < n; ++j)
    (void)m.add_continuous(-10.0, 10.0, rng.uniform(-1.0, 1.0));
  for (int i = 0; i < n; ++i) {
    std::vector<Term> t;
    double b = 0.0;
    for (int j = 0; j < n; ++j) {
      t.push_back({j, a[idx(i)][idx(j)]});
      b += a[idx(i)][idx(j)] * xref[idx(j)];
    }
    (void)m.add_constraint(std::move(t), Sense::Equal, b);
  }
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal) << "param " << GetParam();
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(sol.values[idx(j)], xref[idx(j)], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EqualitySystemProperty,
                         ::testing::Range(0, 25));

class AssignmentExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentExhaustive, MilpMatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  const int jobs = static_cast<int>(rng.uniform_int(2, 5));
  const int regions = static_cast<int>(rng.uniform_int(2, 3));
  std::vector<int> caps;
  int total_cap = 0;
  for (int r = 0; r < regions; ++r) {
    caps.push_back(static_cast<int>(rng.uniform_int(1, jobs)));
    total_cap += caps.back();
  }
  if (total_cap < jobs) caps[0] += jobs - total_cap;  // keep it feasible
  std::vector<double> cost(idx(jobs * regions));
  for (double& c : cost) c = rng.uniform(0.1, 5.0);

  // Brute force over regions^jobs assignments.
  double best = std::numeric_limits<double>::infinity();
  long combos = 1;
  for (int j = 0; j < jobs; ++j) combos *= regions;
  for (long code = 0; code < combos; ++code) {
    long rest = code;
    std::vector<int> used(idx(regions), 0);
    double total = 0.0;
    bool ok = true;
    for (int j = 0; j < jobs && ok; ++j) {
      const int r = static_cast<int>(rest % regions);
      rest /= regions;
      ok = ++used[idx(r)] <= caps[idx(r)];
      total += cost[idx(j * regions + r)];
    }
    if (ok) best = std::min(best, total);
  }

  Model m;
  for (const double c : cost) (void)m.add_binary(c);
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r) t.push_back({j * regions + r, 1.0});
    (void)m.add_constraint(std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j) t.push_back({j * regions + r, 1.0});
    (void)m.add_constraint(std::move(t), Sense::LessEqual,
                           static_cast<double>(caps[idx(r)]));
  }
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, best, 1e-6) << "param " << GetParam();
  EXPECT_LE(m.max_violation(sol.values), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AssignmentExhaustive, ::testing::Range(0, 30));

class KnapsackExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(KnapsackExhaustive, MilpMatchesEnumeration) {
  // A knapsack is not totally unimodular, so the oracle's verdict must
  // match enumeration in one of two ways: an integral vertex that is the
  // enumerated optimum, or Fractional with an objective no worse than that
  // optimum (an LP bound).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 337 + 99);
  const int n = static_cast<int>(rng.uniform_int(3, 10));
  std::vector<double> value(idx(n));
  std::vector<double> weight(idx(n));
  double wtotal = 0.0;
  for (int i = 0; i < n; ++i) {
    value[idx(i)] = rng.uniform(0.5, 10.0);
    weight[idx(i)] = rng.uniform(0.5, 5.0);
    wtotal += weight[idx(i)];
  }
  const double cap = wtotal * rng.uniform(0.3, 0.7);

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0.0;
    double w = 0.0;
    for (int i = 0; i < n; ++i)
      if (mask & (1 << i)) {
        v += value[idx(i)];
        w += weight[idx(i)];
      }
    if (w <= cap) best = std::max(best, v);
  }

  Model m;
  std::vector<Term> row;
  for (int i = 0; i < n; ++i)
    row.push_back({m.add_binary(-value[idx(i)]), weight[idx(i)]});
  (void)m.add_constraint(std::move(row), Sense::LessEqual, cap);
  const Solution sol = solve(m);
  EXPECT_LE(m.max_violation(sol.values), 1e-9);
  if (sol.status == Status::Optimal) {
    EXPECT_NEAR(-sol.objective, best, 1e-9);
  } else {
    ASSERT_EQ(sol.status, Status::Fractional);
    EXPECT_GE(-sol.objective, best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnapsackExhaustive, ::testing::Range(0, 30));

}  // namespace
}  // namespace ww::milp
