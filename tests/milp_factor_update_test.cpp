// Forrest-Tomlin update coverage: randomized basis-change chains hundreds
// of pivots long (no refactorization) checked against fresh factorizations
// to <= 1e-9, singularity/instability forcing cases that must trigger a
// refactorization instead of committing garbage, solver-level long-run
// agreement with the refactorize-every-pivot path.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/basis_lu.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "util/rng.hpp"

namespace ww::milp {
namespace {

/// Dense column-major copy of the basis matrix: B[row][pos].
std::vector<std::vector<double>> dense_basis(
    int m, const std::vector<SparseVec>& cols, const std::vector<int>& basis) {
  std::vector<std::vector<double>> b(
      static_cast<std::size_t>(m),
      std::vector<double>(static_cast<std::size_t>(m), 0.0));
  for (int pos = 0; pos < m; ++pos) {
    const SparseVec& c = cols[static_cast<std::size_t>(
        basis[static_cast<std::size_t>(pos)])];
    for (std::size_t k = 0; k < c.rows.size(); ++k)
      b[static_cast<std::size_t>(c.rows[k])][static_cast<std::size_t>(pos)] +=
          c.values[k];
  }
  return b;
}

/// Max |B x - a| over rows for a position-indexed solution x.
double ftran_residual(const std::vector<std::vector<double>>& b,
                      const std::vector<double>& x,
                      const std::vector<double>& a) {
  const std::size_t m = b.size();
  double worst = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    double acc = 0.0;
    for (std::size_t p = 0; p < m; ++p) acc += b[r][p] * x[p];
    worst = std::max(worst, std::abs(acc - a[r]));
  }
  return worst;
}

/// Max |B^T y - c| over positions for a row-indexed solution y.
double btran_residual(const std::vector<std::vector<double>>& b,
                      const std::vector<double>& y,
                      const std::vector<double>& c) {
  const std::size_t m = b.size();
  double worst = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    double acc = 0.0;
    for (std::size_t r = 0; r < m; ++r) acc += b[r][p] * y[r];
    worst = std::max(worst, std::abs(acc - c[p]));
  }
  return worst;
}

/// Random sparse nonsingular pool, diagonally dominant up to a row
/// permutation (returned via `dom_row`) so replacement chains can keep the
/// evolving basis well conditioned.
std::vector<SparseVec> random_sparse_columns(int m, util::Rng& rng,
                                             std::vector<int>* dom_row) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int i = m - 1; i > 0; --i)
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  if (dom_row != nullptr) *dom_row = perm;
  std::vector<SparseVec> cols(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    SparseVec& c = cols[static_cast<std::size_t>(j)];
    const int extras = static_cast<int>(rng.uniform_int(0, 3));
    c.rows.push_back(perm[static_cast<std::size_t>(j)]);
    c.values.push_back((rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0) *
                       rng.uniform(4.0, 8.0));
    for (int e = 0; e < extras; ++e) {
      const int r = static_cast<int>(rng.uniform_int(0, m - 1));
      if (r == perm[static_cast<std::size_t>(j)]) continue;
      c.rows.push_back(r);
      c.values.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  return cols;
}

std::vector<int> identity_basis(int m) {
  std::vector<int> b(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) b[static_cast<std::size_t>(i)] = i;
  return b;
}

/// Ftran of `col` through `lu` with the spike saved for an update.
std::vector<double> ftran_for_update(const BasisLU& lu, int m,
                                     const SparseVec& col) {
  std::vector<double> w(static_cast<std::size_t>(m), 0.0);
  for (std::size_t k = 0; k < col.rows.size(); ++k)
    w[static_cast<std::size_t>(col.rows[k])] += col.values[k];
  lu.ftran(w, /*save_spike=*/true);
  return w;
}

class FactorUpdateChain : public ::testing::TestWithParam<int> {};

TEST_P(FactorUpdateChain, LongChainsTrackFreshFactorization) {
  // 200+ Forrest-Tomlin updates on one factorization — no refactorization
  // anywhere — must keep ftran/btran within 1e-9 of a from-scratch
  // factorization of the evolved basis.  The product-form eta file this
  // kernel replaced would have accumulated 200+ eta columns here; FT keeps
  // the factor storage flat, which is exactly what the final update-count
  // and fill assertions pin.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int m = 36 + 4 * GetParam();
  std::vector<int> dom_row;
  std::vector<SparseVec> cols = random_sparse_columns(m, rng, &dom_row);
  std::vector<int> basis = identity_basis(m);

  BasisLU lu;
  ASSERT_TRUE(lu.factorize(m, cols, basis));

  int applied = 0;
  for (int step = 0; step < 600 && applied < 220; ++step) {
    const int pos = static_cast<int>(rng.uniform_int(0, m - 1));
    SparseVec cand;
    cand.rows.push_back(dom_row[static_cast<std::size_t>(pos)]);
    cand.values.push_back(rng.uniform(3.0, 6.0));
    const int extra = static_cast<int>(rng.uniform_int(0, m - 1));
    if (extra != dom_row[static_cast<std::size_t>(pos)]) {
      cand.rows.push_back(extra);
      cand.values.push_back(rng.uniform(-1.0, 1.0));
    }

    const std::vector<double> w = ftran_for_update(lu, m, cand);
    if (std::abs(w[static_cast<std::size_t>(pos)]) < 1e-6) continue;

    cols.push_back(cand);
    basis[static_cast<std::size_t>(pos)] = static_cast<int>(cols.size()) - 1;
    ASSERT_TRUE(lu.update(pos)) << "update " << applied;
    ++applied;
    ASSERT_EQ(lu.update_count(), applied);

    // Full verification every step would make the test quadratic in the
    // chain length; every 9th update (plus the tail) keeps it fast while
    // still covering early, middle, and deep-chain states.
    if (applied % 9 != 0 && applied < 200) continue;
    const auto b = dense_basis(m, cols, basis);
    BasisLU fresh;
    ASSERT_TRUE(fresh.factorize(m, cols, basis));
    EXPECT_EQ(fresh.update_count(), 0);

    std::vector<double> rhs(static_cast<std::size_t>(m));
    for (auto& v : rhs) v = rng.uniform(-2.0, 2.0);

    std::vector<double> via_upd(rhs), via_fresh(rhs);
    lu.ftran(via_upd);
    fresh.ftran(via_fresh);
    EXPECT_LT(ftran_residual(b, via_upd, rhs), 1e-9) << "update " << applied;
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(via_upd[static_cast<std::size_t>(i)],
                  via_fresh[static_cast<std::size_t>(i)], 1e-9)
          << "update " << applied;

    std::vector<double> bt_upd(rhs), bt_fresh(rhs);
    lu.btran(bt_upd);
    fresh.btran(bt_fresh);
    EXPECT_LT(btran_residual(b, bt_upd, rhs), 1e-9) << "update " << applied;
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(bt_upd[static_cast<std::size_t>(i)],
                  bt_fresh[static_cast<std::size_t>(i)], 1e-9)
          << "update " << applied;
  }
  EXPECT_GE(applied, 220);  // the chain really ran 200+ pivots
  EXPECT_EQ(lu.update_count(), applied);
  // The fill monitor must see the accumulated update fill (row etas plus
  // spikes) — it is what the solver's refactorization trigger reads, and a
  // ratio stuck at 1.0 would mean the monitor is blind.
  EXPECT_GT(lu.fill_ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FactorUpdateChain, ::testing::Range(0, 4));

TEST(FactorUpdate, SingularReplacementRefusesAndStateSurvives) {
  // Replacing a column by a copy of another basis column makes the basis
  // singular: the Forrest-Tomlin diagonal vanishes, update() must refuse,
  // and — because the refusal happens before any mutation — the kernel
  // must keep answering for the *old* basis and accept a refactorization
  // continuing the chain.
  util::Rng rng(4242);
  const int m = 20;
  std::vector<int> dom_row;
  std::vector<SparseVec> cols = random_sparse_columns(m, rng, &dom_row);
  std::vector<int> basis = identity_basis(m);
  BasisLU lu;
  ASSERT_TRUE(lu.factorize(m, cols, basis));

  // A few healthy updates first so the refusal hits an updated factor.
  int applied = 0;
  for (int step = 0; step < 40 && applied < 5; ++step) {
    const int pos = static_cast<int>(rng.uniform_int(0, m - 1));
    SparseVec cand;
    cand.rows.push_back(dom_row[static_cast<std::size_t>(pos)]);
    cand.values.push_back(rng.uniform(3.0, 6.0));
    const std::vector<double> w = ftran_for_update(lu, m, cand);
    if (std::abs(w[static_cast<std::size_t>(pos)]) < 1e-6) continue;
    cols.push_back(cand);
    basis[static_cast<std::size_t>(pos)] = static_cast<int>(cols.size()) - 1;
    ASSERT_TRUE(lu.update(pos));
    ++applied;
  }
  ASSERT_GT(applied, 0);

  const int victim = 3;
  const int donor = basis[7];
  (void)ftran_for_update(lu, m, cols[static_cast<std::size_t>(donor)]);
  EXPECT_FALSE(lu.update(victim));  // singular: w[victim] = 0 exactly
  EXPECT_EQ(lu.update_count(), applied);

  // Near-singular: donor column plus a vanishing multiple of the replaced
  // column.  The update pivot is ~1e-13, far below the stability floor.
  SparseVec nearly = cols[static_cast<std::size_t>(donor)];
  const SparseVec& own = cols[static_cast<std::size_t>(
      basis[static_cast<std::size_t>(victim)])];
  for (std::size_t k = 0; k < own.rows.size(); ++k) {
    nearly.rows.push_back(own.rows[k]);
    nearly.values.push_back(1e-13 * own.values[k]);
  }
  (void)ftran_for_update(lu, m, nearly);
  EXPECT_FALSE(lu.update(victim));
  EXPECT_EQ(lu.update_count(), applied);

  // The refused updates left the factors intact...
  const auto b = dense_basis(m, cols, basis);
  std::vector<double> rhs(static_cast<std::size_t>(m));
  for (auto& v : rhs) v = rng.uniform(-2.0, 2.0);
  std::vector<double> x(rhs);
  lu.ftran(x);
  EXPECT_LT(ftran_residual(b, x, rhs), 1e-9);
  std::vector<double> y(rhs);
  lu.btran(y);
  EXPECT_LT(btran_residual(b, y, rhs), 1e-9);

  // ... and the caller's escape hatch — refactorize — works and resets the
  // update ledger.
  ASSERT_TRUE(lu.factorize(m, cols, basis));
  EXPECT_EQ(lu.update_count(), 0);
  std::vector<double> x2(rhs);
  lu.ftran(x2);
  EXPECT_LT(ftran_residual(b, x2, rhs), 1e-9);
}

TEST(FactorUpdate, SolverLongRunMatchesRefactorizeEveryPivot) {
  // Solver-level flatness witness: a 405-row LP relaxation pushed through
  // one factorization (update budget and refactor interval out of the way)
  // must match the refactorize-every-pivot answer, and the counters must
  // prove both paths did what they claim.
  const Model model = waterwise_shaped_model(100, 5);

  SolverOptions ft;
  ft.presolve = false;
  ft.update_budget = 1 << 20;
  ft.refactor_interval = 1 << 20;
  ft.fill_growth_limit = 1e9;
  const Solution a = solve(model, ft);

  SolverOptions every;
  every.presolve = false;
  every.update_budget = 0;
  const Solution b = solve(model, every);

  ASSERT_EQ(a.status, Status::Optimal);
  ASSERT_EQ(b.status, Status::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
  EXPECT_EQ(b.ft_updates, 0);  // every pivot refactorized instead
  // Not every iteration pivots (bound flips, the terminal pricing pass),
  // but the bulk must have refactorized.
  EXPECT_GT(b.refactorizations, b.simplex_iterations / 2);
  if (!refactor_every_pivot_forced()) {
    // One long pivot run: 200+ updates absorbed without a refactorization
    // in between (phase transitions refactorize a handful of times).
    EXPECT_GE(a.ft_updates, 200);
    EXPECT_LE(a.refactorizations, 5);
  }
}

}  // namespace
}  // namespace ww::milp
