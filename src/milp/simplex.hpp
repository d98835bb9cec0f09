// Bounded-variable revised primal + dual simplex on a sparse LU kernel.
//
// Linear programs are solved in the standard computational form
//   min c^T x   s.t.  A x = b,   l <= x <= u,
// built by appending one logical (slack) column per row.  Phase 1 introduces
// artificial columns only for rows whose logical value falls outside its
// bounds and minimizes their sum; phase 2 minimizes the true objective with
// artificials fixed at zero.
//
// The basis is held as a sparse LU factorization (see basis_lu.hpp) with
// Forrest-Tomlin updates between refactorizations, so FTRAN/BTRAN cost
// O(nnz) — flat over long pivot runs — instead of the dense O(m^2) of the
// previous kernel.  Refactorization is triggered by the update budget, the
// fill monitor (BasisLU::fill_ratio), the iteration-cadence backstop, or an
// update the stability test rejects.  Reduced costs are maintained
// incrementally from the pivot row and recomputed exactly at every
// refactorization.  Pricing is Devex (reference-framework weights,
// reset on refactorization) over a candidate list, with Dantzig available
// as an option and an automatic switch to Bland's rule for termination on
// degenerate instances.  The primal and dual loops share the pivot-row
// computation, reduced-cost update, and basis-change bookkeeping.
//
// The solver pre-builds the standard form once per Model; branch-and-bound
// re-solves with per-node bound overrides without rebuilding.  A solve that
// ends at an optimal basis can be snapshotted (capture_basis) and replayed
// as a warm start for a re-solve under tightened bounds: the snapshot is a
// basis header plus nonbasic statuses — no factorization state — and is
// installed by a single refactorization; the dual simplex then restores
// primal feasibility in a handful of pivots and phase 1 is skipped.
#pragma once

#include <optional>
#include <vector>

#include "milp/basis_lu.hpp"
#include "milp/model.hpp"
#include "milp/solution.hpp"

namespace ww::milp {

class SimplexSolver {
 public:
  SimplexSolver(const Model& model, SolverOptions options = {});

  /// Opaque snapshot of an optimal basis: the basic column per row plus the
  /// bound status of every structural + logical column.  Artificial columns
  /// are never part of a snapshot.  Cheap to copy and share between the two
  /// children of a branch-and-bound node.
  struct WarmStartBasis {
    std::vector<int> basis;            ///< Basic column index per row.
    std::vector<unsigned char> state;  ///< NonbasicState per column.
    [[nodiscard]] bool valid() const noexcept { return !basis.empty(); }
  };

  /// Solves the LP relaxation (integrality ignored).
  [[nodiscard]] Solution solve();

  /// Solves with overridden bounds on structural variables (used by
  /// branch-and-bound).  Vectors must have size num_variables().  When
  /// `warm` is a valid snapshot and options().warm_start is set, the solve
  /// starts from that basis and re-optimizes with the dual simplex instead
  /// of running phase 1; an unusable snapshot silently falls back to a cold
  /// start.
  [[nodiscard]] Solution solve_with_bounds(const std::vector<double>& lower,
                                           const std::vector<double>& upper,
                                           const WarmStartBasis* warm = nullptr);

  /// Snapshots the final basis of the most recent solve.  Returns an empty
  /// (invalid) snapshot unless that solve ended Optimal with no artificial
  /// column left in the basis.
  [[nodiscard]] WarmStartBasis capture_basis() const;

 private:
  using SparseColumn = SparseVec;
  enum class NonbasicState : unsigned char { AtLower, AtUpper, AtZero, Basic };

  // --- setup -------------------------------------------------------------
  void build_standard_form(const Model& model);
  void reset_state(const std::vector<double>& lower,
                   const std::vector<double>& upper);
  void install_initial_basis();
  /// Installs a snapshotted basis under the current bounds; false (with
  /// state left for reset_state to rebuild) when the snapshot is unusable.
  bool try_install_warm_basis(const WarmStartBasis& warm);

  // --- linear algebra ----------------------------------------------------
  /// Rebuilds the LU factorization from basis_, then recomputes xb_ and the
  /// maintained reduced costs and resets the Devex reference framework.
  /// Throws std::runtime_error on a singular basis.
  void refactorize();
  void recompute_basic_values();
  void recompute_reduced_costs();
  /// Scatters `col` and ftrans it through the updated LU into `out`
  /// (position-indexed pivot column).  Also saves the column's partial
  /// transform as the pending Forrest-Tomlin spike, which the next
  /// lu_.update() in pivot() consumes — callers must not interleave
  /// another spike-saving ftran between this and the pivot it feeds.
  void ftran_column(const SparseColumn& col, std::vector<double>& out) const;
  /// Computes row `pos` of B^-1 A over all candidate-eligible columns:
  /// rho_ = btran(e_pos), then alpha_[j] = rho_ . A_j for every nonbasic j
  /// (basic columns and fixed columns get 0).  Also records the touched
  /// column list in alpha_cols_.
  void compute_pivot_row(int pos);

  // --- simplex core ------------------------------------------------------
  /// Runs the simplex loop with the current cost vector; returns the phase
  /// outcome.  `phase1` enables artificial bookkeeping.
  enum class LoopResult { Optimal, Unbounded, Infeasible, IterationLimit };
  LoopResult run_simplex(bool phase1);
  /// Dual simplex: from a dual-feasible basis, pivots out primal bound
  /// violations until primal feasible (Optimal), provably infeasible, or
  /// out of iterations.
  LoopResult run_dual_simplex();

  // --- pricing -----------------------------------------------------------
  /// True when column j may profitably move in some direction at the
  /// current reduced cost; `dir` receives +1 (increase) or -1 (decrease).
  [[nodiscard]] bool eligible(std::size_t j, int& dir) const;
  /// Entering column by the active rule (Devex/Dantzig over the candidate
  /// list, Bland when the anti-cycling fallback is armed); -1 when every
  /// column prices out (optimal for the active objective).
  int select_entering(int& direction);
  /// Rebuilds the pricing candidate list by a full scan; returns the best
  /// column (and its direction) or -1 when none is eligible.
  int rebuild_candidates(int& direction);
  [[nodiscard]] double pricing_score(std::size_t j) const;

  // --- shared pivot bookkeeping -----------------------------------------
  /// Applies the basis exchange at row `pos`: entering column becomes
  /// basic, leaving column takes `leave_state`, maintained reduced costs
  /// and Devex weights are updated from the pivot row (compute_pivot_row
  /// must have run for `pos`), and a Forrest-Tomlin update (or a
  /// refactorization, when the budget/fill/stability monitors say so)
  /// absorbs the change.  `w_` must hold the ftran of the entering column.
  void pivot(int entering, int pos, NonbasicState leave_state);

  [[nodiscard]] double nonbasic_value(int j) const;
  [[nodiscard]] long bland_threshold() const noexcept;
  /// Shared per-iteration bookkeeping of both simplex loops: iteration
  /// budget, Bland-rule trigger, periodic refactorization.  Returns false
  /// when the iteration budget is exhausted.
  bool begin_iteration();

  // Problem dimensions.
  int m_ = 0;        ///< Rows.
  int n_struct_ = 0; ///< Structural columns.
  int n_logic_ = 0;  ///< Logical (slack) columns.
  int n_art_ = 0;    ///< Artificial columns (appended at solve time).

  std::vector<SparseColumn> cols_;  ///< struct + logic + artificial columns.
  std::vector<double> rhs_;
  std::vector<double> cost_;       ///< Phase-2 objective per column.
  std::vector<double> phase_cost_; ///< Active objective per column.
  std::vector<double> lb_, ub_;    ///< Active bounds per column.
  std::vector<double> base_lb_, base_ub_;  ///< Model bounds (logic included).

  // Basis state.
  std::vector<int> basis_;              ///< Column index per row.
  std::vector<NonbasicState> state_;    ///< Per column.
  BasisLU lu_;                 ///< Sparse factorization + FT updates.
  std::vector<double> xb_;              ///< Basic variable values.

  // Pricing state.
  std::vector<double> d_;         ///< Maintained reduced costs per column.
  std::vector<double> devex_w_;   ///< Devex reference weights per column.
  std::vector<int> candidates_;   ///< Current pricing candidate list.

  SolverOptions options_;
  /// Effective Forrest-Tomlin update budget: 0 under the
  /// WW_REFACTOR_EVERY_PIVOT ablation switch, else
  /// SolverOptions::update_budget.
  int update_budget_ = 0;
  long iterations_ = 0;
  long iterations_this_solve_ = 0;
  long since_refactor_ = 0;
  long refactorizations_this_solve_ = 0;
  long ft_updates_this_solve_ = 0;
  bool use_bland_ = false;
  bool basis_capturable_ = false;  ///< Last solve ended at an optimal basis.

  // Scratch buffers reused across iterations.
  std::vector<double> y_;          ///< Duals (btran of basic costs).
  std::vector<double> w_;          ///< Pivot column in basis coordinates.
  std::vector<double> rho_;        ///< btran(e_pos) for the pivot row.
  std::vector<double> alpha_;      ///< Pivot row over nonbasic columns.
  std::vector<int> alpha_cols_;    ///< Columns with nonzero alpha_.
};

}  // namespace ww::milp
