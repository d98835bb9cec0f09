// Branch-and-bound over the bounded-variable simplex.
//
// Node selection is best-first (priority queue on the node's LP bound) with
// diving: after branching, the child nearest the fractional value is solved
// immediately, so incumbents appear as fast as under pure DFS while the
// backtracking order still favours the strongest bounds.  Branching uses
// pseudocosts seeded from objective magnitudes.  Child nodes differ from
// their parent by one tightened bound, so they re-solve from the parent's
// snapshotted basis via the dual simplex (no phase 1); see simplex.hpp.
// SolverOptions::warm_start = false forces cold node solves for equivalence
// testing.  Node and iteration budgets bound every solve, so the search is
// deterministic: the same model and options give the same tree.
//
// WaterWise's scheduling program (assignment + capacity rows, with delay
// penalties folded into the assignment costs) is a transportation problem,
// so its root relaxation is integral and the tree never branches; the
// scheduler solves it with sched::transport_assign instead, and this
// solver is the tests' reference oracle for that one.  The tree exists for
// general MILPs, and is stress-tested on knapsack and weak-relaxation
// soft-penalty instances where branching is mandatory.
#pragma once

#include "milp/model.hpp"
#include "milp/simplex.hpp"
#include "milp/solution.hpp"

namespace ww::milp {

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, SolverOptions options = {});

  /// Solves the MILP.
  [[nodiscard]] Solution solve();

 private:
  const Model& model_;
  SolverOptions options_;
};

/// Facade: dispatches to pure LP when the model has no integer variables,
/// branch-and-bound otherwise, with presolve around either when enabled.
[[nodiscard]] Solution solve(const Model& model, SolverOptions options = {});

}  // namespace ww::milp
