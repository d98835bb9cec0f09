// Branch-and-bound over the bounded-variable simplex.
//
// Node selection is best-first (priority queue on the node's LP bound) with
// diving: after branching, the child nearest the fractional value is solved
// immediately, so incumbents appear as fast as under pure DFS while the
// backtracking order still favours the strongest bounds.  Branching uses
// pseudocosts seeded from objective magnitudes.  Child nodes differ from
// their parent by one tightened bound, so they re-solve from the parent's
// snapshotted basis via the dual simplex (no phase 1); see simplex.hpp.
// Both behaviours have SolverOptions kill switches (best_first, warm_start).
//
// WaterWise's scheduling program (assignment + capacity rows, with delay
// penalties folded into the assignment costs) is a transportation problem,
// so its root relaxation is integral and the tree never branches — the
// machinery exists for general MILPs, and is stress-tested on knapsack and
// weak-relaxation soft-penalty instances where branching is mandatory.
#pragma once

#include "milp/model.hpp"
#include "milp/simplex.hpp"
#include "milp/solution.hpp"

namespace ww::milp {

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, SolverOptions options = {});

  /// Solves the MILP.  `seed` may carry a heuristic feasible incumbent
  /// (see Solution::incumbent_from_heuristic): its objective becomes the
  /// initial upper bound so best-first search prunes from node 0.  The
  /// seed only prunes within the *absolute* gap — a tree-found incumbent
  /// strictly better than the seed always replaces it — so seeding never
  /// degrades the answer.  Infeasible or malformed seeds are ignored.
  [[nodiscard]] Solution solve(const Solution* seed = nullptr);

 private:
  const Model& model_;
  SolverOptions options_;
};

/// Facade: dispatches to pure LP when the model has no integer variables,
/// branch-and-bound otherwise (forwarding an optional seed incumbent).
[[nodiscard]] Solution solve(const Model& model, SolverOptions options = {},
                             const Solution* seed = nullptr);

}  // namespace ww::milp
