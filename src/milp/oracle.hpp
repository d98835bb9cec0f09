// Reference oracle for the tests: a dense, two-phase, bounded-variable
// primal simplex over milp::Model.
//
// It exists to certify sched::transport_assign on the scheduler's chunk
// models (instances.hpp).  Those constraint matrices are totally
// unimodular, so the LP optimum at a vertex is already integral and no
// branching is needed.  solve() therefore solves the LP relaxation only:
// when a binary column ends non-integral it reports Status::Fractional
// instead of passing an LP bound off as a MILP optimum.  It is not a
// general MILP solver, has no options, and nothing outside the tests
// calls it.
//
// Every row gets a slack; rows the starting point violates also get an
// artificial, and phase 1 drives the artificials to zero.  Pricing is
// Dantzig's rule (most negative reduced cost, lowest index on ties) and
// the ratio test breaks ties to the lowest variable index.  After a run of
// degenerate pivots it falls back to Bland's rule until a pivot makes
// progress, which rules out cycling.  The tableau is dense:
// (rows + 1) x (columns + rows) doubles.
#pragma once

#include <vector>

#include "milp/model.hpp"

namespace ww::milp {

enum class Status {
  Optimal,     ///< Optimal, and every binary column is integral.
  Infeasible,  ///< No point satisfies the rows and bounds.
  Unbounded,   ///< The objective is unbounded below.
  Fractional,  ///< The LP optimum leaves a binary column fractional;
               ///< `objective` is only a lower bound on the MILP optimum.
};

[[nodiscard]] const char* to_string(Status s);

struct Solution {
  Status status = Status::Infeasible;
  double objective = 0.0;      ///< c^T values (Optimal and Fractional).
  std::vector<double> values;  ///< One per model variable (Optimal and
                               ///< Fractional); binary columns of an
                               ///< Optimal solution are exactly 0 or 1.
  /// The LP optimum's certificate (Optimal and Fractional): one dual y_i
  /// per row and one reduced cost d_j = c_j - y^T A_j per variable, so
  /// that c^T x = y^T (A x) + d^T x.  At the optimum d_j >= 0 where x_j
  /// sits at its lower bound, d_j <= 0 at its upper bound, d_j = 0 in
  /// between, and y_i <= 0 (>= 0) on a LessEqual (GreaterEqual) row.
  std::vector<double> duals;
  std::vector<double> reduced_costs;
};

/// Solves `model`'s LP relaxation to optimality; see the file comment.
[[nodiscard]] Solution solve(const Model& model);

}  // namespace ww::milp
