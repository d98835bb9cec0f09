#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "milp/presolve.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ww::milp {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

struct Node {
  std::vector<double> lower;
  std::vector<double> upper;
  double bound = kNegInf;  ///< Parent LP objective: valid lower bound here.
  int depth = 0;
  long seq = 0;            ///< Creation order, for deterministic tie-breaks.
  int branch_var = -1;     ///< Variable whose bound this node tightened.
  bool branch_up = false;  ///< True for the x >= ceil(v) child.
  double branch_frac = 0.0;  ///< Fractional distance the branch rounded away.
  double parent_obj = 0.0;   ///< Parent LP objective (pseudocost updates).
  /// Parent's optimal basis; shared by both children, replayed via the
  /// dual simplex so the child LP skips phase 1.
  std::shared_ptr<const SimplexSolver::WarmStartBasis> warm;
};

/// Heap comparator: "a is worse than b".  Best-first pops the smallest
/// bound; ties prefer deeper (diving) then newer nodes, deterministically.
bool worse_node(const Node& a, const Node& b) {
  if (a.bound != b.bound) return a.bound > b.bound;
  if (a.depth != b.depth) return a.depth < b.depth;
  return a.seq < b.seq;
}

/// Per-variable branching history: average objective degradation per unit
/// of fractionality, kept separately for the down and up directions.
struct Pseudocost {
  double down_sum = 0.0;
  double up_sum = 0.0;
  long down_n = 0;
  long up_n = 0;
};

std::string to_string_impl(Status s) {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
    case Status::IterationLimit: return "iteration-limit";
    case Status::NodeLimit: return "node-limit";
  }
  return "unknown";
}

}  // namespace

std::string to_string(Status s) { return to_string_impl(s); }

BranchAndBound::BranchAndBound(const Model& model, SolverOptions options)
    : model_(model), options_(options) {}

Solution BranchAndBound::solve() {
  // Presolve lives in the milp::solve facade; route through it so a
  // directly-constructed BranchAndBound sees the same reductions.  The
  // facade clears the flag before solving the reduced model, so the tree
  // below always runs on a presolved (or deliberately raw) model.
  if (options_.presolve) return ww::milp::solve(model_, options_);

  const util::Stopwatch watch;
  SimplexSolver lp(model_, options_);

  const int n = model_.num_variables();
  std::vector<bool> is_int(static_cast<std::size_t>(n), false);
  for (int j = 0; j < n; ++j)
    is_int[static_cast<std::size_t>(j)] =
        model_.variable(j).type != VarType::Continuous;

  Solution best;
  best.status = Status::Infeasible;
  double incumbent = std::numeric_limits<double>::infinity();
  long nodes = 0;
  long total_iterations = 0;
  long warm_nodes = 0;
  long phase1_nodes = 0;
  long total_refactor = 0;
  long total_updates = 0;
  long next_seq = 0;
  bool limits_hit = false;        ///< Node budget exhausted.
  bool subtree_dropped = false;   ///< A node LP hit its iteration limit.
  double root_bound = kNegInf;
  /// Bounds of nodes we could not resolve (limits); folded into best_bound
  /// so an abandoned subtree can never make the reported bound overstate
  /// the true optimum.
  double unresolved_bound = std::numeric_limits<double>::infinity();

  // Pseudocosts seeded from objective magnitudes: before a variable has
  // branching history, a larger |cost| is the best available proxy for the
  // objective movement its rounding will cause.
  std::vector<Pseudocost> pseudo(static_cast<std::size_t>(n));
  std::vector<double> pseudo_seed(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j)
    pseudo_seed[static_cast<std::size_t>(j)] =
        1e-6 + std::abs(model_.variable(j).objective);

  Node root;
  root.lower.resize(static_cast<std::size_t>(n));
  root.upper.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    root.lower[static_cast<std::size_t>(j)] = model_.variable(j).lower;
    root.upper[static_cast<std::size_t>(j)] = model_.variable(j).upper;
  }
  root.seq = next_seq++;

  // Open nodes: a binary heap on node bound.  `current` carries the
  // preferred child of the node just branched, so the search dives toward
  // an incumbent before backtracking to the best open bound.
  std::vector<Node> open;
  std::optional<Node> current(std::move(root));

  for (;;) {
    Node node;
    bool from_heap = false;
    if (current) {
      node = std::move(*current);
      current.reset();
    } else if (!open.empty()) {
      std::pop_heap(open.begin(), open.end(), worse_node);
      node = std::move(open.back());
      open.pop_back();
      from_heap = true;
    } else {
      break;
    }

    if (nodes >= options_.max_nodes) {
      // Budget exhausted: fold the in-hand node and every open node into
      // the unresolved bound in one pass (the limit can't un-trip, so
      // popping them through the heap would be pure teardown cost).
      limits_hit = true;
      unresolved_bound = std::min(unresolved_bound, node.bound);
      for (const Node& nd : open)
        unresolved_bound = std::min(unresolved_bound, nd.bound);
      open.clear();
      break;
    }
    const double prune_margin = std::max(
        options_.mip_gap_abs, options_.mip_gap_rel * std::abs(incumbent));
    if (node.bound >= incumbent - prune_margin) {
      // Pruned.  When this node came off the heap, its bound is the minimum
      // of the open set and the incumbent only improves, so every remaining
      // open node is pruned too — discard them wholesale.  (A dive child in
      // `current` proves nothing about the heap.)
      if (from_heap) {
        open.clear();
        break;
      }
      continue;
    }

    ++nodes;
    const Solution relax =
        lp.solve_with_bounds(node.lower, node.upper, node.warm.get());
    total_iterations += relax.simplex_iterations;
    warm_nodes += relax.warm_started_nodes;
    phase1_nodes += relax.phase1_nodes;
    total_refactor += relax.refactorizations;
    total_updates += relax.ft_updates;
    if (relax.status == Status::Infeasible) continue;
    if (relax.status == Status::Unbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded or
      // infeasible; report unbounded (integrality cannot bound a ray here
      // for the model classes WaterWise builds).
      Solution sol;
      sol.status = Status::Unbounded;
      sol.nodes_explored = nodes;
      sol.simplex_iterations = total_iterations;
      sol.warm_started_nodes = warm_nodes;
      sol.phase1_nodes = phase1_nodes;
      sol.refactorizations = total_refactor;
      sol.ft_updates = total_updates;
      sol.solve_seconds = watch.elapsed_seconds();
      return sol;
    }
    if (relax.status == Status::IterationLimit) {
      // The subtree is unresolved, not pruned: its parent bound must keep
      // weighing on best_bound or the final bound would overstate.
      subtree_dropped = true;
      unresolved_bound = std::min(unresolved_bound, node.bound);
      continue;
    }
    if (nodes == 1) root_bound = relax.objective;

    // Pseudocost update: objective degradation of this branch per unit of
    // the fractionality it rounded away.
    if (node.branch_var >= 0) {
      const auto bv = static_cast<std::size_t>(node.branch_var);
      const double gain =
          std::max(0.0, relax.objective - node.parent_obj) /
          std::max(node.branch_frac, 1e-9);
      if (node.branch_up) {
        pseudo[bv].up_sum += gain;
        ++pseudo[bv].up_n;
      } else {
        pseudo[bv].down_sum += gain;
        ++pseudo[bv].down_n;
      }
    }
    if (relax.objective >= incumbent - prune_margin) continue;

    // Branching variable: highest pseudocost-estimated degradation product,
    // falling back to the seed estimate where no history exists yet.
    int branch_var = -1;
    double best_score = -1.0;
    double best_frac = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!is_int[static_cast<std::size_t>(j)]) continue;
      const auto ju = static_cast<std::size_t>(j);
      const double v = relax.values[ju];
      const double f_down = v - std::floor(v);
      const double frac = std::min(f_down, 1.0 - f_down);
      if (frac <= options_.integrality_tolerance) continue;
      const double down_est =
          pseudo[ju].down_n
              ? pseudo[ju].down_sum / static_cast<double>(pseudo[ju].down_n)
              : pseudo_seed[ju];
      const double up_est =
          pseudo[ju].up_n
              ? pseudo[ju].up_sum / static_cast<double>(pseudo[ju].up_n)
              : pseudo_seed[ju];
      const double score = (down_est * f_down + 1e-9) *
                           (up_est * (1.0 - f_down) + 1e-9);
      if (score > best_score ||
          (score == best_score && frac > best_frac)) {
        best_score = score;
        best_frac = frac;
        branch_var = j;
      }
    }

    if (branch_var < 0) {
      // Integral: candidate incumbent (snap integer values exactly).
      Solution cand = relax;
      for (int j = 0; j < n; ++j)
        if (is_int[static_cast<std::size_t>(j)])
          cand.values[static_cast<std::size_t>(j)] =
              std::round(cand.values[static_cast<std::size_t>(j)]);
      cand.objective = model_.objective_value(cand.values);
      if (cand.objective < incumbent) {
        incumbent = cand.objective;
        best = std::move(cand);
        best.has_incumbent = true;
      }
      continue;
    }

    std::shared_ptr<const SimplexSolver::WarmStartBasis> snap;
    if (options_.warm_start) {
      auto basis = lp.capture_basis();
      if (basis.valid())
        snap = std::make_shared<const SimplexSolver::WarmStartBasis>(
            std::move(basis));
    }

    const auto bu = static_cast<std::size_t>(branch_var);
    const double v = relax.values[bu];
    const double fl = std::floor(v);

    Node down = node;  // x <= floor(v)
    down.upper[bu] = fl;
    down.bound = relax.objective;
    down.depth = node.depth + 1;
    down.branch_var = branch_var;
    down.branch_up = false;
    down.branch_frac = v - fl;
    down.parent_obj = relax.objective;
    down.warm = snap;

    Node up = std::move(node);  // x >= floor(v) + 1
    up.lower[bu] = fl + 1.0;
    up.bound = relax.objective;
    up.depth = down.depth;
    up.branch_var = branch_var;
    up.branch_up = true;
    up.branch_frac = fl + 1.0 - v;
    up.parent_obj = relax.objective;
    up.warm = std::move(snap);

    // Dive toward the nearest integer first; the sibling joins the open set.
    if (v - fl < 0.5) {
      up.seq = next_seq++;
      down.seq = next_seq++;
      open.push_back(std::move(up));
      current = std::move(down);
    } else {
      down.seq = next_seq++;
      up.seq = next_seq++;
      open.push_back(std::move(down));
      current = std::move(up);
    }
    std::push_heap(open.begin(), open.end(), worse_node);
  }

  best.nodes_explored = nodes;
  best.simplex_iterations = total_iterations;
  best.warm_started_nodes = warm_nodes;
  best.phase1_nodes = phase1_nodes;
  best.refactorizations = total_refactor;
  best.ft_updates = total_updates;
  best.solve_seconds = watch.elapsed_seconds();
  if (limits_hit || subtree_dropped) {
    // NodeLimit when the tree budget stopped us; IterationLimit when the
    // tree was exhausted but some node LP could not be resolved.  Either
    // way the unresolved bounds cap the proven bound.
    best.status = limits_hit ? Status::NodeLimit : Status::IterationLimit;
    best.best_bound = std::min(unresolved_bound, incumbent);
  } else if (best.has_incumbent) {
    best.status = Status::Optimal;
    best.best_bound = best.objective;
  } else {
    best.status = Status::Infeasible;
    best.best_bound = root_bound;
  }
  return best;
}

namespace {

/// The raw dispatch: LP relaxation solver for continuous models,
/// branch-and-bound otherwise.  Callers have already dealt with presolve.
Solution solve_raw(const Model& model, const SolverOptions& options) {
  if (!model.has_integer_variables()) {
    SimplexSolver lp(model, options);
    return lp.solve();
  }
  BranchAndBound bb(model, options);
  return bb.solve();
}

/// solve() minus the tracing wrapper; callers go through solve().
Solution solve_impl(const Model& model, SolverOptions options) {
  if (!options.presolve) return solve_raw(model, options);

  // Presolve wrapper: reduce, solve the reduced model with presolve off,
  // then map the solution (values, duals, counters) back onto `model` so
  // callers cannot tell the difference from a raw solve.
  options.presolve = false;
  Presolve pre;
  if (pre.run(model, options) == Presolve::Result::Infeasible) {
    Solution sol;
    sol.status = Status::Infeasible;
    pre.postsolve(model, sol);  // annotates counters and presolve time
    return sol;
  }
  // Reduction-ratio gate: applying presolve means rebuilding the model and
  // perturbing the (tie-heavy) pivot path, so marginal reductions can cost
  // more than they save.  Proceed when the model shrank meaningfully (>= 2%
  // of rows+columns), a bound was tightened (can shrink the B&B tree out of
  // proportion), or presolve decided everything; otherwise solve the
  // original and charge only the scan.
  const PresolveStats& ps = pre.stats();
  const long scale = model.num_variables() + model.num_constraints();
  const bool decided = ps.cols_removed == model.num_variables() &&
                       ps.rows_removed == model.num_constraints();
  if (!decided && ps.bounds_tightened == 0 &&
      ps.rows_removed + ps.cols_removed < std::max<long>(4, scale / 50)) {
    Solution sol = solve_raw(model, options);
    sol.presolve_seconds += ps.seconds;
    sol.solve_seconds += ps.seconds;
    return sol;
  }

  pre.build_reduced(model);
  const Model& red = pre.reduced();
  Solution sol;
  if (red.num_variables() == 0 && red.num_constraints() == 0) {
    // Empty-problem fast path: presolve decided every variable; postsolve
    // reconstructs the full assignment from the reduction stack alone.
    sol.status = Status::Optimal;
    sol.has_incumbent = true;
  } else {
    sol = solve_raw(red, options);
  }
  pre.postsolve(model, sol);
  return sol;
}

}  // namespace

Solution solve(const Model& model, SolverOptions options) {
  // Span annotations are written after the solve and never read back, so
  // tracing cannot perturb the solver path (see src/obs/trace.hpp).
  obs::Span span("milp.solve");
  Solution sol = solve_impl(model, options);
  span.arg("status", static_cast<int>(sol.status));
  span.arg("simplex_iterations", sol.simplex_iterations);
  span.arg("nodes_explored", sol.nodes_explored);
  span.arg("warm_started_nodes", sol.warm_started_nodes);
  span.arg("refactorizations", sol.refactorizations);
  span.arg("ft_updates", sol.ft_updates);
  span.arg("presolve_rows_removed", sol.presolve_rows_removed);
  span.arg("presolve_cols_removed", sol.presolve_cols_removed);
  span.arg("solve_seconds", sol.solve_seconds);
  return sol;
}

}  // namespace ww::milp
