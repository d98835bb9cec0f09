// Exact min-cost transportation solver for WaterWise's Decision Controller.
//
// Both forms of the paper's per-window model (Eq. 8-13) are a min-cost
// transportation problem: m jobs, n regions,
//
//   min  sum_jr c_jr x_jr
//   s.t. sum_r x_jr = 1          for every job j          (Eq. 9)
//        sum_j x_jr <= quota_r   for every region r       (Eq. 10)
//        x_jr in {0, 1},  x_jr = 0 where the pair is not allowed
//
// (forbidden pairs are the hard form's delay fixings and zero-quota
// regions).  The constraint matrix is totally unimodular, so a
// combinatorial solver finds the integral optimum exactly — no basis, no
// presolve, no node or iteration budget.  transport_assign uses successive
// shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9):
// jobs are inserted in index order, and each insertion runs one shortest
// augmenting path over the n region nodes with Bellman-Ford.  The arc
// r -> s weighs the least c_ks - c_kr over allowed jobs k currently in r
// (moving that job from r to s).  Relaxations use strict `<` and ties for
// the end of the path go to the lowest-index region with free quota, so
// the result is a pure function of the input.  Cost is O(m^2 n + m n^3).
//
// The tests check this solver against src/milp/'s dense-simplex oracle
// on the same models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ww::sched {

/// One transportation instance.  `cost` and `allowed` are dense job-major
/// jobs x regions matrices (entry j * regions + r is the pair (j, r)); the
/// region count is quota.size().  Costs of allowed pairs must be finite;
/// costs of forbidden pairs are never read.  A quota <= 0 admits no job.
struct TransportProblem {
  int jobs = 0;
  std::vector<double> cost;
  std::vector<std::uint8_t> allowed;
  std::vector<int> quota;

  [[nodiscard]] int regions() const noexcept {
    return static_cast<int>(quota.size());
  }
};

struct TransportSolution {
  enum class Status {
    Optimal,     ///< `region` is a min-cost assignment.
    Infeasible,  ///< Max flow < jobs: some jobs fit no allowed quota.
  };
  Status status = Status::Infeasible;
  std::vector<int> region;  ///< Region per job (Optimal only).
  double objective = 0.0;   ///< sum_j cost(j, region[j]), in job order.
  /// Dual potentials of the assignment rows (u, one per job) and capacity
  /// rows (v, one per region) certifying optimality: v_r <= 0, v_r = 0
  /// where quota is unused, and the reduced cost c_jr - u_j - v_r is >= 0
  /// on allowed pairs and 0 on chosen ones (see certify()).
  std::vector<double> u;
  std::vector<double> v;

  [[nodiscard]] bool optimal() const noexcept {
    return status == Status::Optimal;
  }
};

/// Solver scratch: the per-region load, the n x n residual arcs and the
/// Bellman-Ford labels.  Reusing one across solves keeps them
/// allocation-free once the buffers have grown to the largest instance.
struct TransportWorkspace {
  std::vector<int> load;
  std::vector<double> w;
  std::vector<int> via;
  std::vector<double> dist;
  std::vector<int> pred;
};

/// Solves `p` exactly into `out`, reusing the capacity of `out`'s and
/// `ws`'s vectors.  An infeasible instance leaves `region`, `u` and `v`
/// empty and the objective 0.  Throws std::invalid_argument when the
/// matrix sizes disagree with `jobs` x regions or an allowed cost is not
/// finite.
void transport_assign(const TransportProblem& p, TransportSolution& out,
                      TransportWorkspace& ws);

/// Value-returning form of the above with fresh buffers.
[[nodiscard]] TransportSolution transport_assign(const TransportProblem& p);

/// Checks that `s` is an optimal solution of `p` by its dual certificate:
/// the assignment uses only allowed pairs and respects every quota, the
/// objective is the sum of chosen costs, v_r <= 0 with v_r = 0 where quota
/// is unused, and c_jr - u_j - v_r >= -1e-12 * scale on allowed pairs and
/// |c_jr - u_j - v_r| <= 1e-12 * scale on chosen pairs, where scale is
/// max(1, max |c_jr| over allowed pairs).  Returns false for a solution
/// that is not Optimal; on failure `why`, when given, names the first
/// violated condition.
[[nodiscard]] bool certify(const TransportProblem& p,
                           const TransportSolution& s,
                           std::string* why = nullptr);

}  // namespace ww::sched
