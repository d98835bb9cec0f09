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
// presolve, no node or iteration budget.
//
// transport_assign uses successive shortest paths with node potentials
// (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9).  Jobs are
// inserted in index order.  The residual graph has one node per region;
// the arc r -> s weighs the least c_ks - c_kr over allowed jobs k now in
// r (moving that job from r to s), compared by (value, job index), so a
// tie keeps the lowest-index job.  The solver keeps a potential h_r per
// region with the invariant
//
//   w_rs + h_r - h_s >= 0 on every arc, and every region with free quota
//   carries the same potential,
//
// so each insertion is one dense O(n^2) Dijkstra from the new job over
// these nonnegative reduced lengths (the job's own arcs c_kr - h_r may be
// negative; it has no incoming arc).  Each round of the search is one pass
// over the regions: it relaxes the arcs of the region just settled and
// picks the next region to settle, the lowest index on ties.  The search
// stops at the first region with free quota it settles: by the shared
// potential that region ends a shortest augmenting path.  The answer is a
// pure function of the input.  Potentials then rise by min(d_r, d_t),
// which keeps the invariant and makes the path tight.
//
// The insertions run in two phases.  While each job's cheapest allowed
// region (lowest index on ties) has free quota, its insertion would settle
// that region first and find it free, so no potential rises and no job
// moves: the first phase places those jobs directly, with no search.  It
// stops at the first job whose cheapest region is full or that has no
// allowed region.  Most scheduler windows are uncongested and never get
// past it: every job is placed, v = 0 and u_j = c_j,region(j).  Otherwise
// the jobs placed so far keep their regions, every potential is still 0,
// and the second phase links them into their regions' job lists and runs
// the Dijkstra insertions from the stopping job on.
//
// The search relaxes only the rows of full regions, since it stops at the
// first free region it settles, and loads never fall.  So a region's row
// of residual arcs is built from its job list the moment the region is
// full (at the end of the first phase, or when an insertion fills its end
// region) and kept from then on; a job joining a region with free quota
// is only linked into its list.
//
// The matrix sizes are checked up front; each allowed cost is checked for
// finiteness where the solver first reads it (in the first phase or the
// insertion of its job), and the rows an infeasible instance's early
// exit leaves unread are checked before it returns.
//
// A path's moves repair only the arcs they touch: a job leaving region a
// recomputes the columns of row a it attained, by walking a's job list,
// and a job entering a built row b merges its O(n) arcs into it.  A chunk
// costs O(m n^2 + moves * row size).  The duals are read off the final
// potentials, and an infeasible instance returns a Hall set as its proof.
//
// The tests check this solver against the dense-simplex oracle in
// tests/support/milp/ on the same models.
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
  /// Infeasibility proof (Infeasible only): ascending job indices whose
  /// allowed regions together hold fewer quota slots than there are jobs.
  std::vector<int> hall;
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

/// Solver scratch.  The per-region load; the n x n residual arcs `w` and
/// the job `via` attaining each (-1: no arc), whose row r is valid only
/// while `built[r]` is set, which it is exactly for the regions that are
/// full; the region potentials `h`, kept so that w_rs + h_r - h_s >= 0 on
/// every valid arc with all free regions at one potential; the Dijkstra
/// labels, predecessors and settled flags; each region's jobs as an
/// intrusive doubly linked list (`head` per region, `next` and `prev` per
/// job); and the current path's moves.  Every solve refills what it reads
/// (a row only when its region fills), so a reused workspace carries
/// nothing from one solve to the next, and reuse keeps them
/// allocation-free once the buffers have grown to the largest instance.
struct TransportWorkspace {
  struct Move {
    int job, from, to;
  };
  std::vector<int> load;
  std::vector<double> w;
  std::vector<int> via;
  std::vector<std::uint8_t> built;
  std::vector<double> h;
  std::vector<double> dist;
  std::vector<int> pred;
  std::vector<std::uint8_t> settled;
  std::vector<int> head;
  std::vector<int> next;
  std::vector<int> prev;
  std::vector<Move> path;
};

/// Solves `p` exactly into `out`, reusing the capacity of `out`'s and
/// `ws`'s vectors.  An infeasible instance leaves `region`, `u` and `v`
/// empty, the objective 0 and a Hall set in `hall`; an optimal one leaves
/// `hall` empty.  Throws std::invalid_argument when the matrix sizes
/// disagree with `jobs` x regions or an allowed cost is not finite; `out`
/// is then unspecified (a later solve into it is still valid).
void transport_assign(const TransportProblem& p, TransportSolution& out,
                      TransportWorkspace& ws);

/// Value-returning form of the above with fresh buffers.
[[nodiscard]] TransportSolution transport_assign(const TransportProblem& p);

/// The scheduler's last placement rung, for when no solve of `p` could be
/// used: jobs in index order, each to the allowed region with quota left
/// and the least cost, the lowest index on ties.  Returns one region per
/// job, -1 for a job with no allowed region left.  Never exceeds a quota,
/// and throws std::invalid_argument where transport_assign would.
[[nodiscard]] std::vector<int> greedy_assign(const TransportProblem& p);

/// The most regions hall_verdict takes: its scratch holds 2^n ints.
inline constexpr int kHallMaxRegions = 30;

/// How hall_verdict decided.  Every verdict but kInfeasible means that
/// each job fits an allowed region within the quotas.
enum class HallVerdict : std::uint8_t {
  /// Every job allows a region whose quota is at least the job count.
  kRoomyRegion,
  /// Every job allows an open region (quota > 0), the open quotas sum to
  /// at least the job count, and the jobs that do not allow every open
  /// region number no more than the smallest open quota.
  kOpenRegions,
  /// Every job allows exactly one open region or a region whose quota is
  /// at least the job count, and no open region is the only one of more
  /// jobs than its quota.
  kPinnedOrRoomy,
  /// need(S) <= quota(S) over every region subset S.
  kHallHolds,
  /// need(S) > quota(S) for some region subset S.
  kInfeasible,
};

/// Decides whether a transportation instance is feasible from its allowed
/// pairs alone, without solving it.  `masks` holds one bitmask per job, bit
/// r set when the job may go to region r; bits of regions whose quota is
/// <= 0 are ignored.  By Hall's condition for b-matching (P. Hall, 1935)
/// every job fits iff, for every region subset S, the jobs allowed only in
/// S number no more than S's quota: need(S) <= quota(S), with quota(S) the
/// sum over S of max(quota_r, 0).  Three gates, each sufficient for
/// feasibility and together one O(jobs + n) pass, answer first
/// (kRoomyRegion, kOpenRegions, kPinnedOrRoomy); only when all fail does
/// one subset-sum pass over the 2^n counts in `scratch` check every S.
/// Costs O(jobs + n 2^n).  Throws std::invalid_argument when
/// there are more than kHallMaxRegions regions.
[[nodiscard]] HallVerdict hall_verdict(const std::vector<std::uint32_t>& masks,
                                       const std::vector<int>& quota,
                                       std::vector<int>& scratch);

/// Checks that `s` is an optimal solution of `p` by its dual certificate:
/// the assignment uses only allowed pairs and respects every quota, the
/// objective is the sum of chosen costs, v_r <= 0 with v_r = 0 where quota
/// is unused, and c_jr - u_j - v_r >= -1e-12 * scale on allowed pairs and
/// |c_jr - u_j - v_r| <= 1e-12 * scale on chosen pairs, where scale is
/// max(1, max |c_jr| over allowed pairs).  An Infeasible solution is
/// checked by its Hall set instead: distinct jobs whose allowed regions
/// (their neighbourhood N) hold sum over N of max(quota_r, 0) < their
/// count.  On failure `why`, when given, names the first violated
/// condition.
[[nodiscard]] bool certify(const TransportProblem& p,
                           const TransportSolution& s,
                           std::string* why = nullptr);

}  // namespace ww::sched
