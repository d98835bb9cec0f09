#include "sched/transport.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace ww::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t at(int row, int n, int col) {
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(col);
}

/// Throws unless the matrices are jobs x regions.
void check_sizes(const TransportProblem& p) {
  const std::size_t cells = at(p.jobs, p.regions(), 0);
  if (p.jobs < 0 || p.cost.size() != cells || p.allowed.size() != cells)
    throw std::invalid_argument(
        "transport_assign: cost and allowed must be jobs x regions");
}

/// An allowed cost as the solver reads it: throws unless it is finite.
double checked(double c) {
  if (!std::isfinite(c))
    throw std::invalid_argument("transport_assign: allowed cost is not finite");
  return c;
}

/// Throws unless every allowed cost in rows [from, jobs) is finite.
void check_rows(const TransportProblem& p, int from) {
  const std::size_t cells = at(p.jobs, p.regions(), 0);
  for (std::size_t i = at(from, p.regions(), 0); i < cells; ++i)
    if (p.allowed[i] != 0) (void)checked(p.cost[i]);
}

/// Throws unless the matrices are jobs x regions and every allowed cost is
/// finite; returns max(1, max |c| over allowed pairs).
double checked_scale(const TransportProblem& p) {
  check_sizes(p);
  double scale = 1.0;
  for (std::size_t i = 0; i < p.cost.size(); ++i)
    if (p.allowed[i] != 0)
      scale = std::max(scale, std::abs(checked(p.cost[i])));
  return scale;
}

/// The order residual arcs are kept in: a move of value d by job x comes
/// before one of value w by job `via` when (d, x) < (w, via).  The order is
/// total, so a row holds the same arcs whatever order its jobs joined in.
bool precedes(double d, int x, double w, int via) {
  return d < w || (d == w && x < via);
}

/// Merges job x's moves out of region r into row r of the residual arcs:
/// w[r * n + s] is the least move c_ys - c_yr over allowed jobs y in r,
/// and via[r * n + s] the job attaining it (-1: no arc).
void merge_arcs(const TransportProblem& p, int x, int r,
                TransportWorkspace& ws) {
  const int n = p.regions();
  const double here = p.cost[at(x, n, r)];
  for (int s = 0; s < n; ++s) {
    if (s == r || p.allowed[at(x, n, s)] == 0) continue;
    const double d = p.cost[at(x, n, s)] - here;
    if (precedes(d, x, ws.w[at(r, n, s)], ws.via[at(r, n, s)])) {
      ws.w[at(r, n, s)] = d;
      ws.via[at(r, n, s)] = x;
    }
  }
}

/// Builds row r of the residual arcs from r's job list.  A region's row is
/// built the moment it is full and kept from then on: loads never fall,
/// and the search relaxes only the rows of full regions.
void build_row(const TransportProblem& p, int r, TransportWorkspace& ws) {
  const int n = p.regions();
  std::fill_n(ws.w.begin() + static_cast<std::ptrdiff_t>(at(r, n, 0)), n,
              kInf);
  std::fill_n(ws.via.begin() + static_cast<std::ptrdiff_t>(at(r, n, 0)), n,
              -1);
  for (int y = ws.head[static_cast<std::size_t>(r)]; y >= 0;
       y = ws.next[static_cast<std::size_t>(y)])
    merge_arcs(p, y, r, ws);
  ws.built[static_cast<std::size_t>(r)] = 1;
}

/// Links job x into region r's list, and merges its moves into row r when
/// that row is built.
void link_job(const TransportProblem& p, int x, int r, TransportWorkspace& ws) {
  const auto ux = static_cast<std::size_t>(x);
  int& head = ws.head[static_cast<std::size_t>(r)];
  ws.prev[ux] = -1;
  ws.next[ux] = head;
  if (head >= 0) ws.prev[static_cast<std::size_t>(head)] = x;
  head = x;
  if (ws.built[static_cast<std::size_t>(r)] != 0) merge_arcs(p, x, r, ws);
}

/// Unlinks job x from region r's list and, when row r is built, recomputes
/// the columns of it that x attained by walking the jobs left in r.
void unlink_job(const TransportProblem& p, int x, int r,
                TransportWorkspace& ws) {
  const auto ux = static_cast<std::size_t>(x);
  const int before = ws.prev[ux];
  const int after = ws.next[ux];
  (before >= 0 ? ws.next[static_cast<std::size_t>(before)]
               : ws.head[static_cast<std::size_t>(r)]) = after;
  if (after >= 0) ws.prev[static_cast<std::size_t>(after)] = before;
  if (ws.built[static_cast<std::size_t>(r)] == 0) return;
  const int n = p.regions();
  for (int s = 0; s < n; ++s) {
    if (ws.via[at(r, n, s)] != x) continue;
    double w = kInf;
    int via = -1;
    for (int y = ws.head[static_cast<std::size_t>(r)]; y >= 0;
         y = ws.next[static_cast<std::size_t>(y)]) {
      if (p.allowed[at(y, n, s)] == 0) continue;
      const double d = p.cost[at(y, n, s)] - p.cost[at(y, n, r)];
      if (precedes(d, y, w, via)) {
        w = d;
        via = y;
      }
    }
    ws.w[at(r, n, s)] = w;
    ws.via[at(r, n, s)] = via;
  }
}

/// Successive shortest paths' first phase.  While each job's cheapest
/// allowed region (the lowest index on ties) has free quota, its insertion
/// settles that region first, finds it free and places the job there: no
/// potential rises and no job moves.  Writes those jobs' regions into
/// `region`, counting them into `load`, and returns the index of the first
/// job whose cheapest region is full or that has no allowed region (jobs
/// when every job fits).  Checks every cost it reads.
int place_cheapest(const TransportProblem& p, std::vector<int>& region,
                   std::vector<int>& load) {
  const int n = p.regions();
  region.resize(static_cast<std::size_t>(p.jobs));
  load.assign(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < p.jobs; ++j) {
    int best = -1;
    double least = kInf;
    for (int r = 0; r < n; ++r) {
      if (p.allowed[at(j, n, r)] == 0) continue;
      const double c = checked(p.cost[at(j, n, r)]);
      if (c < least) {
        least = c;
        best = r;
      }
    }
    if (best < 0) return j;
    const auto b = static_cast<std::size_t>(best);
    if (load[b] >= p.quota[b]) return j;
    ++load[b];
    region[static_cast<std::size_t>(j)] = best;
  }
  return p.jobs;
}

}  // namespace

void transport_assign(const TransportProblem& p, TransportSolution& out,
                      TransportWorkspace& ws) {
  check_sizes(p);
  const int m = p.jobs;
  const int n = p.regions();
  const auto um = static_cast<std::size_t>(m);
  const auto un = static_cast<std::size_t>(n);
  out.status = TransportSolution::Status::Infeasible;
  out.objective = 0.0;
  out.hall.clear();
  out.hall.reserve(um);
  out.u.clear();
  out.v.clear();

  const int first = place_cheapest(p, out.region, ws.load);
  if (first == m) {
    // Every job fit its cheapest region: the successive-shortest-path
    // answer, with v = 0 and u_j = c_j,region(j).  The general path's
    // scratch still grows to the instance, so a later congested solve of
    // this size allocates nothing.
    out.status = TransportSolution::Status::Optimal;
    out.u.resize(um);
    for (int j = 0; j < m; ++j) {
      const double c =
          p.cost[at(j, n, out.region[static_cast<std::size_t>(j)])];
      out.objective += c;
      out.u[static_cast<std::size_t>(j)] = c;
    }
    out.v.assign(un, 0.0);
    ws.w.reserve(at(n, n, 0));
    ws.via.reserve(at(n, n, 0));
    ws.built.reserve(un);
    ws.h.reserve(un);
    ws.dist.reserve(un);
    ws.pred.reserve(un);
    ws.settled.reserve(un);
    ws.head.reserve(un);
    ws.next.reserve(um);
    ws.prev.reserve(um);
    ws.path.reserve(un);
    return;
  }

  // Jobs [0, first) keep their regions and loads with every potential 0,
  // the state their insertions reach.  They are linked into their regions'
  // lists, and the rows of the regions they fill are built from those
  // lists: the arcs those insertions would have kept.  The other rows are
  // stale until their region fills; the search never reads them.
  ws.w.resize(at(n, n, 0));
  ws.via.resize(ws.w.size());
  ws.built.assign(un, 0);
  ws.h.assign(un, 0.0);
  ws.dist.resize(un);
  ws.pred.resize(un);
  ws.settled.resize(un);
  ws.head.assign(un, -1);
  ws.next.resize(um);
  ws.prev.resize(um);
  ws.path.clear();
  ws.path.reserve(un);
  for (int j = 0; j < first; ++j)
    link_job(p, j, out.region[static_cast<std::size_t>(j)], ws);
  const auto free_quota = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    return ws.load[i] < p.quota[i];
  };
  for (int r = 0; r < n; ++r)
    if (!free_quota(r)) build_row(p, r, ws);

  for (int k = first; k < m; ++k) {
    // Dijkstra from job k over the reduced lengths w_rs + h_r - h_s >= 0.
    // k's own arcs c_kr - h_r may be negative; k has no incoming arc, so
    // labels stay exact.  Each pass relaxes the region just settled and
    // picks the next in one sweep; ties settle the lowest-index region.
    // Every free region carries the same potential, so the first free
    // region settled ends a shortest path.
    int r = -1;
    double dr = kInf;
    for (int s = 0; s < n; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const double d = p.allowed[at(k, n, s)] != 0
                           ? checked(p.cost[at(k, n, s)]) - ws.h[i]
                           : kInf;
      ws.dist[i] = d;
      ws.pred[i] = -1;
      ws.settled[i] = 0;
      if (d < dr) {
        dr = d;
        r = s;
      }
    }
    int t = -1;
    int settled = 0;
    while (r >= 0) {
      ws.settled[static_cast<std::size_t>(r)] = 1;
      ++settled;
      if (free_quota(r)) {
        t = r;
        break;
      }
      const int from = r;
      const double d_from = dr;
      const double h_from = ws.h[static_cast<std::size_t>(from)];
      r = -1;
      dr = kInf;
      for (int s = 0; s < n; ++s) {
        const auto i = static_cast<std::size_t>(s);
        if (ws.settled[i] != 0) continue;
        if (ws.via[at(from, n, s)] >= 0) {
          const double d = d_from + (ws.w[at(from, n, s)] + h_from - ws.h[i]);
          if (d < ws.dist[i]) {
            ws.dist[i] = d;
            ws.pred[i] = from;
          }
        }
        if (ws.dist[i] < dr) {
          dr = ws.dist[i];
          r = s;
        }
      }
    }
    if (t < 0) {
      // No free region is reachable: the settled regions are exactly the
      // allowed regions of job k and of the jobs they hold, and all are
      // full, so those jobs outnumber their quota (a Hall set).  The rows
      // no insertion read are still checked.
      check_rows(p, k + 1);
      for (int j = 0; j < k; ++j) {
        const int rj = out.region[static_cast<std::size_t>(j)];
        if (ws.settled[static_cast<std::size_t>(rj)] != 0)
          out.hall.push_back(j);
      }
      out.hall.push_back(k);
      out.region.clear();
      return;
    }
    // Potentials: h_r += min(d_r, d_t) keeps every reduced length >= 0 and
    // makes the path's arcs tight.  When t settled first, every label is at
    // least d_t and the update is a uniform shift, so it is skipped.
    if (settled > 1) {
      const double dt = ws.dist[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < un; ++i)
        ws.h[i] += std::min(ws.dist[i], dt);
    }

    // Collect the path's moves before applying any: each one changes rows
    // that later links of the path were read from.
    ++ws.load[static_cast<std::size_t>(t)];
    r = t;
    while (ws.pred[static_cast<std::size_t>(r)] >= 0) {
      const int from = ws.pred[static_cast<std::size_t>(r)];
      ws.path.push_back({ws.via[at(from, n, r)], from, r});
      r = from;
    }
    for (const TransportWorkspace::Move& mv : ws.path) {
      out.region[static_cast<std::size_t>(mv.job)] = mv.to;
      unlink_job(p, mv.job, mv.from, ws);
      link_job(p, mv.job, mv.to, ws);
    }
    ws.path.clear();
    out.region[static_cast<std::size_t>(k)] = r;
    link_job(p, k, r, ws);
    if (!free_quota(t)) build_row(p, t, ws);
  }

  out.status = TransportSolution::Status::Optimal;
  for (int j = 0; j < m; ++j)
    out.objective += p.cost[at(j, n, out.region[static_cast<std::size_t>(j)])];

  // Duals off the potentials: v_r = h_r - h_free, where h_free is the
  // potential every free region shares (the largest potential when none is
  // free).  h_r - h_s <= c_ks - c_kr on every arc is then exactly reduced
  // cost >= 0 with u_j = c_j,region(j) - v_region(j), and potentials of
  // full regions never rise above h_free; min(0, .) absorbs rounding.
  double ref = -kInf;
  for (int r = 0; r < n; ++r) {
    const double hr = ws.h[static_cast<std::size_t>(r)];
    if (free_quota(r)) {
      ref = hr;
      break;
    }
    ref = std::max(ref, hr);
  }
  out.v.resize(un);
  for (int r = 0; r < n; ++r)
    out.v[static_cast<std::size_t>(r)] =
        free_quota(r) ? 0.0
                      : std::min(0.0, ws.h[static_cast<std::size_t>(r)] - ref);
  out.u.resize(um);
  for (int j = 0; j < m; ++j) {
    const int r = out.region[static_cast<std::size_t>(j)];
    out.u[static_cast<std::size_t>(j)] =
        p.cost[at(j, n, r)] - out.v[static_cast<std::size_t>(r)];
  }
}

TransportSolution transport_assign(const TransportProblem& p) {
  TransportSolution out;
  TransportWorkspace ws;
  transport_assign(p, out, ws);
  return out;
}

std::vector<int> greedy_assign(const TransportProblem& p) {
  check_sizes(p);
  check_rows(p, 0);
  const int n = p.regions();
  std::vector<int> left(p.quota);
  std::vector<int> region(static_cast<std::size_t>(p.jobs), -1);
  for (int j = 0; j < p.jobs; ++j) {
    int best = -1;
    for (int r = 0; r < n; ++r) {
      if (p.allowed[at(j, n, r)] == 0 || left[static_cast<std::size_t>(r)] <= 0)
        continue;
      if (best < 0 || p.cost[at(j, n, r)] < p.cost[at(j, n, best)]) best = r;
    }
    if (best >= 0) --left[static_cast<std::size_t>(best)];
    region[static_cast<std::size_t>(j)] = best;
  }
  return region;
}

HallVerdict hall_verdict(const std::vector<std::uint32_t>& masks,
                         const std::vector<int>& quota,
                         std::vector<int>& scratch) {
  const int n = static_cast<int>(quota.size());
  if (n > kHallMaxRegions)
    throw std::invalid_argument("hall_verdict: more than " +
                                std::to_string(kHallMaxRegions) + " regions");
  const int m = static_cast<int>(masks.size());
  // No region takes more than m jobs, so each quota clamps to [0, m]
  // without changing the verdict, and every sum below stays within
  // m * (n + 1).
  const auto clamped = [&quota, m](int r) {
    return std::clamp(quota[static_cast<std::size_t>(r)], 0, m);
  };
  std::uint32_t open = 0;
  std::uint32_t roomy = 0;
  long open_quota = 0;
  int smallest_open = m;
  for (int r = 0; r < n; ++r) {
    const int q = clamped(r);
    if (q <= 0) continue;
    open |= 1U << r;
    if (q == m) roomy |= 1U << r;
    open_quota += q;
    smallest_open = std::min(smallest_open, q);
  }
  bool every_roomy = true;
  bool every_open = true;
  bool pinned_or_roomy = true;
  int narrow = 0;
  // pinned[r]: the jobs whose only open allowed region is r.
  std::array<int, kHallMaxRegions> pinned{};
  for (const std::uint32_t mask : masks) {
    const std::uint32_t allowed = mask & open;
    const bool reaches_roomy = (allowed & roomy) != 0;
    const bool single = std::has_single_bit(allowed);
    every_roomy = every_roomy && reaches_roomy;
    every_open = every_open && allowed != 0;
    narrow += static_cast<int>(allowed != open);
    pinned_or_roomy = pinned_or_roomy && (single || reaches_roomy);
    if (single) ++pinned[static_cast<std::size_t>(std::countr_zero(allowed))];
  }
  // Any job can take its roomy region, whatever the others take.
  if (every_roomy) return HallVerdict::kRoomyRegion;
  // Each narrow job takes any region it allows: no region receives more of
  // them than the smallest open quota, and the jobs allowed everywhere
  // fill the open quota left over.
  if (every_open && open_quota >= m && narrow <= smallest_open)
    return HallVerdict::kOpenRegions;
  // Each pinned job takes its one region, which holds them all; every
  // other job takes a roomy region, which holds all m jobs.
  if (pinned_or_roomy) {
    bool pinned_fit = true;
    for (int r = 0; r < n; ++r)
      pinned_fit =
          pinned_fit && pinned[static_cast<std::size_t>(r)] <= clamped(r);
    if (pinned_fit) return HallVerdict::kPinnedOrRoomy;
  }

  // f(S) = need(S) - quota(S) for every region subset S: the count of jobs
  // whose open allowed set is exactly S, less each region's quota at its
  // singleton, summed over the subsets of S one region at a time.  Hall's
  // condition holds iff no f(S) is positive.
  const std::size_t subsets = std::size_t{1} << n;
  scratch.assign(subsets, 0);
  int* f = scratch.data();
  for (const std::uint32_t mask : masks) ++f[mask & open];
  for (int r = 0; r < n; ++r) f[std::size_t{1} << r] -= clamped(r);
  for (std::size_t bit = 1; bit < subsets; bit <<= 1)
    for (std::size_t base = 0; base < subsets; base += 2 * bit)
      for (std::size_t s = base; s < base + bit; ++s) f[s + bit] += f[s];
  int worst = 0;
  for (std::size_t s = 0; s < subsets; ++s) worst = std::max(worst, f[s]);
  return worst > 0 ? HallVerdict::kInfeasible : HallVerdict::kHallHolds;
}

bool certify(const TransportProblem& p, const TransportSolution& s,
             std::string* why) {
  const auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  const int m = p.jobs;
  const int n = p.regions();
  double scale = 1.0;
  try {
    scale = checked_scale(p);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  if (!s.optimal()) {
    // Hall's condition: the witness jobs may go only to the regions of
    // their neighbourhood N, and N's quota cannot hold them all.
    if (s.hall.empty()) return fail("infeasible result has no Hall set");
    std::vector<std::uint8_t> in_set(static_cast<std::size_t>(m), 0);
    std::vector<std::uint8_t> in_n(static_cast<std::size_t>(n), 0);
    for (const int j : s.hall) {
      if (j < 0 || j >= m || in_set[static_cast<std::size_t>(j)] != 0)
        return fail("Hall set entry " + std::to_string(j) +
                    " is not a distinct job");
      in_set[static_cast<std::size_t>(j)] = 1;
      for (int r = 0; r < n; ++r)
        if (p.allowed[at(j, n, r)] != 0) in_n[static_cast<std::size_t>(r)] = 1;
    }
    long long quota = 0;
    for (int r = 0; r < n; ++r)
      if (in_n[static_cast<std::size_t>(r)] != 0)
        quota += std::max(p.quota[static_cast<std::size_t>(r)], 0);
    if (quota >= static_cast<long long>(s.hall.size()))
      return fail("Hall set of " + std::to_string(s.hall.size()) +
                  " jobs has " + std::to_string(quota) +
                  " slots in its neighbourhood");
    return true;
  }
  if (s.region.size() != static_cast<std::size_t>(m) ||
      s.u.size() != static_cast<std::size_t>(m) ||
      s.v.size() != static_cast<std::size_t>(n))
    return fail("region/u/v sizes do not match the problem");
  const double tol = 1e-12 * scale;

  std::vector<int> load(static_cast<std::size_t>(n), 0);
  double objective = 0.0;
  for (int j = 0; j < m; ++j) {
    const int r = s.region[static_cast<std::size_t>(j)];
    if (r < 0 || r >= n || p.allowed[at(j, n, r)] == 0)
      return fail("job " + std::to_string(j) + " is in forbidden region " +
                  std::to_string(r));
    ++load[static_cast<std::size_t>(r)];
    objective += p.cost[at(j, n, r)];
  }
  if (!(std::abs(objective - s.objective) <=
        tol * std::max(1.0, static_cast<double>(m))))
    return fail("objective " + std::to_string(s.objective) +
                " is not the sum of chosen costs " + std::to_string(objective));
  for (int r = 0; r < n; ++r) {
    const int used = load[static_cast<std::size_t>(r)];
    const int quota = p.quota[static_cast<std::size_t>(r)];
    const double v = s.v[static_cast<std::size_t>(r)];
    if (used > std::max(quota, 0))
      return fail("region " + std::to_string(r) + " holds " +
                  std::to_string(used) + " jobs over quota " +
                  std::to_string(quota));
    if (!(v <= 0.0))
      return fail("region " + std::to_string(r) + " has potential v > 0");
    if (used < quota && v != 0.0)
      return fail("region " + std::to_string(r) +
                  " has unused quota but potential v != 0");
  }
  const auto pair = [](int j, int r) {
    return "(" + std::to_string(j) + ", " + std::to_string(r) + ")";
  };
  for (int j = 0; j < m; ++j) {
    for (int r = 0; r < n; ++r) {
      if (p.allowed[at(j, n, r)] == 0) continue;
      const double reduced = p.cost[at(j, n, r)] -
                             s.u[static_cast<std::size_t>(j)] -
                             s.v[static_cast<std::size_t>(r)];
      if (!(reduced >= -tol))
        return fail("negative reduced cost " + std::to_string(reduced) +
                    " on allowed pair " + pair(j, r));
      if (r == s.region[static_cast<std::size_t>(j)] &&
          !(std::abs(reduced) <= tol))
        return fail("nonzero reduced cost " + std::to_string(reduced) +
                    " on chosen pair " + pair(j, r));
    }
  }
  return true;
}

}  // namespace ww::sched
