#include "sched/transport.hpp"

#include <algorithm>
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

/// Throws unless the matrices are jobs x regions and every allowed cost is
/// finite; returns max(1, max |c| over allowed pairs).
double checked_scale(const TransportProblem& p) {
  const std::size_t cells = at(p.jobs, p.regions(), 0);
  if (p.jobs < 0 || p.cost.size() != cells || p.allowed.size() != cells)
    throw std::invalid_argument(
        "transport_assign: cost and allowed must be jobs x regions");
  double scale = 1.0;
  for (std::size_t i = 0; i < cells; ++i) {
    if (p.allowed[i] == 0) continue;
    if (!std::isfinite(p.cost[i]))
      throw std::invalid_argument(
          "transport_assign: allowed cost is not finite");
    scale = std::max(scale, std::abs(p.cost[i]));
  }
  return scale;
}

/// The residual arcs between regions under the first `assigned` jobs'
/// placement: w[r * n + s] is the least c_ks - c_kr over allowed jobs k in
/// r, and via[r * n + s] the lowest-index job attaining it (-1: no arc).
void move_arcs(const TransportProblem& p, const std::vector<int>& region,
               int assigned, std::vector<double>& w, std::vector<int>& via) {
  const int n = p.regions();
  std::fill(w.begin(), w.end(), kInf);
  std::fill(via.begin(), via.end(), -1);
  for (int k = 0; k < assigned; ++k) {
    const int r = region[static_cast<std::size_t>(k)];
    const double here = p.cost[at(k, n, r)];
    for (int s = 0; s < n; ++s) {
      if (s == r || p.allowed[at(k, n, s)] == 0) continue;
      const double d = p.cost[at(k, n, s)] - here;
      if (d < w[at(r, n, s)]) {
        w[at(r, n, s)] = d;
        via[at(r, n, s)] = k;
      }
    }
  }
}

/// True when `s` is `r` or one of its ancestors in the shortest-path tree.
/// Without a negative cycle no relaxation ever points a node at its own
/// descendant; the check keeps rounding noise on an exact tie from closing
/// one, so the augmenting path is always simple.
bool on_path(const std::vector<int>& pred, int r, int s) {
  for (int x = r; x >= 0; x = pred[static_cast<std::size_t>(x)])
    if (x == s) return true;
  return false;
}

}  // namespace

void transport_assign(const TransportProblem& p, TransportSolution& out,
                      TransportWorkspace& ws) {
  const double scale = checked_scale(p);
  const int m = p.jobs;
  const int n = p.regions();
  out.status = TransportSolution::Status::Infeasible;
  out.objective = 0.0;
  out.region.assign(static_cast<std::size_t>(m), -1);
  out.u.clear();
  out.v.clear();
  std::vector<int>& load = ws.load;
  load.assign(static_cast<std::size_t>(n), 0);
  const auto free_quota = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    return load[i] < p.quota[i];
  };
  std::vector<double>& w = ws.w;
  std::vector<int>& via = ws.via;
  std::vector<double>& dist = ws.dist;
  std::vector<int>& pred = ws.pred;
  w.resize(at(n, n, 0));
  via.resize(w.size());
  dist.resize(static_cast<std::size_t>(n));
  pred.resize(static_cast<std::size_t>(n));

  for (int k = 0; k < m; ++k) {
    // Shortest path from job k to a region with free quota: k's own arcs,
    // then at most n - 1 Bellman-Ford passes over the region arcs.
    move_arcs(p, out.region, k, w, via);
    for (int r = 0; r < n; ++r) {
      dist[static_cast<std::size_t>(r)] =
          p.allowed[at(k, n, r)] != 0 ? p.cost[at(k, n, r)] : kInf;
      pred[static_cast<std::size_t>(r)] = -1;
    }
    for (int pass = 1; pass < n; ++pass) {
      bool changed = false;
      for (int r = 0; r < n; ++r) {
        const double dr = dist[static_cast<std::size_t>(r)];
        if (dr == kInf) continue;
        for (int s = 0; s < n; ++s) {
          if (via[at(r, n, s)] < 0) continue;
          const double d = dr + w[at(r, n, s)];
          if (d < dist[static_cast<std::size_t>(s)] && !on_path(pred, r, s)) {
            dist[static_cast<std::size_t>(s)] = d;
            pred[static_cast<std::size_t>(s)] = r;
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
    int t = -1;
    double best = kInf;
    for (int r = 0; r < n; ++r) {
      if (free_quota(r) && dist[static_cast<std::size_t>(r)] < best) {
        best = dist[static_cast<std::size_t>(r)];
        t = r;
      }
    }
    if (t < 0) {
      // No augmenting path: jobs 0..k already need more allowed quota than
      // exists, so max flow < m.
      out.region.clear();
      return;
    }
    ++load[static_cast<std::size_t>(t)];
    int r = t;
    while (pred[static_cast<std::size_t>(r)] >= 0) {
      const int from = pred[static_cast<std::size_t>(r)];
      out.region[static_cast<std::size_t>(via[at(from, n, r)])] = r;
      r = from;
    }
    out.region[static_cast<std::size_t>(k)] = r;
  }

  out.status = TransportSolution::Status::Optimal;
  for (int j = 0; j < m; ++j)
    out.objective += p.cost[at(j, n, out.region[static_cast<std::size_t>(j)])];

  // Potentials: v_r = -D_r, where D_r is the shortest distance from r to a
  // region with unused quota (0 at those regions).  Optimality means no
  // negative path from a loaded region to a free one, so D >= 0, and
  // shortest distances satisfy D_r <= w_rs + D_s on every arc, which is
  // exactly reduced cost >= 0 once u_j = c_j,region(j) - v_region(j).
  // Regions that reach no free quota start from `big`, an arc to a virtual
  // free region longer than any simple path is negative, so D stays >= 0.
  move_arcs(p, out.region, m, w, via);
  const double big = 2.0 * static_cast<double>(n) * scale;
  for (int r = 0; r < n; ++r)
    dist[static_cast<std::size_t>(r)] = free_quota(r) ? 0.0 : big;
  for (int pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (int r = 0; r < n; ++r) {
      for (int s = 0; s < n; ++s) {
        if (via[at(r, n, s)] < 0) continue;
        const double d = w[at(r, n, s)] + dist[static_cast<std::size_t>(s)];
        if (d < dist[static_cast<std::size_t>(r)]) {
          dist[static_cast<std::size_t>(r)] = d;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  out.v.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    out.v[static_cast<std::size_t>(r)] =
        std::min(0.0, -dist[static_cast<std::size_t>(r)]);
  out.u.resize(static_cast<std::size_t>(m));
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

bool certify(const TransportProblem& p, const TransportSolution& s,
             std::string* why) {
  const auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (!s.optimal()) return fail("solution is not Optimal");
  const int m = p.jobs;
  const int n = p.regions();
  double scale = 1.0;
  try {
    scale = checked_scale(p);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
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
