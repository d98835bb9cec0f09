#include "milp/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ww::milp {
namespace {

constexpr double kPivotTol = 1e-9;  ///< Least |entry| the ratio test uses.
constexpr double kCostTol = 1e-9;   ///< Least reduced cost that improves.
constexpr double kFeasTol = 1e-7;   ///< Phase-1 residual proving infeasible.
constexpr double kIntTol = 1e-6;    ///< |x - round(x)| allowed when integral.
constexpr int kBlandAfter = 50;     ///< Degenerate pivots in a row before
                                    ///< pricing switches to Bland's rule.
constexpr long kPivotsPerColumn = 100;  ///< Pivot budget per tableau column;
                                        ///< exceeding it is a solver bug.

/// Variables are indexed structurals [0, n), slacks [n, n + m) and
/// artificials [n + m, n + 2m); row i reads a_i x + s_i = b_i.  Only the
/// first n + m columns are stored: an artificial that leaves the basis
/// never returns, so its column is never needed.
class Simplex {
 public:
  explicit Simplex(const Model& model);
  [[nodiscard]] Solution run();

 private:
  double* row(int i) {
    return t_.data() + static_cast<std::size_t>(i) * cols_;
  }
  [[nodiscard]] std::size_t var(int j) const {
    return static_cast<std::size_t>(j);
  }
  /// Loads `cost` (one per variable) and rebuilds the reduced-cost row.
  void set_costs(const std::vector<double>& cost);
  /// Primal simplex from the current feasible basis: Optimal or Unbounded.
  [[nodiscard]] Status optimize();
  void pivot(int r, int q);

  const Model& model_;
  int n_, m_, cols_;
  std::vector<double> t_;  ///< (m + 1) x cols; row m holds reduced costs.
  std::vector<double> lo_, up_, x_;
  std::vector<int> head_;    ///< Basic variable of each row.
  std::vector<int> row_of_;  ///< Row a variable is basic in, or -1.
  std::vector<int> nz_;      ///< Pivot-row nonzeros, reused per pivot.
  long pivots_ = 0;
};

Simplex::Simplex(const Model& model)
    : model_(model),
      n_(model.num_variables()),
      m_(model.num_constraints()),
      cols_(n_ + m_),
      t_(static_cast<std::size_t>(m_ + 1) * static_cast<std::size_t>(cols_)),
      lo_(var(n_ + 2 * m_), 0.0),
      up_(lo_.size(), 0.0),
      x_(lo_.size(), 0.0),
      head_(var(m_)),
      row_of_(lo_.size(), -1) {
  for (int j = 0; j < n_; ++j) {
    const Variable& v = model.variable(j);
    lo_[var(j)] = v.lower;
    up_[var(j)] = v.upper;
    if (std::isfinite(v.lower))
      x_[var(j)] = v.lower;
    else if (std::isfinite(v.upper))
      x_[var(j)] = v.upper;  // a free column starts at 0
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    const auto s = var(n_ + i);
    lo_[s] = c.sense == Sense::GreaterEqual ? -kInfinity : 0.0;
    up_[s] = c.sense == Sense::LessEqual ? kInfinity : 0.0;
    double residual = c.rhs;
    for (const Term& term : c.terms) residual -= term.coeff * x_[var(term.var)];
    // The slack absorbs the residual when its bounds allow; otherwise an
    // artificial of the residual's sign carries it, so that the row of
    // B^-1 A is the model row times that sign.
    double sign = 1.0;
    int basic = n_ + i;
    if (residual >= lo_[s] && residual <= up_[s]) {
      x_[s] = residual;
    } else {
      sign = residual > 0.0 ? 1.0 : -1.0;
      basic = n_ + m_ + i;
      x_[var(basic)] = sign * residual;
      up_[var(basic)] = kInfinity;
    }
    head_[var(i)] = basic;
    row_of_[var(basic)] = i;
    double* ti = row(i);
    for (const Term& term : c.terms) ti[term.var] = sign * term.coeff;
    ti[n_ + i] = sign;
  }
}

void Simplex::set_costs(const std::vector<double>& cost) {
  double* d = row(m_);
  for (int j = 0; j < cols_; ++j) d[j] = cost[var(j)];
  for (int i = 0; i < m_; ++i) {
    const double cb = cost[var(head_[var(i)])];
    if (cb == 0.0) continue;
    const double* ti = row(i);
    for (int j = 0; j < cols_; ++j) d[j] -= cb * ti[j];
  }
}

Status Simplex::optimize() {
  const long max_pivots = kPivotsPerColumn * (cols_ + 1);
  int degenerate = 0;
  const double* d = row(m_);
  for (;;) {
    // Entering column: the largest improving reduced cost (Dantzig), or
    // the first improving one (Bland) after a run of degenerate pivots.
    const bool bland = degenerate >= kBlandAfter;
    int q = -1;
    double best = kCostTol;
    for (int j = 0; j < cols_; ++j) {
      if (row_of_[var(j)] >= 0) continue;
      double gain = 0.0;
      if (d[j] < 0.0 && x_[var(j)] < up_[var(j)])
        gain = -d[j];
      else if (d[j] > 0.0 && x_[var(j)] > lo_[var(j)])
        gain = d[j];
      if (gain > best) {
        best = gain;
        q = j;
        if (bland) break;
      }
    }
    if (q < 0) return Status::Optimal;
    const double dir = d[q] < 0.0 ? 1.0 : -1.0;

    // Ratio test: the step to the first bound hit, x_q's own bound first.
    double theta = up_[var(q)] - lo_[var(q)];
    int r = -1;
    for (int i = 0; i < m_; ++i) {
      const double rate = -dir * row(i)[q];  // d x_b / d step
      if (std::abs(rate) <= kPivotTol) continue;
      const auto b = var(head_[var(i)]);
      const double room = rate < 0.0 ? x_[b] - lo_[b] : up_[b] - x_[b];
      const double limit = std::max(room, 0.0) / std::abs(rate);
      if (limit < theta ||
          (limit == theta && r >= 0 && head_[var(i)] < head_[var(r)])) {
        theta = limit;
        r = i;
      }
    }
    if (theta == kInfinity) return Status::Unbounded;

    if (theta > 0.0) {
      for (int i = 0; i < m_; ++i)
        x_[var(head_[var(i)])] -= dir * theta * row(i)[q];
      x_[var(q)] += dir * theta;
    }
    degenerate = theta > 0.0 ? 0 : degenerate + 1;
    if (r < 0) {  // bound flip: x_q crosses to its other bound
      x_[var(q)] = dir > 0.0 ? up_[var(q)] : lo_[var(q)];
      continue;
    }
    const auto b = var(head_[var(r)]);
    x_[b] = -dir * row(r)[q] < 0.0 ? lo_[b] : up_[b];
    pivot(r, q);
    if (++pivots_ > max_pivots)
      throw std::runtime_error("milp::solve: pivot budget exceeded");
  }
}

void Simplex::pivot(int r, int q) {
  double* pr = row(r);
  const double inv = 1.0 / pr[q];
  nz_.clear();
  for (int k = 0; k < cols_; ++k) {
    if (pr[k] == 0.0) continue;
    pr[k] *= inv;
    nz_.push_back(k);
  }
  pr[q] = 1.0;
  for (int i = 0; i <= m_; ++i) {
    double* ti = row(i);
    const double f = ti[q];
    if (i == r || f == 0.0) continue;
    for (const int k : nz_) ti[k] -= f * pr[k];
    ti[q] = 0.0;
  }
  row_of_[var(head_[var(r)])] = -1;
  head_[var(r)] = q;
  row_of_[var(q)] = r;
}

Solution Simplex::run() {
  std::vector<double> cost(x_.size(), 0.0);
  bool phase1 = false;
  for (int i = 0; i < m_; ++i) {
    if (head_[var(i)] < cols_) continue;
    cost[var(head_[var(i)])] = 1.0;
    phase1 = true;
  }
  if (phase1) {
    set_costs(cost);
    (void)optimize();  // bounded below by 0
    double residual = 0.0;
    for (int i = 0; i < m_; ++i)
      if (head_[var(i)] >= cols_) residual += x_[var(head_[var(i)])];
    if (residual > kFeasTol)
      return Solution{Status::Infeasible, 0.0, {}, {}, {}};
    // Artificials left basic sit at zero; pin them there for phase 2.
    for (int a = cols_; a < n_ + 2 * m_; ++a) up_[var(a)] = 0.0;
    cost.assign(cost.size(), 0.0);
  }
  for (int j = 0; j < n_; ++j) cost[var(j)] = model_.variable(j).objective;
  set_costs(cost);
  if (optimize() == Status::Unbounded)
    return Solution{Status::Unbounded, 0.0, {}, {}, {}};

  // Row m holds c - c_B B^-1 [A | I]: the structural part is d, and the
  // slack part is -y because slack i's column is the unit vector e_i.
  Solution s{Status::Optimal, 0.0, {x_.begin(), x_.begin() + n_}, {}, {}};
  const double* d = row(m_);
  s.reduced_costs.assign(d, d + n_);
  for (int i = 0; i < m_; ++i) s.duals.push_back(-d[n_ + i]);

  // Binary columns are returned rounded when all of them are integral
  // within kIntTol, and as the LP left them otherwise.
  std::vector<double> rounded = s.values;
  for (int j = 0; j < n_; ++j) {
    if (model_.variable(j).type == VarType::Continuous) continue;
    rounded[var(j)] = std::round(s.values[var(j)]);
    if (std::abs(rounded[var(j)] - s.values[var(j)]) > kIntTol)
      s.status = Status::Fractional;
  }
  if (s.status == Status::Optimal) s.values = std::move(rounded);
  s.objective = model_.objective_value(s.values);
  return s;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal:
      return "optimal";
    case Status::Infeasible:
      return "infeasible";
    case Status::Unbounded:
      return "unbounded";
    case Status::Fractional:
      return "fractional";
  }
  return "unknown";
}

Solution solve(const Model& model) { return Simplex(model).run(); }

}  // namespace ww::milp
