#include "milp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace ww::milp {

namespace {
constexpr double kInf = kInfinity;
/// Pivot elements below this trigger a defensive refactorization instead of
/// a Forrest-Tomlin update (matching BasisLU's own singularity threshold).
constexpr double kTinyPivot = 1e-11;
}  // namespace

bool refactor_every_pivot_forced() {
  // WW_REFACTOR_EVERY_PIVOT=on drops the Forrest-Tomlin update budget to
  // zero process-wide: every pivot refactorizes, the slow-but-simple
  // ablation path CI cross-checks the update against.
  static const bool forced = util::env_switch("WW_REFACTOR_EVERY_PIVOT", false);
  return forced;
}

SimplexSolver::SimplexSolver(const Model& model, SolverOptions options)
    : options_(options) {
  // The process-wide ablation switch overrides the configured budget.
  update_budget_ = refactor_every_pivot_forced() ? 0 : options_.update_budget;
  build_standard_form(model);
}

void SimplexSolver::build_standard_form(const Model& model) {
  m_ = model.num_constraints();
  n_struct_ = model.num_variables();
  n_logic_ = m_;
  n_art_ = 0;

  const int n = n_struct_ + n_logic_;
  cols_.assign(static_cast<std::size_t>(n), {});
  rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  cost_.assign(static_cast<std::size_t>(n), 0.0);
  base_lb_.assign(static_cast<std::size_t>(n), 0.0);
  base_ub_.assign(static_cast<std::size_t>(n), 0.0);

  for (int j = 0; j < n_struct_; ++j) {
    const Variable& v = model.variable(j);
    cost_[static_cast<std::size_t>(j)] = v.objective;
    base_lb_[static_cast<std::size_t>(j)] = v.lower;
    base_ub_[static_cast<std::size_t>(j)] = v.upper;
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    rhs_[static_cast<std::size_t>(i)] = c.rhs;
    for (const Term& t : c.terms) {
      auto& col = cols_[static_cast<std::size_t>(t.var)];
      col.rows.push_back(i);
      col.values.push_back(t.coeff);
    }
    // Logical column: row + slack = rhs, slack bounds encode the sense.
    const int sj = n_struct_ + i;
    auto& slack = cols_[static_cast<std::size_t>(sj)];
    slack.rows.push_back(i);
    slack.values.push_back(1.0);
    switch (c.sense) {
      case Sense::LessEqual:
        base_lb_[static_cast<std::size_t>(sj)] = 0.0;
        base_ub_[static_cast<std::size_t>(sj)] = kInf;
        break;
      case Sense::GreaterEqual:
        base_lb_[static_cast<std::size_t>(sj)] = -kInf;
        base_ub_[static_cast<std::size_t>(sj)] = 0.0;
        break;
      case Sense::Equal:
        base_lb_[static_cast<std::size_t>(sj)] = 0.0;
        base_ub_[static_cast<std::size_t>(sj)] = 0.0;
        break;
    }
  }
}

double SimplexSolver::nonbasic_value(int j) const {
  const auto ju = static_cast<std::size_t>(j);
  switch (state_[ju]) {
    case NonbasicState::AtLower:
      return lb_[ju];
    case NonbasicState::AtUpper:
      return ub_[ju];
    case NonbasicState::AtZero:
      return 0.0;
    case NonbasicState::Basic:
      break;
  }
  assert(false && "nonbasic_value called on basic column");
  return 0.0;
}

void SimplexSolver::reset_state(const std::vector<double>& lower,
                                const std::vector<double>& upper) {
  const int n = n_struct_ + n_logic_;
  cols_.resize(static_cast<std::size_t>(n));  // drop artificials of prior solve
  cost_.resize(static_cast<std::size_t>(n));
  n_art_ = 0;

  lb_.assign(base_lb_.begin(), base_lb_.end());
  ub_.assign(base_ub_.begin(), base_ub_.end());
  for (int j = 0; j < n_struct_; ++j) {
    lb_[static_cast<std::size_t>(j)] = lower[static_cast<std::size_t>(j)];
    ub_[static_cast<std::size_t>(j)] = upper[static_cast<std::size_t>(j)];
  }

  state_.assign(static_cast<std::size_t>(n), NonbasicState::AtLower);
  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (std::isfinite(lb_[ju])) {
      state_[ju] = NonbasicState::AtLower;
    } else if (std::isfinite(ub_[ju])) {
      state_[ju] = NonbasicState::AtUpper;
    } else {
      state_[ju] = NonbasicState::AtZero;
    }
  }
  basis_.assign(static_cast<std::size_t>(m_), -1);
  d_.assign(static_cast<std::size_t>(n), 0.0);
  devex_w_.assign(static_cast<std::size_t>(n), 1.0);
  candidates_.clear();
  alpha_.assign(static_cast<std::size_t>(n), 0.0);
  alpha_cols_.clear();
  iterations_this_solve_ = 0;
  since_refactor_ = 0;
  refactorizations_this_solve_ = 0;
  ft_updates_this_solve_ = 0;
  use_bland_ = false;
}

void SimplexSolver::install_initial_basis() {
  // Residual each logical column would have to absorb.
  std::vector<double> resid(rhs_);
  for (int j = 0; j < n_struct_; ++j) {
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    const auto& col = cols_[static_cast<std::size_t>(j)];
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      resid[static_cast<std::size_t>(col.rows[k])] -= col.values[k] * v;
  }

  phase_cost_.assign(cols_.size(), 0.0);
  for (int i = 0; i < m_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const int sj = n_struct_ + i;
    const auto sju = static_cast<std::size_t>(sj);
    const double v = resid[iu];
    if (v >= lb_[sju] - options_.feasibility_tolerance &&
        v <= ub_[sju] + options_.feasibility_tolerance) {
      basis_[iu] = sj;
      state_[sju] = NonbasicState::Basic;
      continue;
    }
    // Clamp the logical to its nearest bound and cover the gap with an
    // artificial column of the right sign so the artificial starts at a
    // non-negative value.
    const double clamped = std::clamp(v, lb_[sju], ub_[sju]);
    state_[sju] = (clamped == lb_[sju]) ? NonbasicState::AtLower
                                        : NonbasicState::AtUpper;
    const double gap = v - clamped;
    SparseColumn art;
    art.rows.push_back(i);
    art.values.push_back(gap > 0.0 ? 1.0 : -1.0);
    cols_.push_back(std::move(art));
    lb_.push_back(0.0);
    ub_.push_back(kInf);
    cost_.push_back(0.0);
    phase_cost_.push_back(1.0);
    state_.push_back(NonbasicState::Basic);
    basis_[iu] = static_cast<int>(cols_.size()) - 1;
    ++n_art_;
  }
  refactorize();
}

void SimplexSolver::refactorize() {
  if (!lu_.factorize(m_, cols_, basis_))
    throw std::runtime_error(
        "SimplexSolver: singular basis during refactorization");
  ++refactorizations_this_solve_;
  since_refactor_ = 0;
  recompute_basic_values();
  recompute_reduced_costs();
  // Devex reference framework reset: the current nonbasic set becomes the
  // reference, all weights return to 1.
  devex_w_.assign(cols_.size(), 1.0);
  candidates_.clear();
}

void SimplexSolver::recompute_basic_values() {
  xb_.assign(rhs_.begin(), rhs_.end());
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    if (state_[j] == NonbasicState::Basic) continue;
    const double v = nonbasic_value(static_cast<int>(j));
    if (v == 0.0) continue;
    const auto& col = cols_[j];
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      xb_[static_cast<std::size_t>(col.rows[k])] -= col.values[k] * v;
  }
  lu_.ftran(xb_);  // row-indexed residual rhs -> position-indexed values
}

void SimplexSolver::recompute_reduced_costs() {
  const auto mu = static_cast<std::size_t>(m_);
  y_.assign(mu, 0.0);
  for (std::size_t i = 0; i < mu; ++i)
    y_[i] = phase_cost_[static_cast<std::size_t>(basis_[i])];
  lu_.btran(y_);
  d_.assign(cols_.size(), 0.0);
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    if (state_[j] == NonbasicState::Basic) continue;
    double d = phase_cost_[j];
    const auto& col = cols_[j];
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      d -= y_[static_cast<std::size_t>(col.rows[k])] * col.values[k];
    d_[j] = d;
  }
}

void SimplexSolver::ftran_column(const SparseColumn& col,
                                 std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = 0; k < col.rows.size(); ++k)
    out[static_cast<std::size_t>(col.rows[k])] += col.values[k];
  // Entering columns save their partial transform as the Forrest-Tomlin
  // spike, so the update absorbing this pivot needs no extra solve.
  lu_.ftran(out, /*save_spike=*/true);
}

void SimplexSolver::compute_pivot_row(int pos) {
  const auto mu = static_cast<std::size_t>(m_);
  rho_.assign(mu, 0.0);
  rho_[static_cast<std::size_t>(pos)] = 1.0;
  lu_.btran(rho_);

  if (alpha_.size() != cols_.size()) alpha_.assign(cols_.size(), 0.0);
  for (const int j : alpha_cols_) alpha_[static_cast<std::size_t>(j)] = 0.0;
  alpha_cols_.clear();
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    if (state_[j] == NonbasicState::Basic) continue;
    if (lb_[j] == ub_[j]) continue;  // fixed column can never move
    const auto& col = cols_[j];
    double a = 0.0;
    for (std::size_t k = 0; k < col.rows.size(); ++k)
      a += rho_[static_cast<std::size_t>(col.rows[k])] * col.values[k];
    if (a != 0.0) {
      alpha_[j] = a;
      alpha_cols_.push_back(static_cast<int>(j));
    }
  }
}

long SimplexSolver::bland_threshold() const noexcept {
  return options_.bland_iterations > 0
             ? options_.bland_iterations
             : 1000 + 20L * static_cast<long>(cols_.size());
}

bool SimplexSolver::begin_iteration() {
  if (iterations_this_solve_ >= options_.max_iterations) return false;
  ++iterations_;
  ++iterations_this_solve_;
  if (iterations_this_solve_ >= bland_threshold()) use_bland_ = true;
  if (++since_refactor_ >= options_.refactor_interval) refactorize();
  return true;
}

bool SimplexSolver::eligible(std::size_t j, int& dir) const {
  const NonbasicState st = state_[j];
  if (st == NonbasicState::Basic) return false;
  if (lb_[j] == ub_[j]) return false;  // fixed column can never improve
  const double tol = options_.pivot_tolerance;
  const double dj = d_[j];
  if ((st == NonbasicState::AtLower || st == NonbasicState::AtZero) &&
      dj < -tol) {
    dir = +1;
    return true;
  }
  if ((st == NonbasicState::AtUpper || st == NonbasicState::AtZero) &&
      dj > tol) {
    dir = -1;
    return true;
  }
  return false;
}

double SimplexSolver::pricing_score(std::size_t j) const {
  const double dj = d_[j];
  if (options_.pricing == Pricing::Dantzig) return std::abs(dj);
  return dj * dj / devex_w_[j];
}

int SimplexSolver::rebuild_candidates(int& direction) {
  // Dantzig prices by full scan every iteration; only Devex amortizes the
  // scan through a candidate list.
  const bool build_list = options_.pricing != Pricing::Dantzig;
  candidates_.clear();
  int best = -1;
  int best_dir = 0;
  double best_score = 0.0;
  // (score, column) of every eligible column; the candidate list keeps the
  // top slice so subsequent iterations price against a short list instead
  // of rescanning all n columns.
  std::vector<std::pair<double, int>> scored;
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    int dir = 0;
    if (!eligible(j, dir)) continue;
    const double s = pricing_score(j);
    if (build_list) scored.emplace_back(s, static_cast<int>(j));
    if (s > best_score) {  // strict: ties keep the lowest column index
      best_score = s;
      best = static_cast<int>(j);
      best_dir = dir;
    }
  }
  if (best < 0 || !build_list) {
    direction = best_dir;
    return best;
  }

  const std::size_t cap = std::max<std::size_t>(
      16, cols_.size() / 16);
  if (scored.size() > cap) {
    std::nth_element(scored.begin(),
                     scored.begin() + static_cast<std::ptrdiff_t>(cap),
                     scored.end(), [](const auto& a, const auto& b) {
                       return a.first != b.first ? a.first > b.first
                                                 : a.second < b.second;
                     });
    scored.resize(cap);
  }
  candidates_.reserve(scored.size());
  for (const auto& [s, j] : scored) candidates_.push_back(j);
  std::sort(candidates_.begin(), candidates_.end());

  direction = best_dir;
  return best;
}

int SimplexSolver::select_entering(int& direction) {
  if (use_bland_) {
    // Bland's rule: first eligible index, ignoring weights and lists.
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      int dir = 0;
      if (eligible(j, dir)) {
        direction = dir;
        return static_cast<int>(j);
      }
    }
    return -1;
  }
  if (options_.pricing == Pricing::Dantzig) {
    // Classic Dantzig: full scan for the most negative reduced cost, no
    // candidate list (kept as the equivalence-testing reference rule).
    return rebuild_candidates(direction);
  }
  // Price the candidate list with current reduced costs/weights, dropping
  // stale entries; fall back to a full rebuild when it runs dry.
  int best = -1;
  int best_dir = 0;
  double best_score = 0.0;
  std::size_t keep = 0;
  for (const int j : candidates_) {
    int dir = 0;
    if (!eligible(static_cast<std::size_t>(j), dir)) continue;
    candidates_[keep++] = j;
    const double s = pricing_score(static_cast<std::size_t>(j));
    if (best < 0 || s > best_score) {
      best_score = s;
      best = j;
      best_dir = dir;
    }
  }
  candidates_.resize(keep);
  if (best >= 0) {
    direction = best_dir;
    return best;
  }
  return rebuild_candidates(direction);
}

void SimplexSolver::pivot(int entering, int pos, NonbasicState leave_state) {
  const auto eu = static_cast<std::size_t>(entering);
  const auto pu = static_cast<std::size_t>(pos);
  const auto out_col = static_cast<std::size_t>(basis_[pu]);
  const double alpha_q = w_[pu];

  // Maintained reduced costs: d_j <- d_j - (d_q / alpha_q) alpha_j over the
  // pivot row, the leaving column picks up -d_q / alpha_q, the entering
  // column becomes basic with d = 0.  (compute_pivot_row ran for `pos`
  // against the pre-pivot basis, which is exactly the row this needs.)
  const double ratio = d_[eu] / alpha_q;
  const double gamma_q = devex_w_[eu];
  for (const int j : alpha_cols_) {
    const auto ju = static_cast<std::size_t>(j);
    if (ju == eu) continue;
    d_[ju] -= ratio * alpha_[ju];
    // Devex reference-framework update from the same pivot row.
    const double r = alpha_[ju] / alpha_q;
    devex_w_[ju] = std::max(devex_w_[ju], r * r * gamma_q);
  }
  d_[out_col] = -ratio;
  d_[eu] = 0.0;
  devex_w_[out_col] = std::max(gamma_q / (alpha_q * alpha_q), 1.0);

  state_[out_col] = leave_state;
  basis_[pu] = entering;
  state_[eu] = NonbasicState::Basic;

  // Absorb the basis change as a Forrest-Tomlin update; refactorize
  // instead on a spent budget, a tiny pivot, or an update the stability
  // test rejects, and afterwards when the accumulated update fill has
  // outgrown the fresh factorization.
  if (update_budget_ <= 0 || std::abs(alpha_q) < kTinyPivot ||
      !lu_.update(pos)) {
    refactorize();
    return;
  }
  ++ft_updates_this_solve_;
  if (lu_.update_count() >= update_budget_ ||
      lu_.fill_ratio() > options_.fill_growth_limit)
    refactorize();
}

SimplexSolver::LoopResult SimplexSolver::run_simplex([[maybe_unused]] bool phase1) {
  const double tol = options_.pivot_tolerance;
  const auto mu = static_cast<std::size_t>(m_);

  for (;;) {
    if (!begin_iteration()) return LoopResult::IterationLimit;

    // --- pricing ---------------------------------------------------------
    int direction = 0;  // +1: entering increases, -1: decreases.
    const int entering = select_entering(direction);
    if (entering < 0) return LoopResult::Optimal;

    const auto eu = static_cast<std::size_t>(entering);
    ftran_column(cols_[eu], w_);

    // --- ratio test --------------------------------------------------------
    // The entering variable moves by t >= 0 in `direction`; basic variable i
    // changes at rate -direction * w_[i].
    double t_max = ub_[eu] - lb_[eu];  // own-bound flip distance (may be inf)
    int leaving = -1;
    bool leaving_to_upper = false;
    for (std::size_t i = 0; i < mu; ++i) {
      const double rate = -static_cast<double>(direction) * w_[i];
      if (std::abs(rate) <= tol) continue;
      const auto bj = static_cast<std::size_t>(basis_[i]);
      double limit;
      bool to_upper;
      if (rate > 0.0) {
        if (!std::isfinite(ub_[bj])) continue;
        limit = (ub_[bj] - xb_[i]) / rate;
        to_upper = true;
      } else {
        if (!std::isfinite(lb_[bj])) continue;
        limit = (lb_[bj] - xb_[i]) / rate;
        to_upper = false;
      }
      limit = std::max(limit, 0.0);
      if (limit < t_max - tol ||
          (leaving >= 0 && limit < t_max + tol &&
           (use_bland_ ? basis_[i] < basis_[static_cast<std::size_t>(leaving)]
                       : std::abs(w_[i]) >
                             std::abs(w_[static_cast<std::size_t>(leaving)])))) {
        // A tie-break replacement may carry limit in [t_max, t_max + tol);
        // clamp so the step length never grows, which would push the
        // previously chosen leaving variable past its bound by up to tol.
        t_max = std::min(t_max, limit);
        leaving = static_cast<int>(i);
        leaving_to_upper = to_upper;
      }
    }

    if (!std::isfinite(t_max)) {
      // In phase 1 the objective (sum of artificials) is bounded below by 0,
      // so unboundedness can only mean the true LP is unbounded in phase 2.
      return LoopResult::Unbounded;
    }

    // --- update ------------------------------------------------------------
    const double t = t_max;
    for (std::size_t i = 0; i < mu; ++i)
      xb_[i] -= static_cast<double>(direction) * t * w_[i];

    const double enter_start =
        state_[eu] == NonbasicState::AtLower
            ? lb_[eu]
            : (state_[eu] == NonbasicState::AtUpper ? ub_[eu] : 0.0);
    const double enter_value = enter_start + static_cast<double>(direction) * t;

    if (leaving < 0) {
      // Bound flip: entering moves across to its opposite bound.  The basis
      // is unchanged, so reduced costs and Devex weights stay valid.
      state_[eu] = direction > 0 ? NonbasicState::AtUpper : NonbasicState::AtLower;
      continue;
    }

    const auto lu = static_cast<std::size_t>(leaving);
    compute_pivot_row(leaving);
    xb_[lu] = enter_value;
    pivot(entering, leaving,
          leaving_to_upper ? NonbasicState::AtUpper : NonbasicState::AtLower);
  }
}

SimplexSolver::LoopResult SimplexSolver::run_dual_simplex() {
  const double tol = options_.pivot_tolerance;
  const double ftol = options_.feasibility_tolerance;
  const auto mu = static_cast<std::size_t>(m_);

  for (;;) {
    if (!begin_iteration()) return LoopResult::IterationLimit;

    // --- leaving row: the basic variable most outside its bounds ---------
    // (Bland mode: the violated row whose basic column has the smallest
    // index, for guaranteed termination under degeneracy.)
    int leaving = -1;
    bool exit_at_lower = false;  // bound the leaving variable exits at
    double worst = ftol;
    for (std::size_t i = 0; i < mu; ++i) {
      const auto bj = static_cast<std::size_t>(basis_[i]);
      const double below = lb_[bj] - xb_[i];
      const double above = xb_[i] - ub_[bj];
      const double viol = std::max(below, above);
      if (viol <= ftol) continue;
      const bool take =
          use_bland_
              ? (leaving < 0 ||
                 basis_[i] < basis_[static_cast<std::size_t>(leaving)])
              : viol > worst;
      if (take) {
        worst = viol;
        leaving = static_cast<int>(i);
        exit_at_lower = below > above;
      }
    }
    if (leaving < 0) return LoopResult::Optimal;  // primal feasible

    const auto lu = static_cast<std::size_t>(leaving);
    const auto out_col = static_cast<std::size_t>(basis_[lu]);
    const double target = exit_at_lower ? lb_[out_col] : ub_[out_col];
    // Entering variable moves by delta = gap / alpha_j (signed).
    const double gap = xb_[lu] - target;

    compute_pivot_row(leaving);

    // --- dual ratio test: keep reduced-cost signs valid ------------------
    int entering = -1;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (const int j : alpha_cols_) {
      const auto ju = static_cast<std::size_t>(j);
      const NonbasicState st = state_[ju];
      const double alpha = alpha_[ju];
      if (std::abs(alpha) <= tol) continue;
      // delta must move the entering variable off its bound feasibly:
      // up from a lower bound, down from an upper bound, either from free.
      const double delta = gap / alpha;
      if (st == NonbasicState::AtLower && delta < 0.0) continue;
      if (st == NonbasicState::AtUpper && delta > 0.0) continue;
      const double ratio = std::abs(d_[ju]) / std::abs(alpha);
      const bool take =
          entering < 0 || ratio < best_ratio - tol ||
          (ratio < best_ratio + tol &&
           (use_bland_ ? j < entering
                       : std::abs(alpha) > std::abs(best_alpha)));
      if (take) {
        best_ratio = std::min(best_ratio, ratio);
        best_alpha = alpha;
        entering = j;
      }
    }
    if (entering < 0) {
      // Row `lu` cannot be repaired by any nonbasic movement: the bound
      // violation is structural, i.e. the LP is infeasible.
      return LoopResult::Infeasible;
    }

    // --- pivot -----------------------------------------------------------
    const auto eu = static_cast<std::size_t>(entering);
    ftran_column(cols_[eu], w_);
    const double piv = w_[lu];
    if (std::abs(piv) < kTinyPivot) {
      refactorize();
      continue;
    }
    const double delta = gap / piv;
    const double enter_start = nonbasic_value(entering);
    for (std::size_t i = 0; i < mu; ++i) xb_[i] -= delta * w_[i];
    xb_[lu] = enter_start + delta;

    pivot(entering, leaving,
          exit_at_lower ? NonbasicState::AtLower : NonbasicState::AtUpper);
  }
}

SimplexSolver::WarmStartBasis SimplexSolver::capture_basis() const {
  WarmStartBasis snap;
  if (!basis_capturable_ || m_ == 0) return snap;
  const int n = n_struct_ + n_logic_;
  for (int i = 0; i < m_; ++i)
    if (basis_[static_cast<std::size_t>(i)] >= n) return snap;  // artificial
  snap.basis = basis_;
  snap.state.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    snap.state[static_cast<std::size_t>(j)] =
        static_cast<unsigned char>(state_[static_cast<std::size_t>(j)]);
  return snap;
}

bool SimplexSolver::try_install_warm_basis(const WarmStartBasis& warm) {
  const int n = n_struct_ + n_logic_;
  if (static_cast<int>(warm.basis.size()) != m_ ||
      static_cast<int>(warm.state.size()) != n)
    return false;
  std::vector<char> in_basis(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < m_; ++i) {
    const int bj = warm.basis[static_cast<std::size_t>(i)];
    if (bj < 0 || bj >= n || in_basis[static_cast<std::size_t>(bj)])
      return false;
    in_basis[static_cast<std::size_t>(bj)] = 1;
  }
  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (in_basis[ju]) {
      state_[ju] = NonbasicState::Basic;
      continue;
    }
    auto st = static_cast<NonbasicState>(warm.state[ju]);
    if (st == NonbasicState::Basic) return false;  // inconsistent snapshot
    // Remap statuses invalidated by the new bounds (a finite bound from the
    // snapshot's solve may not exist under the current overrides).
    if (st == NonbasicState::AtLower && !std::isfinite(lb_[ju]))
      st = std::isfinite(ub_[ju]) ? NonbasicState::AtUpper
                                  : NonbasicState::AtZero;
    else if (st == NonbasicState::AtUpper && !std::isfinite(ub_[ju]))
      st = std::isfinite(lb_[ju]) ? NonbasicState::AtLower
                                  : NonbasicState::AtZero;
    else if (st == NonbasicState::AtZero && (lb_[ju] > 0.0 || ub_[ju] < 0.0))
      // Zero left the feasible box (a free variable got a branching bound);
      // park the column on the violated side's bound — the dual simplex only
      // repairs basic violations, so a nonbasic one must not survive here.
      st = lb_[ju] > 0.0 ? NonbasicState::AtLower : NonbasicState::AtUpper;
    state_[ju] = st;
  }
  basis_ = warm.basis;
  try {
    refactorize();
  } catch (const std::runtime_error&) {
    return false;  // singular under the new bounds; caller re-runs cold
  }
  return true;
}

Solution SimplexSolver::solve() {
  std::vector<double> lower(static_cast<std::size_t>(n_struct_));
  std::vector<double> upper(static_cast<std::size_t>(n_struct_));
  for (int j = 0; j < n_struct_; ++j) {
    lower[static_cast<std::size_t>(j)] = base_lb_[static_cast<std::size_t>(j)];
    upper[static_cast<std::size_t>(j)] = base_ub_[static_cast<std::size_t>(j)];
  }
  return solve_with_bounds(lower, upper);
}

Solution SimplexSolver::solve_with_bounds(const std::vector<double>& lower,
                                          const std::vector<double>& upper,
                                          const WarmStartBasis* warm) {
  // Per-LP span: one B/E pair per (re-)solve, including every warm B&B
  // node re-solve.  A no-op branch when tracing is off.
  obs::Span span("milp.lp");
  span.arg("rows", m_);
  span.arg("cols", n_struct_);
  span.arg("warm", warm != nullptr ? 1 : 0);
  const util::Stopwatch watch;
  Solution sol;
  basis_capturable_ = false;
  if (lower.size() != static_cast<std::size_t>(n_struct_) ||
      upper.size() != static_cast<std::size_t>(n_struct_))
    throw std::invalid_argument("SimplexSolver: bound vector size mismatch");
  for (int j = 0; j < n_struct_; ++j) {
    if (lower[static_cast<std::size_t>(j)] >
        upper[static_cast<std::size_t>(j)] + options_.feasibility_tolerance) {
      sol.status = Status::Infeasible;
      sol.solve_seconds = watch.elapsed_seconds();
      return sol;
    }
  }

  if (m_ == 0) {
    // Pure bound problem: each variable sits at its cheapest finite bound.
    sol.values.assign(static_cast<std::size_t>(n_struct_), 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const double c = cost_[ju];
      double v;
      if (c > 0.0) {
        if (!std::isfinite(lower[ju])) {
          sol.status = Status::Unbounded;
          return sol;
        }
        v = lower[ju];
      } else if (c < 0.0) {
        if (!std::isfinite(upper[ju])) {
          sol.status = Status::Unbounded;
          return sol;
        }
        v = upper[ju];
      } else {
        v = std::isfinite(lower[ju]) ? lower[ju]
                                     : (std::isfinite(upper[ju]) ? upper[ju] : 0.0);
      }
      sol.values[ju] = v;
      sol.objective += c * v;
    }
    sol.status = Status::Optimal;
    sol.best_bound = sol.objective;
    sol.solve_seconds = watch.elapsed_seconds();
    return sol;
  }

  reset_state(lower, upper);

  const auto fill_counters = [&](Solution& s) {
    s.simplex_iterations = iterations_this_solve_;
    s.refactorizations = refactorizations_this_solve_;
    s.ft_updates = ft_updates_this_solve_;
  };

  // ---- Warm start: replay a snapshotted basis under the new bounds ---------
  bool warm_ok = false;
  if (options_.warm_start && warm != nullptr && warm->valid()) {
    phase_cost_ = cost_;  // refactorize() recomputes reduced costs from this
    warm_ok = try_install_warm_basis(*warm);
    if (!warm_ok) reset_state(lower, upper);  // wipe the partial install
  }

  if (warm_ok) {
    const LoopResult rd = run_dual_simplex();
    fill_counters(sol);
    if (rd == LoopResult::IterationLimit) {
      // Not counted as warm-started: the replay never finished, so the
      // node is dropped unresolved and must not inflate warm coverage.
      sol.status = Status::IterationLimit;
      sol.solve_seconds = watch.elapsed_seconds();
      return sol;
    }
    if (rd == LoopResult::Infeasible) {
      sol.warm_started_nodes = 1;  // resolved (proven infeasible) sans phase 1
      sol.status = Status::Infeasible;
      sol.solve_seconds = watch.elapsed_seconds();
      return sol;
    }
    // Primal feasible; fall through to the phase-2 primal loop, which
    // polishes any residual dual infeasibility (it terminates immediately
    // when the dual simplex already reached optimality).
  } else {
    install_initial_basis();

    // ---- Phase 1: drive artificial columns to zero -------------------------
    if (n_art_ > 0) {
      sol.phase1_nodes = 1;
      const LoopResult r = run_simplex(/*phase1=*/true);
      fill_counters(sol);
      if (r == LoopResult::IterationLimit) {
        sol.status = Status::IterationLimit;
        sol.solve_seconds = watch.elapsed_seconds();
        return sol;
      }
      double infeas = 0.0;
      for (std::size_t i = 0; i < static_cast<std::size_t>(m_); ++i)
        if (basis_[i] >= n_struct_ + n_logic_) infeas += std::abs(xb_[i]);
      for (std::size_t j = static_cast<std::size_t>(n_struct_ + n_logic_);
           j < cols_.size(); ++j)
        if (state_[j] == NonbasicState::AtUpper) infeas += std::abs(ub_[j]);
      if (infeas > 1e-6) {
        sol.status = Status::Infeasible;
        sol.solve_seconds = watch.elapsed_seconds();
        return sol;
      }
      // Freeze artificials at zero for phase 2.
      for (std::size_t j = static_cast<std::size_t>(n_struct_ + n_logic_);
           j < cols_.size(); ++j) {
        ub_[j] = 0.0;
        if (state_[j] == NonbasicState::AtUpper)
          state_[j] = NonbasicState::AtLower;
      }
    }
    // ---- Phase 2 objective swap: maintained reduced costs and the Devex
    // reference framework belong to the phase-1 costs; rebuild both.
    phase_cost_ = cost_;
    recompute_reduced_costs();
    devex_w_.assign(cols_.size(), 1.0);
    candidates_.clear();
  }

  // ---- Phase 2: true objective ---------------------------------------------
  const LoopResult r2 = run_simplex(/*phase1=*/false);
  fill_counters(sol);
  sol.solve_seconds = watch.elapsed_seconds();
  if (r2 == LoopResult::Unbounded) {
    sol.status = Status::Unbounded;
    return sol;
  }
  if (r2 == LoopResult::IterationLimit) {
    sol.status = Status::IterationLimit;
    return sol;
  }

  // Extract the structural solution.
  sol.values.assign(static_cast<std::size_t>(n_struct_), 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (state_[ju] != NonbasicState::Basic)
      sol.values[ju] = nonbasic_value(j);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(m_); ++i) {
    if (basis_[i] < n_struct_)
      sol.values[static_cast<std::size_t>(basis_[i])] = xb_[i];
  }
  // Snap tiny bound violations introduced by floating point.
  for (int j = 0; j < n_struct_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    sol.values[ju] = std::clamp(sol.values[ju], lb_[ju], ub_[ju]);
  }
  sol.objective = 0.0;
  for (int j = 0; j < n_struct_; ++j)
    sol.objective += cost_[static_cast<std::size_t>(j)] *
                     sol.values[static_cast<std::size_t>(j)];

  // Duals and reduced costs from the final basis (phase-2 costs).
  {
    const auto mu = static_cast<std::size_t>(m_);
    y_.assign(mu, 0.0);
    for (std::size_t i = 0; i < mu; ++i)
      y_[i] = cost_[static_cast<std::size_t>(basis_[i])];
    lu_.btran(y_);
    sol.duals.assign(y_.begin(), y_.end());
    sol.reduced_costs.assign(static_cast<std::size_t>(n_struct_), 0.0);
    for (int j = 0; j < n_struct_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      double d = cost_[ju];
      const auto& col = cols_[ju];
      for (std::size_t k = 0; k < col.rows.size(); ++k)
        d -= y_[static_cast<std::size_t>(col.rows[k])] * col.values[k];
      sol.reduced_costs[ju] = d;
    }
  }

  sol.status = Status::Optimal;
  sol.has_incumbent = true;
  sol.best_bound = sol.objective;
  // Counted only now that the node fully resolved: a warm replay whose
  // phase-2 polish hit the iteration limit above must not inflate the
  // warm-coverage metric the bench self-check gates on.
  if (warm_ok) sol.warm_started_nodes = 1;
  basis_capturable_ = true;
  return sol;
}

}  // namespace ww::milp
