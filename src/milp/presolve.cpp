#include "milp/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace ww::milp {

namespace {

constexpr double kInf = kInfinity;
/// A lower/upper gap at or below this fixes the column outright.
constexpr double kFixTol = 1e-11;
/// Coefficients below this are numerically unusable as substitution pivots.
constexpr double kSubstTol = 1e-8;
/// Reduced-cost credits below this are treated as zero during dual recovery.
constexpr double kCreditTol = 1e-9;
/// Fixpoint pass cap; every model seen in practice quiesces in 2-4 passes.
constexpr int kMaxPasses = 10;

}  // namespace

bool presolve_enabled_by_default() {
  // WW_PRESOLVE=off disables presolve process-wide: the ablation switch CI
  // uses to run the whole test suite down the raw solver path.
  static const bool enabled = util::env_switch("WW_PRESOLVE", true);
  return enabled;
}

void Presolve::fix_column(int j, double value) {
  const auto ju = static_cast<std::size_t>(j);
  col_alive_[ju] = false;
  fixed_value_[ju] = value;
  offset_ += cost_[ju] * value;
  Record rec;
  rec.kind = Record::Kind::FixedCol;
  rec.col = j;
  rec.value = value;
  rec.cost = cost_[ju];
  records_.push_back(std::move(rec));
  ++stats_.cols_removed;
}

bool Presolve::apply_bound(int j, double value, bool is_upper,
                           bool* tightened) {
  const auto ju = static_cast<std::size_t>(j);
  // Integer domains round the derived bound inward; the integrality
  // tolerance keeps floating-point drift (2.9999999996) from cutting off a
  // genuinely feasible integer.
  if (is_int_[ju])
    value = is_upper ? std::floor(value + int_tol_)
                     : std::ceil(value - int_tol_);
  *tightened = false;
  if (is_upper) {
    if (value < ub_[ju]) {
      ub_[ju] = value;
      *tightened = true;
    }
  } else {
    if (value > lb_[ju]) {
      lb_[ju] = value;
      *tightened = true;
    }
  }
  return lb_[ju] <= ub_[ju] + feas_tol_;
}

Presolve::Result Presolve::run(const Model& model,
                               const SolverOptions& options) {
  obs::Span span("milp.presolve");
  const util::Stopwatch watch;
  feas_tol_ = options.feasibility_tolerance;
  int_tol_ = options.integrality_tolerance;
  n_ = model.num_variables();
  m_ = model.num_constraints();
  const auto nu = static_cast<std::size_t>(n_);
  const auto mu = static_cast<std::size_t>(m_);

  lb_.resize(nu);
  ub_.resize(nu);
  cost_.resize(nu);
  is_int_.assign(nu, false);
  col_alive_.assign(nu, true);
  fixed_value_.assign(nu, 0.0);
  for (int j = 0; j < n_; ++j) {
    const Variable& v = model.variable(j);
    const auto ju = static_cast<std::size_t>(j);
    lb_[ju] = v.lower;
    ub_[ju] = v.upper;
    cost_[ju] = v.objective;
    is_int_[ju] = v.type != VarType::Continuous;
  }
  row_begin_.resize(mu);
  row_end_.resize(mu);
  row_rhs_.resize(mu);
  row_sense_.resize(mu);
  row_alive_.assign(mu, 1);
  std::size_t nnz = 0;
  for (int i = 0; i < m_; ++i) nnz += model.constraint(i).terms.size();
  pool_.clear();
  pool_.reserve(nnz);
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model.constraint(i);
    const auto iu = static_cast<std::size_t>(i);
    row_begin_[iu] = static_cast<int>(pool_.size());
    pool_.insert(pool_.end(), c.terms.begin(), c.terms.end());
    row_end_[iu] = static_cast<int>(pool_.size());
    row_rhs_[iu] = c.rhs;
    row_sense_[iu] = c.sense;
  }
  offset_ = 0.0;
  records_.clear();
  stats_ = {};
  col_map_.assign(nu, -1);
  row_map_.assign(mu, -1);
  reduced_ = Model();

  const auto done = [&](Result r) {
    stats_.seconds = watch.elapsed_seconds();
    span.arg("rows_removed", stats_.rows_removed);
    span.arg("cols_removed", stats_.cols_removed);
    span.arg("nonzeros_removed", stats_.nonzeros_removed);
    span.arg("bounds_tightened", stats_.bounds_tightened);
    return r;
  };

  // Integer bound rounding up front: fractional bounds on integer columns
  // (branching leftovers, user input) snap inward once.
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (!is_int_[ju]) continue;
    const double nl = std::ceil(lb_[ju] - int_tol_);
    const double nh = std::floor(ub_[ju] + int_tol_);
    if (nl > lb_[ju]) {
      lb_[ju] = nl;
      ++stats_.bounds_tightened;
    }
    if (nh < ub_[ju]) {
      ub_[ju] = nh;
      ++stats_.bounds_tightened;
    }
    if (lb_[ju] > ub_[ju] + feas_tol_) return done(Result::Infeasible);
  }

  // Scratch reused across passes.
  std::vector<double> contrib_min, contrib_max;
  std::vector<int> col_count(nu, 0), col_row(nu, -1);

  bool changed = true;
  while (changed && stats_.passes < kMaxPasses) {
    changed = false;
    ++stats_.passes;

    // --- (a) row sweep: fold fixed columns into the rhs, drop empty rows,
    // turn singleton rows into bounds --------------------------------------
    for (int i = 0; i < m_; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (row_alive_[iu] == 0) continue;
      int w = row_begin_[iu];
      for (int t = row_begin_[iu]; t < row_end_[iu]; ++t) {
        const Term term = pool_[static_cast<std::size_t>(t)];
        const auto vu = static_cast<std::size_t>(term.var);
        if (!col_alive_[vu]) {
          row_rhs_[iu] -= term.coeff * fixed_value_[vu];
          ++stats_.nonzeros_removed;
          changed = true;
          continue;
        }
        if (term.coeff == 0.0) {
          ++stats_.nonzeros_removed;
          changed = true;
          continue;
        }
        pool_[static_cast<std::size_t>(w++)] = term;
      }
      row_end_[iu] = w;
      const int len = row_end_[iu] - row_begin_[iu];

      if (len == 0) {
        // 0 (sense) rhs: either trivially true or a proof of infeasibility.
        const double rhs = row_rhs_[iu];
        const bool ok = row_sense_[iu] == Sense::LessEqual
                            ? rhs >= -feas_tol_
                            : (row_sense_[iu] == Sense::GreaterEqual
                                   ? rhs <= feas_tol_
                                   : std::abs(rhs) <= feas_tol_);
        if (!ok) return done(Result::Infeasible);
        row_alive_[iu] = 0;
        ++stats_.rows_removed;
        Record rec;
        rec.kind = Record::Kind::RedundantRow;
        rec.row = i;
        records_.push_back(std::move(rec));
        changed = true;
        continue;
      }

      if (len == 1) {
        const Term t = pool_[static_cast<std::size_t>(row_begin_[iu])];
        const double v = row_rhs_[iu] / t.coeff;
        Record rec;
        rec.kind = Record::Kind::SingletonRow;
        rec.row = i;
        rec.col = t.var;
        rec.coeff = t.coeff;
        rec.rhs = row_rhs_[iu];
        rec.sense = row_sense_[iu];
        bool tight_any = false;
        bool ok = true;
        if (row_sense_[iu] == Sense::Equal) {
          bool t1 = false, t2 = false;
          ok = apply_bound(t.var, v, /*is_upper=*/true, &t1) &&
               apply_bound(t.var, v, /*is_upper=*/false, &t2);
          tight_any = t1 || t2;
        } else {
          // a x <= b  =>  upper bound when a > 0, lower bound when a < 0;
          // >= rows mirror.
          const bool upper =
              (row_sense_[iu] == Sense::LessEqual) == (t.coeff > 0.0);
          ok = apply_bound(t.var, v, upper, &tight_any);
          rec.bound_is_upper = upper;
          rec.bound = upper ? ub_[static_cast<std::size_t>(t.var)]
                            : lb_[static_cast<std::size_t>(t.var)];
        }
        rec.tightened = tight_any;
        records_.push_back(std::move(rec));
        // A conversion that actually tightened counts as a bound
        // tightening: it can collapse the B&B tree, so the facade's
        // reduction-ratio gate must not discard it as marginal.
        if (tight_any) ++stats_.bounds_tightened;
        row_alive_[iu] = 0;
        ++stats_.rows_removed;
        ++stats_.nonzeros_removed;
        changed = true;
        if (!ok) return done(Result::Infeasible);
        continue;
      }
    }

    // --- (b) fixed columns -------------------------------------------------
    for (int j = 0; j < n_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!col_alive_[ju]) continue;
      if (!(ub_[ju] - lb_[ju] <= kFixTol)) continue;  // NaN-safe
      double v = lb_[ju] == ub_[ju] ? lb_[ju] : 0.5 * (lb_[ju] + ub_[ju]);
      if (is_int_[ju]) v = std::round(v);
      fix_column(j, v);
      changed = true;
    }

    // --- (c) activity sweep: redundancy, infeasibility, integer bound
    // tightening ------------------------------------------------------------
    for (int i = 0; i < m_; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (row_alive_[iu] == 0) continue;
      const int begin = row_begin_[iu];
      const int end = row_end_[iu];
      if (begin == end) continue;
      const auto nt = static_cast<std::size_t>(end - begin);
      contrib_min.assign(nt, 0.0);
      contrib_max.assign(nt, 0.0);
      double min_fin = 0.0, max_fin = 0.0;
      int min_inf = 0, max_inf = 0;
      for (std::size_t k = 0; k < nt; ++k) {
        const Term& t = pool_[static_cast<std::size_t>(begin) + k];
        const auto vu = static_cast<std::size_t>(t.var);
        double lo, hi;
        if (col_alive_[vu]) {
          lo = t.coeff > 0.0 ? t.coeff * lb_[vu] : t.coeff * ub_[vu];
          hi = t.coeff > 0.0 ? t.coeff * ub_[vu] : t.coeff * lb_[vu];
        } else {
          // Fixed this pass, folded into the rhs next pass; until then it
          // contributes a constant.
          lo = hi = t.coeff * fixed_value_[vu];
        }
        contrib_min[k] = lo;
        contrib_max[k] = hi;
        if (std::isfinite(lo)) min_fin += lo; else ++min_inf;
        if (std::isfinite(hi)) max_fin += hi; else ++max_inf;
      }
      const double min_act = min_inf > 0 ? -kInf : min_fin;
      const double max_act = max_inf > 0 ? kInf : max_fin;
      const double rhs = row_rhs_[iu];

      // Infeasible / redundant rows.  Redundancy compares exactly (no
      // tolerance): dropping a weakly-binding row is valid but dropping a
      // violated one is not, so the check stays conservative.
      bool redundant = false;
      switch (row_sense_[iu]) {
        case Sense::LessEqual:
          if (min_act > rhs + feas_tol_) return done(Result::Infeasible);
          redundant = max_act <= rhs;
          break;
        case Sense::GreaterEqual:
          if (max_act < rhs - feas_tol_) return done(Result::Infeasible);
          redundant = min_act >= rhs;
          break;
        case Sense::Equal:
          if (min_act > rhs + feas_tol_ || max_act < rhs - feas_tol_)
            return done(Result::Infeasible);
          redundant = min_act == rhs && max_act == rhs;
          break;
      }
      if (redundant) {
        row_alive_[iu] = 0;
        ++stats_.rows_removed;
        stats_.nonzeros_removed += end - begin;
        Record rec;
        rec.kind = Record::Kind::RedundantRow;
        rec.row = i;
        records_.push_back(std::move(rec));
        changed = true;
        continue;
      }

      // Integer bound tightening from the residual activity: continuous
      // bounds are never synthesized here, so LP duals of the reduced model
      // remain exact duals of the original (see header).
      for (std::size_t k = 0; k < nt; ++k) {
        const Term& t = pool_[static_cast<std::size_t>(begin) + k];
        const auto vu = static_cast<std::size_t>(t.var);
        if (!col_alive_[vu] || !is_int_[vu]) continue;
        bool tight = false;
        if (row_sense_[iu] != Sense::GreaterEqual) {  // <= or ==, min side
          double min_wo = -kInf;
          if (min_inf == 0)
            min_wo = min_fin - contrib_min[k];
          else if (min_inf == 1 && !std::isfinite(contrib_min[k]))
            min_wo = min_fin;
          if (std::isfinite(min_wo)) {
            const double v = (rhs - min_wo) / t.coeff;
            if (!apply_bound(t.var, v, /*is_upper=*/t.coeff > 0.0, &tight))
              return done(Result::Infeasible);
            if (tight) {
              ++stats_.bounds_tightened;
              changed = true;
            }
          }
        }
        if (row_sense_[iu] != Sense::LessEqual) {  // >= or ==, max side
          double max_wo = kInf;
          if (max_inf == 0)
            max_wo = max_fin - contrib_max[k];
          else if (max_inf == 1 && !std::isfinite(contrib_max[k]))
            max_wo = max_fin;
          if (std::isfinite(max_wo)) {
            const double v = (rhs - max_wo) / t.coeff;
            if (!apply_bound(t.var, v, /*is_upper=*/t.coeff < 0.0, &tight))
              return done(Result::Infeasible);
            if (tight) {
              ++stats_.bounds_tightened;
              changed = true;
            }
          }
        }
      }
    }

    // --- (d) implied-free continuous column singletons in equality rows ----
    std::fill(col_count.begin(), col_count.end(), 0);
    std::fill(col_row.begin(), col_row.end(), -1);
    for (int i = 0; i < m_; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (row_alive_[iu] == 0) continue;
      for (int t = row_begin_[iu]; t < row_end_[iu]; ++t) {
        const auto vu = static_cast<std::size_t>(
            pool_[static_cast<std::size_t>(t)].var);
        if (!col_alive_[vu]) continue;
        ++col_count[vu];
        col_row[vu] = i;
      }
    }
    for (int j = 0; j < n_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!col_alive_[ju] || is_int_[ju] || col_count[ju] != 1) continue;
      const int i = col_row[ju];
      const auto iu = static_cast<std::size_t>(i);
      if (row_alive_[iu] == 0 || row_sense_[iu] != Sense::Equal) continue;

      // Compact the row now so the postsolve record references only live
      // columns (fixed ones fold into the rhs) — reverse replay depends on
      // every referenced value being reconstructed later in the stack.
      int w = row_begin_[iu];
      for (int t = row_begin_[iu]; t < row_end_[iu]; ++t) {
        const Term term = pool_[static_cast<std::size_t>(t)];
        const auto vu = static_cast<std::size_t>(term.var);
        if (!col_alive_[vu]) {
          row_rhs_[iu] -= term.coeff * fixed_value_[vu];
          ++stats_.nonzeros_removed;
          continue;
        }
        pool_[static_cast<std::size_t>(w++)] = term;
      }
      row_end_[iu] = w;

      double a = 0.0;
      std::vector<Term> others;
      others.reserve(static_cast<std::size_t>(row_end_[iu] - row_begin_[iu]));
      for (int t = row_begin_[iu]; t < row_end_[iu]; ++t) {
        const Term& term = pool_[static_cast<std::size_t>(t)];
        if (term.var == j)
          a = term.coeff;
        else
          others.push_back(term);
      }
      if (std::abs(a) < kSubstTol) continue;

      // Implied interval of x_j from the row given the other bounds; the
      // column is implied free when its own bounds can never bind there.
      double smin_fin = 0.0, smax_fin = 0.0;
      int smin_inf = 0, smax_inf = 0;
      for (const Term& t : others) {
        const auto vu = static_cast<std::size_t>(t.var);
        const double lo = t.coeff > 0.0 ? t.coeff * lb_[vu] : t.coeff * ub_[vu];
        const double hi = t.coeff > 0.0 ? t.coeff * ub_[vu] : t.coeff * lb_[vu];
        if (std::isfinite(lo)) smin_fin += lo; else ++smin_inf;
        if (std::isfinite(hi)) smax_fin += hi; else ++smax_inf;
      }
      const double smin = smin_inf > 0 ? -kInf : smin_fin;
      const double smax = smax_inf > 0 ? kInf : smax_fin;
      const double r1 = (row_rhs_[iu] - smin) / a;
      const double r2 = (row_rhs_[iu] - smax) / a;
      const double implied_lo = std::min(r1, r2);
      const double implied_hi = std::max(r1, r2);
      if (!(implied_lo >= lb_[ju] - feas_tol_ &&
            implied_hi <= ub_[ju] + feas_tol_))
        continue;

      // Substitute x_j = (rhs - sum others)/a out of the objective; the
      // recorded pre-substitution cost becomes the row's dual in postsolve.
      Record rec;
      rec.kind = Record::Kind::FreeSingleton;
      rec.row = i;
      rec.col = j;
      rec.coeff = a;
      rec.rhs = row_rhs_[iu];
      rec.cost = cost_[ju];
      rec.terms = others;
      records_.push_back(std::move(rec));
      offset_ += cost_[ju] * row_rhs_[iu] / a;
      for (const Term& t : others)
        cost_[static_cast<std::size_t>(t.var)] -= cost_[ju] * t.coeff / a;
      col_alive_[ju] = false;
      ++stats_.cols_removed;
      row_alive_[iu] = 0;
      ++stats_.rows_removed;
      stats_.nonzeros_removed += row_end_[iu] - row_begin_[iu];
      // Neighbouring columns may have become singletons; the next pass's
      // recount picks them up.
      changed = true;
    }
  }
  return done(Result::Reduced);
}

void Presolve::build_reduced(const Model& model) {
  const util::Stopwatch watch;
  int alive_cols = 0, alive_rows = 0;
  for (int j = 0; j < n_; ++j)
    if (col_alive_[static_cast<std::size_t>(j)]) ++alive_cols;
  for (int i = 0; i < m_; ++i)
    if (row_alive_[static_cast<std::size_t>(i)] != 0) ++alive_rows;
  reduced_.reserve(alive_cols, alive_rows);
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (!col_alive_[ju]) continue;
    const Variable& v = model.variable(j);
    // add_variable snaps Binary bounds to [0,1]; a binary whose bounds a
    // caller overrode (and presolve did not collapse) must keep them.
    const VarType type =
        v.type == VarType::Binary && (lb_[ju] != 0.0 || ub_[ju] != 1.0)
            ? VarType::Integer
            : v.type;
    col_map_[ju] =
        reduced_.add_variable(v.name, lb_[ju], ub_[ju], type, cost_[ju]);
  }
  std::vector<Term> terms;
  for (int i = 0; i < m_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    if (row_alive_[iu] == 0) continue;
    terms.clear();
    terms.reserve(static_cast<std::size_t>(row_end_[iu] - row_begin_[iu]));
    for (int t = row_begin_[iu]; t < row_end_[iu]; ++t) {
      const Term& term = pool_[static_cast<std::size_t>(t)];
      const auto vu = static_cast<std::size_t>(term.var);
      if (!col_alive_[vu]) {
        // A fix from the final pass that never went through another sweep.
        row_rhs_[iu] -= term.coeff * fixed_value_[vu];
        ++stats_.nonzeros_removed;
        continue;
      }
      terms.push_back(Term{col_map_[vu], term.coeff});
    }
    row_map_[iu] = reduced_.add_constraint(model.constraint(i).name, terms,
                                           row_sense_[iu], row_rhs_[iu]);
  }
  stats_.seconds += watch.elapsed_seconds();
}

void Presolve::postsolve(const Model& original, Solution& sol) const {
  sol.presolve_rows_removed += stats_.rows_removed;
  sol.presolve_cols_removed += stats_.cols_removed;
  sol.presolve_nonzeros_removed += stats_.nonzeros_removed;
  sol.presolve_seconds += stats_.seconds;
  sol.solve_seconds += stats_.seconds;
  if (std::isfinite(sol.best_bound)) sol.best_bound += offset_;
  if (!sol.usable()) {
    sol.values.clear();
    sol.duals.clear();
    sol.reduced_costs.clear();
    return;
  }

  // --- primal values: reverse replay of the reduction stack ----------------
  const auto nu = static_cast<std::size_t>(n_);
  std::vector<double> x(nu, 0.0);
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (col_map_[ju] >= 0)
      x[ju] = sol.values[static_cast<std::size_t>(col_map_[ju])];
  }
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    const Record& rec = *it;
    if (rec.kind == Record::Kind::FixedCol) {
      x[static_cast<std::size_t>(rec.col)] = rec.value;
    } else if (rec.kind == Record::Kind::FreeSingleton) {
      double acc = rec.rhs;
      for (const Term& t : rec.terms)
        acc -= t.coeff * x[static_cast<std::size_t>(t.var)];
      x[static_cast<std::size_t>(rec.col)] = acc / rec.coeff;
    }
  }

  // --- duals and reduced costs (pure LP solves only) -----------------------
  // A reduced model with no rows left (including the empty fast path) comes
  // back without duals/reduced costs from the simplex; its reduced costs
  // are just the working objective coefficients.
  const bool reduced_rc_ok =
      sol.reduced_costs.size() ==
          static_cast<std::size_t>(reduced_.num_variables()) ||
      reduced_.num_constraints() == 0;
  const bool lp_duals =
      !original.has_integer_variables() && reduced_rc_ok &&
      sol.duals.size() ==
          static_cast<std::size_t>(reduced_.num_constraints());
  if (lp_duals) {
    const auto mu = static_cast<std::size_t>(m_);
    std::vector<double> y(mu, 0.0);
    for (int i = 0; i < m_; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (row_map_[iu] >= 0)
        y[iu] = sol.duals[static_cast<std::size_t>(row_map_[iu])];
    }
    // Per-column reduced-cost "credit" still unabsorbed: a removed row that
    // supplied the binding bound claims it as its dual.
    std::vector<double> credit(nu, 0.0);
    for (int j = 0; j < n_; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (col_map_[ju] < 0) continue;
      const auto rj = static_cast<std::size_t>(col_map_[ju]);
      credit[ju] = rj < sol.reduced_costs.size()
                       ? sol.reduced_costs[rj]
                       : reduced_.variable(col_map_[ju]).objective;
    }
    // Equality singleton rows zero their variable's full original reduced
    // cost; they are resolved after every other dual is known.
    std::vector<const Record*> equal_rows;
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
      const Record& rec = *it;
      switch (rec.kind) {
        case Record::Kind::FixedCol:
          // The working cost at fix time is the credit a bound-supplying
          // singleton row (earlier in the stack) may claim.
          credit[static_cast<std::size_t>(rec.col)] = rec.cost;
          break;
        case Record::Kind::FreeSingleton:
          y[static_cast<std::size_t>(rec.row)] = rec.cost / rec.coeff;
          credit[static_cast<std::size_t>(rec.col)] = 0.0;
          break;
        case Record::Kind::SingletonRow: {
          if (rec.sense == Sense::Equal) {
            equal_rows.push_back(&rec);
            break;
          }
          const auto cu = static_cast<std::size_t>(rec.col);
          if (!rec.tightened) break;  // original bound binds; dual stays 0
          if (std::abs(x[cu] - rec.bound) > feas_tol_) break;  // not binding
          const double c = credit[cu];
          // The sign decides which side is binding: a positive credit holds
          // the variable down at a lower bound, a negative one up at an
          // upper bound.  y = credit / a then lands with the correct row
          // sign (<= rows non-positive, >= rows non-negative).
          if ((rec.bound_is_upper && c < -kCreditTol) ||
              (!rec.bound_is_upper && c > kCreditTol)) {
            y[static_cast<std::size_t>(rec.row)] = c / rec.coeff;
            credit[cu] = 0.0;
          }
          break;
        }
        case Record::Kind::RedundantRow:
          break;  // dual 0
      }
    }
    if (!equal_rows.empty()) {
      // y_row = (c_orig - sum_{other rows} y a) / a_row makes the fixed
      // variable's recomputed reduced cost exactly zero.  At most one
      // equality singleton survives per column (later ones fold into empty
      // rows), and each references only its own column, so the solves are
      // independent given the duals fixed above.  One adjacency pass over
      // the matrix serves every record; evaluation stays sequential so the
      // (same-sweep) case of two equality singletons sharing a column sees
      // the sibling's freshly assigned dual instead of double-claiming.
      std::vector<std::vector<Term>> col_rows(nu);
      std::vector<char> wanted(nu, 0);
      for (const Record* rec : equal_rows)
        wanted[static_cast<std::size_t>(rec->col)] = 1;
      for (int i = 0; i < m_; ++i)
        for (const Term& t : original.constraint(i).terms)
          if (wanted[static_cast<std::size_t>(t.var)])
            col_rows[static_cast<std::size_t>(t.var)].push_back(
                Term{i, t.coeff});
      for (const Record* rec : equal_rows) {
        double sum = 0.0;
        for (const Term& t : col_rows[static_cast<std::size_t>(rec->col)])
          if (t.var != rec->row)  // t.var holds the row index here
            sum += y[static_cast<std::size_t>(t.var)] * t.coeff;
        y[static_cast<std::size_t>(rec->row)] =
            (original.variable(rec->col).objective - sum) / rec->coeff;
      }
    }
    sol.duals = std::move(y);
    // Reduced costs recomputed against the original matrix: with rc defined
    // as c - y^T A the Lagrangian identity on Solution holds by algebra for
    // any y, and the recovery above supplies the optimality signs.
    std::vector<double> rc(nu);
    for (int j = 0; j < n_; ++j)
      rc[static_cast<std::size_t>(j)] = original.variable(j).objective;
    for (int i = 0; i < m_; ++i) {
      const double yi = sol.duals[static_cast<std::size_t>(i)];
      if (yi == 0.0) continue;
      for (const Term& t : original.constraint(i).terms)
        rc[static_cast<std::size_t>(t.var)] -= yi * t.coeff;
    }
    sol.reduced_costs = std::move(rc);
  } else {
    sol.duals.clear();
    sol.reduced_costs.clear();
  }

  sol.values = std::move(x);
  sol.objective = original.objective_value(sol.values);
  if (sol.status == Status::Optimal) sol.best_bound = sol.objective;
}

}  // namespace ww::milp
