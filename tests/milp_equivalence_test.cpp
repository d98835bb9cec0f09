// Cross-mode equivalence harness: every instance family in
// milp/instances.hpp swept across the full cartesian product of solver
// modes — {presolve on/off} x {warm/cold} x {Devex/Dantzig} x
// {Forrest-Tomlin/refactorize-every-pivot} — asserting identical
// objectives and feasible, integral answers.  Subsystem interactions are
// covered combinatorially here, so a change to any one of presolve, the
// LU kernel, pricing, or warm start that only misbehaves in combination
// with another still trips a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "milp/model.hpp"
#include "obs/trace.hpp"
#include "util/work_steal.hpp"

namespace ww::milp {
namespace {

struct Instance {
  const char* name;
  Model model;
};

std::vector<Instance> corpus() {
  std::vector<Instance> out;
  out.push_back({"shaped-24x4", waterwise_shaped_model(24, 4)});
  out.push_back({"hard-chunk-60x4", hard_chunk_model(60, 4, 0.4)});
  out.push_back({"soft-chunk-30x4", soft_chunk_model(30, 4)});
  out.push_back({"weak-relax-10x3", weak_relaxation_model(10, 3, 5.0)});
  return out;
}

std::string mode_name(int mask) {
  std::string s;
  s += (mask & 1) ? "presolve" : "raw";
  s += (mask & 2) ? "+warm" : "+cold";
  s += (mask & 4) ? "+devex" : "+dantzig";
  s += (mask & 8) ? "+ft" : "+refactor-every-pivot";
  return s;
}

SolverOptions mode_options(int mask) {
  SolverOptions o;
  o.presolve = (mask & 1) != 0;
  o.warm_start = (mask & 2) != 0;
  o.pricing = (mask & 4) != 0 ? Pricing::Devex : Pricing::Dantzig;
  o.update_budget = (mask & 8) != 0 ? 64 : 0;
  return o;
}

TEST(MilpEquivalence, AllModeCombinationsAgree) {
  for (Instance& inst : corpus()) {
    // Reference: all subsystems on, exactly the production defaults.
    const Solution ref = solve(inst.model, mode_options(0xF));
    ASSERT_EQ(ref.status, Status::Optimal) << inst.name;
    ASSERT_LE(inst.model.max_violation(ref.values), 1e-6) << inst.name;

    for (int mask = 0; mask < 16; ++mask) {
      const SolverOptions opts = mode_options(mask);
      const Solution sol = solve(inst.model, opts);
      const std::string tag =
          std::string(inst.name) + " [" + mode_name(mask) + "]";
      ASSERT_EQ(sol.status, Status::Optimal) << tag;
      EXPECT_NEAR(sol.objective, ref.objective, 1e-7) << tag;
      EXPECT_LE(inst.model.max_violation(sol.values), 1e-6) << tag;
      for (int j = 0; j < inst.model.num_variables(); ++j) {
        if (inst.model.variable(j).type == VarType::Continuous) continue;
        const double v = sol.values[static_cast<std::size_t>(j)];
        EXPECT_NEAR(v, std::round(v), 1e-6) << tag << " var " << j;
      }
    }
  }
}

/// Continuous relaxation of `m`: same bounds, objective, and rows, every
/// variable continuous.
Model relax(const Model& m) {
  Model out;
  out.reserve(m.num_variables(), m.num_constraints());
  for (int j = 0; j < m.num_variables(); ++j) {
    const Variable& v = m.variable(j);
    (void)out.add_variable(v.lower, v.upper, VarType::Continuous, v.objective);
  }
  for (int i = 0; i < m.num_constraints(); ++i) {
    const Constraint& c = m.constraint(i);
    (void)out.add_constraint(c.terms, c.sense, c.rhs);
  }
  return out;
}

TEST(MilpEquivalence, PureLpModesAgree) {
  // The same sweep for the LP path (no integer variables): relaxing the
  // corpus exercises the plain simplex + duals extraction under every
  // kernel/pricing/presolve combination, where warm start is irrelevant
  // but must at least not break anything.
  for (Instance& inst : corpus()) {
    const Model relaxed = relax(inst.model);

    const Solution ref = solve(relaxed, mode_options(0xF));
    ASSERT_EQ(ref.status, Status::Optimal) << inst.name << " (LP)";
    for (int mask = 0; mask < 16; ++mask) {
      const Solution sol = solve(relaxed, mode_options(mask));
      const std::string tag =
          std::string(inst.name) + " LP [" + mode_name(mask) + "]";
      ASSERT_EQ(sol.status, Status::Optimal) << tag;
      EXPECT_NEAR(sol.objective, ref.objective, 1e-7) << tag;
      EXPECT_LE(relaxed.max_violation(sol.values), 1e-6) << tag;
    }
  }
}

TEST(MilpEquivalence, ConcurrentSolvesMatchSerialBitwise) {
  // The scheduler's plan/solve/commit pipeline fans independent chunk MILPs
  // across the work-stealing pool, which is only sound if milp::solve keeps
  // no shared mutable state: eight simultaneous solves of each corpus family
  // must return bitwise the answer of a serial solve.  (The solver is
  // deterministic, so "equal" here means ==, not within a tolerance.)
  util::WorkStealingPool pool(4);
  for (Instance& inst : corpus()) {
    const Solution ref = solve(inst.model, mode_options(0xF));
    ASSERT_EQ(ref.status, Status::Optimal) << inst.name;

    constexpr std::size_t kConcurrent = 8;
    std::vector<Solution> sols(kConcurrent);
    pool.parallel_for(kConcurrent, [&](std::size_t i) {
      sols[i] = solve(inst.model, mode_options(0xF));
    });
    for (std::size_t i = 0; i < kConcurrent; ++i) {
      const std::string tag =
          std::string(inst.name) + " concurrent #" + std::to_string(i);
      EXPECT_EQ(sols[i].status, ref.status) << tag;
      EXPECT_EQ(sols[i].objective, ref.objective) << tag;
      EXPECT_EQ(sols[i].values, ref.values) << tag;
      EXPECT_EQ(sols[i].nodes_explored, ref.nodes_explored) << tag;
      EXPECT_EQ(sols[i].simplex_iterations, ref.simplex_iterations) << tag;
    }
  }
}

/// The folded twin of a soft chunk model: every penalty row
/// `e * x - p <= 0` (e > 0) is dropped together with its penalty column p,
/// and cost(p) * e moves onto x's cost.  p has a positive cost and appears
/// in no other row, so every optimum has p = e * x and the substitution is
/// exact; the twin is the form the scheduler builds.
Model fold_penalty_rows(const Model& m) {
  std::vector<double> cost(m.variables().size());
  std::vector<bool> penalty(m.variables().size(), false);
  for (std::size_t v = 0; v < cost.size(); ++v)
    cost[v] = m.variables()[v].objective;
  std::vector<bool> folded(m.constraints().size(), false);
  for (std::size_t i = 0; i < m.constraints().size(); ++i) {
    const Constraint& c = m.constraints()[i];
    if (c.sense != Sense::LessEqual || c.rhs != 0.0 || c.terms.size() != 2)
      continue;
    const Term& x = c.terms[0];
    const Term& p = c.terms[1];
    if (x.coeff <= 0.0 || p.coeff != -1.0) continue;
    const auto pv = static_cast<std::size_t>(p.var);
    cost[static_cast<std::size_t>(x.var)] += cost[pv] * x.coeff;
    penalty[pv] = true;
    folded[i] = true;
  }
  Model out;
  std::vector<int> remap(cost.size(), -1);
  for (std::size_t v = 0; v < cost.size(); ++v) {
    if (penalty[v]) continue;
    const Variable& var = m.variables()[v];
    remap[v] = out.add_variable(var.lower, var.upper, var.type, cost[v]);
  }
  for (std::size_t i = 0; i < m.constraints().size(); ++i) {
    if (folded[i]) continue;
    const Constraint& c = m.constraints()[i];
    std::vector<Term> terms;
    terms.reserve(c.terms.size());
    for (const Term& t : c.terms)
      terms.push_back({remap[static_cast<std::size_t>(t.var)], t.coeff});
    (void)out.add_constraint(std::move(terms), c.sense, c.rhs);
  }
  return out;
}

TEST(MilpEquivalence, FoldedSoftPenaltyIsExactAndRootIntegral) {
  // The scheduler's soft model charges delay exceedance on the assignment
  // costs instead of through penalty columns.  The folded model must reach
  // the unfolded optimum and, being a transportation polytope, settle it
  // at the root LP.
  SolverOptions o;
  o.mip_gap_rel = 0.0;  // both solves to proven optimality
  for (const auto& [jobs, regions] : {std::pair{30, 4}, std::pair{100, 5}}) {
    for (const std::uint64_t seed : {13ULL, 29ULL}) {
      const Model unfolded = soft_chunk_model(jobs, regions, seed);
      const Model folded = fold_penalty_rows(unfolded);
      const std::string tag = std::to_string(jobs) + "x" +
                              std::to_string(regions) +
                              " seed=" + std::to_string(seed);
      ASSERT_EQ(folded.num_variables(), jobs * regions) << tag;
      ASSERT_EQ(folded.num_constraints(), jobs + regions) << tag;
      const Solution ref = solve(unfolded, o);
      const Solution got = solve(folded, o);
      ASSERT_EQ(ref.status, Status::Optimal) << tag;
      ASSERT_EQ(got.status, Status::Optimal) << tag;
      EXPECT_NEAR(got.objective, ref.objective,
                  1e-9 * std::max(1.0, std::abs(ref.objective)))
          << tag;
      EXPECT_LE(got.nodes_explored, 1) << tag;
    }
  }
}

TEST(MilpEquivalence, InfeasibleAgreesAcrossModes) {
  // Infeasibility must also be mode-independent: an over-capacitated
  // assignment (12 jobs but only 4 x 2 = 8 slots) has no feasible point,
  // and every combination must prove it rather than return something.
  const int jobs = 12, regions = 4;
  Model m;
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary(0.5 + 0.1 * r);
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(std::move(t), Sense::LessEqual, 2.0);
  }
  for (int mask = 0; mask < 16; ++mask) {
    const Solution sol = solve(m, mode_options(mask));
    EXPECT_EQ(sol.status, Status::Infeasible) << mode_name(mask);
  }
}

TEST(MilpEquivalence, TracingOnOffBitwiseIdentical) {
  // Span tracing wraps milp::solve, the presolver, and the simplex; it is
  // observational, so traced and untraced solves must return bitwise the
  // same Solution (values, counters, node counts) across every mode mask.
  for (Instance& inst : corpus()) {
    for (const int mask : {0x0, 0xF}) {
      obs::Trace::instance().set_enabled(false);
      const Solution off = solve(inst.model, mode_options(mask));
      obs::Trace::instance().set_enabled(true);
      const Solution on = solve(inst.model, mode_options(mask));
      obs::Trace::instance().set_enabled(false);
      obs::Trace::instance().clear();
      const std::string tag =
          std::string(inst.name) + " [" + mode_name(mask) + "]";
      EXPECT_EQ(on.status, off.status) << tag;
      EXPECT_EQ(on.objective, off.objective) << tag;
      EXPECT_EQ(on.values, off.values) << tag;
      EXPECT_EQ(on.nodes_explored, off.nodes_explored) << tag;
      EXPECT_EQ(on.simplex_iterations, off.simplex_iterations) << tag;
      EXPECT_EQ(on.warm_started_nodes, off.warm_started_nodes) << tag;
      EXPECT_EQ(on.ft_updates, off.ft_updates) << tag;
      EXPECT_EQ(on.presolve_rows_removed, off.presolve_rows_removed) << tag;
    }
  }
}

}  // namespace
}  // namespace ww::milp
