// Shared MILP instance generators for stress tests and benchmarks.
//
// These builders produce the model families the solver is hardened
// against; tests and benches must exercise the *same* instances, so the
// generators live here rather than being copied into each harness.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "milp/model.hpp"
#include "util/rng.hpp"

namespace ww::milp {

/// WaterWise-shaped assignment MILP: jobs x regions binaries, per-job
/// assignment rows, per-region capacity rows, and summed-latency delay
/// rows.  The 200x5 instance is 405 rows — the scale the sparse-kernel
/// speedup bars are measured at.
inline Model waterwise_shaped_model(int jobs, int regions,
                                    std::uint64_t seed = 42) {
  util::Rng rng(seed);
  Model m;
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary("x", rng.uniform(0.1, 2.0));
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint("a", std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(
        "c", std::move(t), Sense::LessEqual,
        std::ceil(jobs / static_cast<double>(regions)) + 1.0);
  }
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 1; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)],
                   rng.uniform(1.0, 20.0)});
    (void)m.add_constraint("d", std::move(t), Sense::LessEqual, 25.0);
  }
  return m;
}

/// The scheduler's *hard* chunk model as a MILP: assignment + capacity rows
/// only, with the Eq. 11 delay constraint expressed as explicit x_mn = 0
/// bound fixings (`fixed_fraction` of the remote pairs).  The scheduler
/// solves this model with sched::transport_assign; the tests compare that
/// solver against milp::solve on these instances.  This is the shape presolve
/// feeds on — fixed columns substitute out and capacity rows go redundant.
/// The home region (r = 0) is never fixed, so the model stays feasible.
inline Model hard_chunk_model(int jobs, int regions, double fixed_fraction,
                              std::uint64_t seed = 11) {
  util::Rng rng(seed);
  Model m;
  m.reserve(jobs * regions, jobs + regions);
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary("x", rng.uniform(0.1, 2.0));
  for (int j = 0; j < jobs; ++j)
    for (int r = 1; r < regions; ++r)
      if (rng.bernoulli(fixed_fraction))
        m.set_variable_bounds(x[static_cast<std::size_t>(j * regions + r)],
                              0.0, 0.0);
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint("a", std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(
        "c", std::move(t), Sense::LessEqual,
        std::ceil(jobs / static_cast<double>(regions)) + 1.0);
  }
  return m;
}

/// The paper's *soft* chunk model (Eq. 12-13) in unfolded form, at
/// selectable scale: one penalty variable and one exceedance row per (job,
/// remote region) pair whose latency overruns the allowance.  The scheduler
/// folds each penalty into its assignment column's cost instead (m*n
/// columns, m+n rows); this form is the unfolded reference the equivalence
/// tests fold and compare against, and a large-row solver stress case (at
/// 400 jobs x 10 regions it is a several-thousand-row program).
inline Model soft_chunk_model(int jobs, int regions, std::uint64_t seed = 13) {
  util::Rng rng(seed);
  Model m;
  m.reserve(2 * jobs * regions, jobs + regions + jobs * regions);
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary("x", rng.uniform(0.1, 2.0));
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint("a", std::move(t), Sense::Equal, 1.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint(
        "c", std::move(t), Sense::LessEqual,
        std::ceil(jobs / static_cast<double>(regions)) + 1.0);
  }
  for (int j = 0; j < jobs; ++j) {
    const double allowance = rng.uniform(0.0, 10.0);
    for (int r = 1; r < regions; ++r) {
      const double exceedance = rng.uniform(1.0, 20.0) - allowance;
      if (exceedance <= 0.0) continue;
      const int p = m.add_continuous("p", 0.0, kInfinity, 0.5);
      (void)m.add_constraint(
          "soft",
          {{x[static_cast<std::size_t>(j * regions + r)], exceedance},
           {p, -1.0}},
          Sense::LessEqual, 0.0);
    }
  }
  return m;
}

/// Weak-relaxation soft-penalty model (the WaterWise pathology of Alg. 1's
/// softened delay rows): per-job assignment binaries with random remote
/// penalties absorbed by a cheap continuous excess variable.  The LP
/// relaxation is fractional nearly everywhere, so branch-and-bound builds a
/// deep tree — the workload the warm-start path exists to accelerate.
inline Model weak_relaxation_model(int jobs, int regions, double cap,
                                   std::uint64_t seed = 5) {
  util::Rng rng(seed);
  Model m;
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary("x", rng.uniform(0.2, 1.0));
  for (int j = 0; j < jobs; ++j) {
    std::vector<Term> t;
    for (int r = 0; r < regions; ++r)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint("a", std::move(t), Sense::Equal, 1.0);
    std::vector<Term> d;
    for (int r = 1; r < regions; ++r)
      d.push_back({x[static_cast<std::size_t>(j * regions + r)],
                   rng.uniform(50.0, 400.0)});
    const int p = m.add_continuous("p", 0.0, kInfinity, 0.5);
    d.push_back({p, -1.0});
    (void)m.add_constraint("soft", std::move(d), Sense::LessEqual, 20.0);
  }
  for (int r = 0; r < regions; ++r) {
    std::vector<Term> t;
    for (int j = 0; j < jobs; ++j)
      t.push_back({x[static_cast<std::size_t>(j * regions + r)], 1.0});
    (void)m.add_constraint("c", std::move(t), Sense::LessEqual, cap);
  }
  return m;
}

}  // namespace ww::milp
