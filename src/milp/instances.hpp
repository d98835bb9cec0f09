// The scheduler's chunk models (Eq. 8-13) as seeded milp::Model builds.
//
// tests/sched_transport_test.cpp converts each model into a
// sched::TransportProblem and checks transport_assign against milp::solve
// on it; tests/milp_oracle_test.cpp checks the soft model's penalty fold.
// Both must see the same instances, so the generators live here.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "milp/model.hpp"
#include "util/rng.hpp"

namespace ww::milp {

/// The scheduler's *hard* chunk model as a MILP: assignment + capacity rows
/// only, with the Eq. 11 delay constraint expressed as explicit x_mn = 0
/// bound fixings (`fixed_fraction` of the remote pairs).  The scheduler
/// solves this model with sched::transport_assign; the tests compare that
/// solver against milp::solve on these instances.  The home region
/// (r = 0) is never fixed, so the model stays feasible.
inline Model hard_chunk_model(int jobs, int regions, double fixed_fraction,
                              std::uint64_t seed = 11) {
  util::Rng rng(seed);
  Model m;
  m.reserve(jobs * regions, jobs + regions);
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary(rng.uniform(0.1, 2.0));
  for (int j = 0; j < jobs; ++j)
    for (int r = 1; r < regions; ++r)
      if (rng.bernoulli(fixed_fraction))
        m.set_variable_bounds(x[static_cast<std::size_t>(j * regions + r)],
                              0.0, 0.0);
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
    (void)m.add_constraint(
        std::move(t), Sense::LessEqual,
        std::ceil(jobs / static_cast<double>(regions)) + 1.0);
  }
  return m;
}

/// The paper's *soft* chunk model (Eq. 12-13) in unfolded form, at
/// selectable scale: one penalty variable and one exceedance row per (job,
/// remote region) pair whose latency overruns the allowance.  The scheduler
/// folds each penalty into its assignment column's cost instead (m*n
/// columns, m+n rows); this form is the unfolded reference the tests fold
/// and compare against.
inline Model soft_chunk_model(int jobs, int regions, std::uint64_t seed = 13) {
  util::Rng rng(seed);
  Model m;
  m.reserve(2 * jobs * regions, jobs + regions + jobs * regions);
  std::vector<int> x(static_cast<std::size_t>(jobs * regions));
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      x[static_cast<std::size_t>(j * regions + r)] =
          m.add_binary(rng.uniform(0.1, 2.0));
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
    (void)m.add_constraint(
        std::move(t), Sense::LessEqual,
        std::ceil(jobs / static_cast<double>(regions)) + 1.0);
  }
  for (int j = 0; j < jobs; ++j) {
    const double allowance = rng.uniform(0.0, 10.0);
    for (int r = 1; r < regions; ++r) {
      const double exceedance = rng.uniform(1.0, 20.0) - allowance;
      if (exceedance <= 0.0) continue;
      const int p = m.add_continuous(0.0, kInfinity, 0.5);
      (void)m.add_constraint(
          {{x[static_cast<std::size_t>(j * regions + r)], exceedance},
           {p, -1.0}},
          Sense::LessEqual, 0.0);
    }
  }
  return m;
}

}  // namespace ww::milp
