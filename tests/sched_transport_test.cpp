// sched::transport_assign against two oracles: exhaustive enumeration on
// small seeded instances (<= 8 jobs x 5 regions, with forbidden pairs,
// zero quotas, all-forbidden rows, infeasible quotas and exact ties), and
// the dense-simplex milp::solve on the scheduler-shaped hard/soft chunk
// corpora and random 25-400-job instances.  A tie-heavy corpus pins the
// exact assignments where several optima exist.  Objectives and feasibility
// must agree to 1e-9 relative; assignments must agree except at a
// near-tie, where the oracle's assignment costs the same within that
// tolerance.  Every answer must also pass sched::certify: an optimal one
// by its dual certificate, an infeasible one by its Hall set.  The greedy
// rung, sched::greedy_assign, is checked on the same instances against its
// contract, and must equal the optimum wherever the instance is
// uncongested.
#include "sched/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "milp/instances.hpp"
#include "milp/model.hpp"
#include "milp/oracle.hpp"
#include "util/rng.hpp"

namespace ww::sched {
namespace {

using Status = TransportSolution::Status;

std::size_t at(int j, int n, int r) {
  return static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(r);
}

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// Sum of costs of `region`, in job order (the order transport_assign sums).
double cost_of(const TransportProblem& p, const std::vector<int>& region) {
  double sum = 0.0;
  for (int j = 0; j < p.jobs; ++j)
    sum += p.cost[at(j, p.regions(), region[static_cast<std::size_t>(j)])];
  return sum;
}

/// Exhaustive enumeration of every feasible assignment; the optimum, or
/// feasible = false when none exists.
struct BruteForce {
  bool feasible = false;
  double objective = std::numeric_limits<double>::infinity();
  std::vector<int> region;
  int optima = 0;  ///< Assignments attaining exactly `objective`.
};

void enumerate(const TransportProblem& p, int j, std::vector<int>& load,
               std::vector<int>& region, BruteForce& best) {
  const int n = p.regions();
  if (j == p.jobs) {
    const double c = cost_of(p, region);
    if (c < best.objective) {
      best = {true, c, region, 1};
    } else if (c == best.objective) {
      ++best.optima;
    }
    return;
  }
  for (int r = 0; r < n; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (p.allowed[at(j, n, r)] == 0 || load[i] >= p.quota[i]) continue;
    ++load[static_cast<std::size_t>(r)];
    region[static_cast<std::size_t>(j)] = r;
    enumerate(p, j + 1, load, region, best);
    --load[static_cast<std::size_t>(r)];
  }
}

BruteForce brute_force(const TransportProblem& p) {
  BruteForce best;
  std::vector<int> load(p.quota.size(), 0);
  std::vector<int> region(static_cast<std::size_t>(p.jobs), -1);
  enumerate(p, 0, load, region, best);
  return best;
}

/// Random small instance.  `ties` draws costs from {0, 1, 2, 3}, so many
/// assignments tie exactly; otherwise costs are continuous.
TransportProblem random_small(util::Rng& rng, bool ties) {
  TransportProblem p;
  p.jobs = static_cast<int>(rng.uniform_int(0, 8));
  const int n = static_cast<int>(rng.uniform_int(1, 5));
  p.quota.resize(static_cast<std::size_t>(n));
  for (int& q : p.quota) q = static_cast<int>(rng.uniform_int(0, 3));
  p.cost.resize(at(p.jobs, n, 0));
  p.allowed.resize(p.cost.size());
  const bool forbid_row = rng.bernoulli(0.1);
  for (int j = 0; j < p.jobs; ++j) {
    for (int r = 0; r < n; ++r) {
      p.cost[at(j, n, r)] = ties ? static_cast<double>(rng.uniform_int(0, 3))
                                 : rng.uniform(-2.0, 5.0);
      p.allowed[at(j, n, r)] = rng.bernoulli(0.75) ? 1 : 0;
    }
  }
  if (forbid_row && p.jobs > 0) {
    const int j = static_cast<int>(rng.uniform_int(0, p.jobs - 1));
    for (int r = 0; r < n; ++r) p.allowed[at(j, n, r)] = 0;
  }
  return p;
}

/// Tie-heavy instance: integer costs in {0, 1, 2} plus a bias that rises
/// with the region index (0, 1 or 2), so most jobs want the same few
/// regions and many assignments and moves cost exactly the same.  Quotas
/// are tight: region r gets the number of jobs j with j % regions == r,
/// plus at most two spare slots in all.  That assignment stays feasible
/// (j % regions is always allowed), and the insertions must keep
/// displacing earlier jobs along paths of up to four moves.
TransportProblem tie_heavy(util::Rng& rng, int jobs, int regions) {
  TransportProblem p;
  p.jobs = jobs;
  p.quota.assign(static_cast<std::size_t>(regions), 0);
  for (int j = 0; j < jobs; ++j)
    ++p.quota[static_cast<std::size_t>(j % regions)];
  for (int spare = static_cast<int>(rng.uniform_int(0, 2)); spare > 0;
       --spare)
    ++p.quota[static_cast<std::size_t>(rng.uniform_int(0, regions - 1))];
  p.cost.resize(at(jobs, regions, 0));
  p.allowed.resize(p.cost.size());
  for (int j = 0; j < jobs; ++j) {
    for (int r = 0; r < regions; ++r) {
      const double bias = static_cast<double>(3 * r / regions);
      p.cost[at(j, regions, r)] =
          bias + static_cast<double>(rng.uniform_int(0, 2));
      p.allowed[at(j, regions, r)] =
          r == j % regions || rng.bernoulli(0.5) ? 1 : 0;
    }
  }
  return p;
}

/// Each job's cheapest allowed region, the lowest index on ties (-1: none).
std::vector<int> cheapest_regions(const TransportProblem& p) {
  const int n = p.regions();
  std::vector<int> best(static_cast<std::size_t>(p.jobs), -1);
  for (int j = 0; j < p.jobs; ++j) {
    int& b = best[static_cast<std::size_t>(j)];
    for (int r = 0; r < n; ++r)
      if (p.allowed[at(j, n, r)] != 0 &&
          (b < 0 || p.cost[at(j, n, r)] < p.cost[at(j, n, b)]))
        b = r;
  }
  return best;
}

/// Jobs per region when each job goes to its cheapest allowed region.
std::vector<int> cheapest_counts(const TransportProblem& p) {
  std::vector<int> count(p.quota.size(), 0);
  for (const int r : cheapest_regions(p))
    if (r >= 0) ++count[static_cast<std::size_t>(r)];
  return count;
}

/// The solver's uncongested condition: every job has an allowed region,
/// and every cheapest region can hold all the jobs whose cheapest it is.
bool uncongested(const TransportProblem& p) {
  const std::vector<int> best = cheapest_regions(p);
  if (std::find(best.begin(), best.end(), -1) != best.end()) return false;
  const std::vector<int> count = cheapest_counts(p);
  for (std::size_t r = 0; r < count.size(); ++r)
    if (count[r] > p.quota[r]) return false;
  return true;
}

/// Instances on either side of the uncongested condition, derived from `p`
/// (which gains an allowed region for any job that had none):
///   - just fit: each region's quota is exactly the number of jobs whose
///     cheapest region it is;
///   - one short: the same, with one such region a slot short and every
///     other region a slot more;
///   - zero quota: the same, with one such region at no quota and every
///     other region a slot more.
/// The two near misses must take the general path.
std::vector<TransportProblem> around_the_condition(TransportProblem p,
                                                   util::Rng& rng) {
  const int n = p.regions();
  for (int j = 0; j < p.jobs; ++j) {
    bool any = false;
    for (int r = 0; r < n; ++r) any = any || p.allowed[at(j, n, r)] != 0;
    if (!any)
      p.allowed[at(j, n, static_cast<int>(rng.uniform_int(0, n - 1)))] = 1;
  }
  TransportProblem fit = p;
  fit.quota = cheapest_counts(p);
  std::vector<TransportProblem> out{fit};
  std::vector<int> used;
  for (int r = 0; r < n; ++r)
    if (fit.quota[static_cast<std::size_t>(r)] > 0) used.push_back(r);
  if (used.empty()) return out;
  const int r = used[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<long>(used.size()) - 1))];
  TransportProblem short_one = fit;
  --short_one.quota[static_cast<std::size_t>(r)];
  for (int s = 0; s < n; ++s)
    if (s != r) short_one.quota[static_cast<std::size_t>(s)] += 1;
  TransportProblem zero = fit;
  zero.quota[static_cast<std::size_t>(r)] = 0;
  for (int s = 0; s < n; ++s)
    if (s != r) zero.quota[static_cast<std::size_t>(s)] += 1;
  out.push_back(short_one);
  out.push_back(zero);
  return out;
}

/// Where the solver's uncongested first phase stops: the first job whose
/// cheapest allowed region is already full of earlier jobs placed the same
/// way, or that has no allowed region (p.jobs when every job fits).
int prefix_stop(const TransportProblem& p) {
  const std::vector<int> best = cheapest_regions(p);
  std::vector<int> load(p.quota.size(), 0);
  for (int j = 0; j < p.jobs; ++j) {
    const int r = best[static_cast<std::size_t>(j)];
    if (r < 0) return j;
    const auto i = static_cast<std::size_t>(r);
    if (load[i] >= p.quota[i]) return j;
    ++load[i];
  }
  return p.jobs;
}

/// One instance per k in [0, p.jobs] whose first phase stops at job k,
/// derived from `p` (which gains an allowed region for any job that had
/// none).  Every region starts with the number of jobs whose cheapest
/// region it is plus 0-2 spare slots; for k < p.jobs, the cheapest region
/// of job k (the first congested region) then gets exactly its load from
/// jobs [0, k), so job k finds it full.  The jobs after k must then be
/// inserted by the general path, some infeasibly.
std::vector<TransportProblem> stopping_at_each_job(TransportProblem p,
                                                   util::Rng& rng) {
  const int n = p.regions();
  for (int j = 0; j < p.jobs; ++j) {
    bool any = false;
    for (int r = 0; r < n; ++r) any = any || p.allowed[at(j, n, r)] != 0;
    if (!any)
      p.allowed[at(j, n, static_cast<int>(rng.uniform_int(0, n - 1)))] = 1;
  }
  const std::vector<int> best = cheapest_regions(p);
  std::vector<TransportProblem> out;
  for (int k = 0; k <= p.jobs; ++k) {
    TransportProblem q = p;
    q.quota = cheapest_counts(p);
    for (int& slots : q.quota) slots += static_cast<int>(rng.uniform_int(0, 2));
    if (k < p.jobs) {
      const int r = best[static_cast<std::size_t>(k)];
      int before = 0;
      for (int j = 0; j < k; ++j)
        before += best[static_cast<std::size_t>(j)] == r ? 1 : 0;
      q.quota[static_cast<std::size_t>(r)] = before;
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// The answer the uncongested shortcut must give, byte for byte: each job
/// in its cheapest allowed region, v = 0 and u_j = c_j,region(j).  The
/// greedy placement gives the same regions there.
void expect_uncongested_answer(const TransportProblem& p,
                               const TransportSolution& s,
                               const std::string& tag) {
  ASSERT_TRUE(s.optimal()) << tag;
  EXPECT_EQ(s.region, cheapest_regions(p)) << tag;
  EXPECT_EQ(greedy_assign(p), s.region) << tag;
  EXPECT_EQ(s.v, std::vector<double>(p.quota.size(), 0.0)) << tag;
  ASSERT_EQ(s.u.size(), static_cast<std::size_t>(p.jobs)) << tag;
  for (int j = 0; j < p.jobs; ++j)
    EXPECT_EQ(s.u[static_cast<std::size_t>(j)],
              p.cost[at(j, p.regions(), s.region[static_cast<std::size_t>(j)])])
        << tag;
  EXPECT_EQ(s.objective, cost_of(p, s.region)) << tag;
}

/// Checks greedy_assign(p) against its contract: jobs in index order, each
/// in an allowed region with quota left that costs no more than any other
/// such region and strictly less than any such region of lower index; -1
/// only when no such region is left.
void expect_greedy_answer(const TransportProblem& p, const std::string& tag) {
  const std::vector<int> got = greedy_assign(p);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(p.jobs)) << tag;
  const int n = p.regions();
  std::vector<int> left(p.quota);
  for (int j = 0; j < p.jobs; ++j) {
    const int g = got[static_cast<std::size_t>(j)];
    const std::string job = tag + " job " + std::to_string(j);
    if (g >= 0) {
      ASSERT_LT(g, n) << job;
      ASSERT_NE(p.allowed[at(j, n, g)], 0) << job;
      ASSERT_GT(left[static_cast<std::size_t>(g)], 0) << job;
    }
    for (int r = 0; r < n; ++r) {
      if (p.allowed[at(j, n, r)] == 0 || left[static_cast<std::size_t>(r)] <= 0)
        continue;
      ASSERT_GE(g, 0) << job << ": region " << r << " was open";
      if (r < g) {
        EXPECT_GT(p.cost[at(j, n, r)], p.cost[at(j, n, g)]) << job;
      } else {
        EXPECT_GE(p.cost[at(j, n, r)], p.cost[at(j, n, g)]) << job;
      }
    }
    if (g >= 0) --left[static_cast<std::size_t>(g)];
  }
}

/// The problem as a milp::Model: job-major binaries, assignment equality
/// rows, then capacity rows — the scheduler's model before it moved off
/// the MILP stack.
milp::Model to_model(const TransportProblem& p) {
  const int n = p.regions();
  milp::Model m;
  m.reserve(p.jobs * n, p.jobs + n);
  for (int j = 0; j < p.jobs; ++j) {
    for (int r = 0; r < n; ++r) {
      const int x = m.add_binary(p.cost[at(j, n, r)]);
      const bool open = p.allowed[at(j, n, r)] != 0 &&
                        p.quota[static_cast<std::size_t>(r)] > 0;
      if (!open) m.set_variable_bounds(x, 0.0, 0.0);
    }
  }
  for (int j = 0; j < p.jobs; ++j) {
    std::vector<milp::Term> t;
    for (int r = 0; r < n; ++r)
      t.push_back({static_cast<int>(at(j, n, r)), 1.0});
    (void)m.add_constraint(std::move(t), milp::Sense::Equal, 1.0);
  }
  for (int r = 0; r < n; ++r) {
    std::vector<milp::Term> t;
    for (int j = 0; j < p.jobs; ++j)
      t.push_back({static_cast<int>(at(j, n, r)), 1.0});
    (void)m.add_constraint(std::move(t), milp::Sense::LessEqual,
                           static_cast<double>(std::max(
                               0, p.quota[static_cast<std::size_t>(r)])));
  }
  return m;
}

/// The inverse for the milp/instances.hpp chunk generators: the first
/// jobs * regions columns are x (job-major), rows [jobs, jobs + regions)
/// are the capacity rows, and every later row `e * x - p <= 0` is a soft
/// exceedance row whose penalty column folds into x's cost (every optimum
/// has p = e * x).
TransportProblem from_chunk_model(const milp::Model& m, int jobs,
                                  int regions) {
  TransportProblem p;
  p.jobs = jobs;
  p.cost.resize(at(jobs, regions, 0));
  p.allowed.resize(p.cost.size());
  for (std::size_t i = 0; i < p.cost.size(); ++i) {
    const milp::Variable& v = m.variables()[i];
    p.cost[i] = v.objective;
    p.allowed[i] = v.upper > 0.5 ? 1 : 0;
  }
  for (int r = 0; r < regions; ++r)
    p.quota.push_back(static_cast<int>(
        m.constraints()[static_cast<std::size_t>(jobs + r)].rhs));
  for (std::size_t i = static_cast<std::size_t>(jobs + regions);
       i < m.constraints().size(); ++i) {
    const milp::Constraint& c = m.constraints()[i];
    const milp::Term& x = c.terms.at(0);
    const milp::Term& pen = c.terms.at(1);
    p.cost[static_cast<std::size_t>(x.var)] +=
        m.variables()[static_cast<std::size_t>(pen.var)].objective * x.coeff;
  }
  return p;
}

/// Region per job from a MILP solution's first jobs * regions values.
std::vector<int> milp_regions(const milp::Solution& s, int jobs,
                              int regions) {
  std::vector<int> region(static_cast<std::size_t>(jobs), -1);
  for (int j = 0; j < jobs; ++j)
    for (int r = 0; r < regions; ++r)
      if (s.values[at(j, regions, r)] > 0.5)
        region[static_cast<std::size_t>(j)] = r;
  return region;
}

/// Solves `p` and `model` (the same problem as a MILP) and checks that
/// they agree: status, objective to 1e-9 relative, and the assignment
/// unless the MILP's assignment costs the same within that tolerance.
void expect_matches_milp(const TransportProblem& p, const milp::Model& model,
                         const std::string& tag) {
  const milp::Solution ref = milp::solve(model);
  const TransportSolution got = transport_assign(p);
  ASSERT_TRUE(ref.status == milp::Status::Optimal ||
              ref.status == milp::Status::Infeasible)
      << tag << ": " << milp::to_string(ref.status);
  ASSERT_EQ(got.optimal(), ref.status == milp::Status::Optimal) << tag;
  std::string why;
  EXPECT_TRUE(certify(p, got, &why)) << tag << ": " << why;
  if (!got.optimal()) return;
  EXPECT_TRUE(near(got.objective, ref.objective))
      << tag << ": transport " << got.objective << " vs milp "
      << ref.objective;
  const std::vector<int> milp_region =
      milp_regions(ref, p.jobs, p.regions());
  if (milp_region != got.region) {
    EXPECT_TRUE(near(cost_of(p, milp_region), got.objective))
        << tag << ": assignments differ beyond a tie";
  }
}

TEST(Transport, EmptyProblemIsOptimal) {
  TransportProblem p;
  p.quota = {0, 2};
  const TransportSolution s = transport_assign(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_TRUE(s.region.empty());
  EXPECT_EQ(s.objective, 0.0);
  ASSERT_EQ(s.v.size(), 2u);
  EXPECT_EQ(s.v[1], 0.0);  // unused quota
  EXPECT_TRUE(certify(p, s));
}

TEST(Transport, RejectsMalformedInput) {
  TransportProblem p;
  p.jobs = 2;
  p.quota = {1, 1};
  p.cost = {1.0, 2.0, 3.0};
  p.allowed = {1, 1, 1};
  EXPECT_THROW((void)transport_assign(p), std::invalid_argument);
  EXPECT_THROW((void)greedy_assign(p), std::invalid_argument);
  p.cost = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0};
  p.allowed = {1, 1, 1, 1};
  EXPECT_THROW((void)transport_assign(p), std::invalid_argument);
  EXPECT_THROW((void)greedy_assign(p), std::invalid_argument);
  // A forbidden pair's cost is never read, so it may be anything.
  p.allowed = {1, 0, 1, 1};
  const TransportSolution s = transport_assign(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.region, (std::vector<int>{0, 1}));
  EXPECT_TRUE(certify(p, s));
  EXPECT_EQ(greedy_assign(p), s.region);
}

TEST(Transport, RejectsNonFiniteAllowedCostAnywhere) {
  // The solver checks each allowed cost where it first reads it, so every
  // row must still be checked whichever way a solve ends: in the first
  // phase (uncongested), in an insertion after it (congested), or never
  // read by an insertion because an earlier job proved the instance
  // infeasible.  A non-finite cost in a forbidden pair changes nothing.
  constexpr double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  util::Rng rng(5077);
  int uncongested_cases = 0, congested_cases = 0, infeasible_cases = 0;
  for (int trial = 0; trial < 12; ++trial) {
    // 6 jobs x 4 regions, some pairs forbidden, every job allowed region
    // j % 4.  Case 0 has room everywhere; case 1 the tie-heavy tight
    // quotas (drawn until they congest); case 2 lets the first two jobs
    // use only region 0, which has one slot, so job 1 proves
    // infeasibility before rows 2-5 are read.
    const int m = 6, n = 4;
    TransportProblem base = tie_heavy(rng, m, n);
    while (uncongested(base)) base = tie_heavy(rng, m, n);
    TransportProblem roomy = base;
    roomy.quota.assign(static_cast<std::size_t>(n), m);
    TransportProblem early = base;
    for (int j = 0; j < 2; ++j)
      for (int r = 0; r < n; ++r) early.allowed[at(j, n, r)] = r == 0;
    early.quota[0] = 1;
    const TransportProblem cases[] = {roomy, base, early};
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      const TransportProblem& p = cases[c];
      const std::string tag =
          "trial " + std::to_string(trial) + " case " + std::to_string(c);
      const TransportSolution clean = transport_assign(p);
      ASSERT_TRUE(certify(p, clean)) << tag;
      if (c == 0) {
        ASSERT_TRUE(uncongested(p)) << tag;
        ++uncongested_cases;
      } else if (c == 1) {
        ASSERT_FALSE(uncongested(p)) << tag;
        ASSERT_TRUE(clean.optimal()) << tag;
        ++congested_cases;
      } else {
        ASSERT_EQ(clean.status, Status::Infeasible) << tag;
        ASSERT_EQ(clean.hall.back(), 1) << tag;  // the job the search ended at
        ++infeasible_cases;
      }
      TransportSolution reused;
      TransportWorkspace ws;
      for (int j = 0; j < m; ++j) {
        for (int r = 0; r < n; ++r) {
          TransportProblem q = p;
          const std::string pair = tag + " pair (" + std::to_string(j) +
                                   ", " + std::to_string(r) + ")";
          if (q.allowed[at(j, n, r)] == 0) {
            q.cost[at(j, n, r)] = kBad[0];
            transport_assign(q, reused, ws);
            EXPECT_EQ(reused.status, clean.status) << pair;
            EXPECT_EQ(reused.region, clean.region) << pair;
            EXPECT_EQ(reused.hall, clean.hall) << pair;
            EXPECT_EQ(reused.u, clean.u) << pair;
            EXPECT_EQ(reused.v, clean.v) << pair;
            continue;
          }
          for (const double bad : kBad) {
            q.cost[at(j, n, r)] = bad;
            EXPECT_THROW(transport_assign(q, reused, ws),
                         std::invalid_argument)
                << pair << " cost " << bad;
            EXPECT_THROW((void)transport_assign(q), std::invalid_argument)
                << pair << " cost " << bad;
          }
        }
      }
    }
  }
  EXPECT_EQ(uncongested_cases, 12);
  EXPECT_EQ(congested_cases, 12);
  EXPECT_EQ(infeasible_cases, 12);
}

TEST(Transport, TiesGoToTheLowestIndexFreeRegion) {
  // Every job is indifferent; each insertion ends at the lowest-index
  // region that still has quota, so the answer fills regions in order.
  TransportProblem p;
  p.jobs = 5;
  p.quota = {2, 0, 1, 4};
  p.cost.assign(at(5, 4, 0), 1.5);
  p.allowed.assign(p.cost.size(), 1);
  const TransportSolution s = transport_assign(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.region, (std::vector<int>{0, 0, 2, 3, 3}));
  EXPECT_EQ(s.objective, 7.5);
  EXPECT_TRUE(certify(p, s));
  // The greedy breaks the same ties the same way.
  EXPECT_EQ(greedy_assign(p), s.region);

  // Equally cheap moves go to the lowest-index job: jobs 0 and 1 fill
  // region 0, job 2 may only go there, and moving either earlier job to
  // region 1 costs 1, so job 0 moves.
  TransportProblem q;
  q.jobs = 3;
  q.quota = {2, 5};
  q.cost = {0.0, 1.0, 0.0, 1.0, 0.0, 5.0};
  q.allowed = {1, 1, 1, 1, 1, 0};
  const TransportSolution t = transport_assign(q);
  ASSERT_TRUE(t.optimal());
  EXPECT_EQ(t.region, (std::vector<int>{1, 0, 0}));
  EXPECT_TRUE(certify(q, t));
  // The greedy moves no job: jobs 0 and 1 fill region 0, the cheaper one,
  // and job 2 finds its only region full.
  EXPECT_EQ(greedy_assign(q), (std::vector<int>{0, 0, -1}));
}

TEST(Transport, AugmentsAlongAChainOfMoves) {
  // Job 2 fits only region 0, which job 0 holds; job 0 can move only to
  // region 1, which job 1 holds; job 1 can move to region 2.  Inserting
  // job 2 must shift both along the chain.
  TransportProblem p;
  p.jobs = 3;
  p.quota = {1, 1, 1};
  p.cost = {0.0, 1.0, 9.0,  //
            9.0, 0.0, 1.0,  //
            0.0, 9.0, 9.0};
  p.allowed = {1, 1, 0,  //
               0, 1, 1,  //
               1, 0, 0};
  const TransportSolution s = transport_assign(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.region, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(s.objective, 2.0);
  std::string why;
  EXPECT_TRUE(certify(p, s, &why)) << why;
  // The greedy shifts nothing, so job 2 finds region 0 taken.
  EXPECT_EQ(greedy_assign(p), (std::vector<int>{0, 1, -1}));
}

TEST(Transport, InfeasibleWhenJobsOutnumberAllowedQuota) {
  TransportProblem p;
  p.jobs = 3;
  p.quota = {1, 5};
  p.cost.assign(at(3, 2, 0), 1.0);
  // Region 1 is forbidden to everyone: three jobs, one usable slot.
  p.allowed = {1, 0, 1, 0, 1, 0};
  const TransportSolution s = transport_assign(p);
  EXPECT_EQ(s.status, Status::Infeasible);
  EXPECT_TRUE(s.region.empty());
  // Job 0 takes region 0's only slot; job 1 finds it full and job 0 unable
  // to move, so {0, 1} is the Hall set: two jobs, one slot in their
  // neighbourhood.
  EXPECT_EQ(s.hall, (std::vector<int>{0, 1}));
  std::string why;
  EXPECT_TRUE(certify(p, s, &why)) << why;
  // The greedy places what fits: job 0 takes the one usable slot.
  EXPECT_EQ(greedy_assign(p), (std::vector<int>{0, -1, -1}));
  // An all-forbidden row is infeasible however much quota exists; the
  // job alone is the witness, with an empty neighbourhood.
  p.allowed = {1, 1, 0, 0, 1, 1};
  const TransportSolution row = transport_assign(p);
  EXPECT_EQ(row.status, Status::Infeasible);
  EXPECT_EQ(row.hall, (std::vector<int>{1}));
  EXPECT_TRUE(certify(p, row, &why)) << why;
  // Job 0 takes region 0 on the tie, so job 2 goes to region 1.
  EXPECT_EQ(greedy_assign(p), (std::vector<int>{0, -1, 1}));
  // A feasible solve leaves no witness behind in a reused solution.
  TransportSolution reused = s;
  TransportWorkspace ws;
  p.allowed.assign(p.cost.size(), 1);
  transport_assign(p, reused, ws);
  ASSERT_TRUE(reused.optimal());
  EXPECT_TRUE(reused.hall.empty());
}

TEST(Transport, CertifyRejectsBrokenCertificates) {
  TransportProblem p;
  p.jobs = 3;
  p.quota = {2, 2};
  p.cost = {1.0, 4.0, 2.0, 1.0, 1.0, 3.0};
  p.allowed.assign(p.cost.size(), 1);
  const TransportSolution good = transport_assign(p);
  ASSERT_TRUE(good.optimal());
  ASSERT_TRUE(certify(p, good));
  std::string why;

  TransportSolution bad = good;
  bad.region[2] = 1;  // feasible but suboptimal: duals no longer fit
  EXPECT_FALSE(certify(p, bad, &why));
  EXPECT_FALSE(why.empty());

  bad = good;
  bad.objective += 1.0;
  EXPECT_FALSE(certify(p, bad));

  bad = good;
  bad.v[1] = 0.5;  // capacity duals are <= 0
  EXPECT_FALSE(certify(p, bad));

  bad = good;
  bad.u[0] += 1e-6;  // reduced cost on the chosen pair no longer zero
  EXPECT_FALSE(certify(p, bad));

  bad = good;
  bad.region = {0, 0, 0};  // over quota
  EXPECT_FALSE(certify(p, bad));

  TransportProblem forbidden = p;
  forbidden.allowed[at(0, 2, good.region[0])] = 0;
  EXPECT_FALSE(certify(forbidden, good));

  // Infeasibility witnesses: three jobs, one usable slot in region 0.
  TransportProblem tight = p;
  tight.quota = {1, 5};
  tight.allowed = {1, 0, 1, 0, 1, 0};
  const TransportSolution none = transport_assign(tight);
  ASSERT_EQ(none.status, Status::Infeasible);
  ASSERT_TRUE(certify(tight, none, &why)) << why;
  TransportSolution tampered = none;
  tampered.hall = {0};  // one job, one slot: no violation of Hall's condition
  EXPECT_FALSE(certify(tight, tampered, &why));
  EXPECT_FALSE(why.empty());
  tampered.hall = {0, 0};  // a repeated job is not a set
  EXPECT_FALSE(certify(tight, tampered));
  tampered.hall = {0, 3};  // no such job
  EXPECT_FALSE(certify(tight, tampered));
  tampered.hall.clear();  // an infeasible verdict needs a witness
  EXPECT_FALSE(certify(tight, tampered));
  // The witness of one instance proves nothing once region 1 opens.
  TransportProblem open = tight;
  open.allowed[at(1, 2, 1)] = 1;
  EXPECT_FALSE(certify(open, none));
}

TEST(Transport, MatchesBruteForceOnSeededSmallInstances) {
  int infeasible = 0, feasible = 0, tied = 0;
  int shortcut = 0, general = 0;
  for (const bool ties : {false, true}) {
    util::Rng rng(ties ? 77 : 41);
    for (int trial = 0; trial < 400; ++trial) {
      const TransportProblem drawn = random_small(rng, ties);
      // The drawn instance, then instances that just fit the uncongested
      // condition or just miss it.
      std::vector<TransportProblem> cases{drawn};
      for (TransportProblem& q : around_the_condition(drawn, rng))
        cases.push_back(std::move(q));
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const TransportProblem& p = cases[c];
        const std::string tag = std::string(ties ? "ties" : "continuous") +
                                " trial " + std::to_string(trial) + " case " +
                                std::to_string(c);
        const BruteForce ref = brute_force(p);
        const TransportSolution got = transport_assign(p);
        ASSERT_EQ(got.optimal(), ref.feasible) << tag;
        std::string why;
        EXPECT_TRUE(certify(p, got, &why)) << tag << ": " << why;
        expect_greedy_answer(p, tag);
        // Case 1 just fits the uncongested condition; cases 2 and 3 miss.
        if (c == 1) {
          EXPECT_TRUE(uncongested(p)) << tag;
        } else if (c > 1) {
          EXPECT_FALSE(uncongested(p)) << tag;
        }
        if (uncongested(p)) {
          ++shortcut;
          expect_uncongested_answer(p, got, tag);
        } else {
          ++general;
        }
        if (!ref.feasible) {
          if (c == 0) ++infeasible;
          continue;
        }
        EXPECT_TRUE(near(got.objective, ref.objective))
            << tag << ": " << got.objective << " vs " << ref.objective;
        EXPECT_EQ(cost_of(p, got.region), got.objective) << tag;
        if (ref.optima == 1) {
          EXPECT_EQ(got.region, ref.region) << tag;
        } else if (c == 0) {
          ++tied;
        }
        if (c == 0) ++feasible;
        // Deterministic: a second solve returns the same bytes.
        const TransportSolution again = transport_assign(p);
        EXPECT_EQ(again.region, got.region) << tag;
        EXPECT_EQ(again.u, got.u) << tag;
        EXPECT_EQ(again.v, got.v) << tag;
      }
    }
  }
  // The generator must reach every case it is meant to cover.
  EXPECT_GT(infeasible, 50);
  EXPECT_GT(feasible, 300);
  EXPECT_GT(tied, 50);
  EXPECT_GT(shortcut, 800);
  EXPECT_GT(general, 1500);

  // The general path resumes from the first phase's placements: instances
  // whose first phase stops at each job k in [0, m], m itself included.
  int resumed = 0, resumed_infeasible = 0;
  for (const bool ties : {false, true}) {
    util::Rng rng(ties ? 83 : 47);
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<TransportProblem> cases =
          stopping_at_each_job(random_small(rng, ties), rng);
      for (std::size_t k = 0; k < cases.size(); ++k) {
        const TransportProblem& p = cases[k];
        const std::string tag = std::string(ties ? "ties" : "continuous") +
                                " trial " + std::to_string(trial) +
                                " stop " + std::to_string(k);
        ASSERT_EQ(prefix_stop(p), static_cast<int>(k)) << tag;
        const BruteForce ref = brute_force(p);
        const TransportSolution got = transport_assign(p);
        ASSERT_EQ(got.optimal(), ref.feasible) << tag;
        std::string why;
        EXPECT_TRUE(certify(p, got, &why)) << tag << ": " << why;
        if (static_cast<int>(k) == p.jobs) {
          expect_uncongested_answer(p, got, tag);
          continue;
        }
        if (!ref.feasible) {
          ++resumed_infeasible;
          continue;
        }
        ++resumed;
        EXPECT_TRUE(near(got.objective, ref.objective))
            << tag << ": " << got.objective << " vs " << ref.objective;
        if (ref.optima == 1) {
          EXPECT_EQ(got.region, ref.region) << tag;
        }
      }
    }
  }
  EXPECT_GT(resumed, 600);
  EXPECT_GT(resumed_infeasible, 600);
}

TEST(Transport, ReusedWorkspaceMatchesFreshSolves) {
  // One solution and workspace carried across instances of varying size,
  // infeasible ones included, must give the bytes a fresh solve gives.
  // Instances on either side of the uncongested condition alternate, so
  // the shortcut and the general path run on one workspace in turn.  The
  // rows of residual arcs are built only as regions fill, so regions that
  // fill mid-solve, regions without quota and rows left by a larger solve
  // are covered too.
  TransportSolution reused;
  TransportWorkspace ws;
  const auto expect_same = [&](const TransportProblem& p,
                               const std::string& tag) {
    const TransportSolution fresh = transport_assign(p);
    transport_assign(p, reused, ws);
    ASSERT_EQ(reused.status, fresh.status) << tag;
    EXPECT_EQ(reused.region, fresh.region) << tag;
    EXPECT_EQ(reused.objective, fresh.objective) << tag;
    EXPECT_EQ(reused.u, fresh.u) << tag;
    EXPECT_EQ(reused.v, fresh.v) << tag;
    EXPECT_EQ(reused.hall, fresh.hall) << tag;
    std::string why;
    EXPECT_TRUE(certify(p, reused, &why)) << tag << ": " << why;
  };
  util::Rng stop_rng(43);
  for (const bool ties : {false, true}) {
    util::Rng rng(ties ? 78 : 42);
    for (int trial = 0; trial < 300; ++trial) {
      const TransportProblem p = random_small(rng, ties);
      const std::string tag = "trial " + std::to_string(trial);
      expect_same(p, tag);
      const std::vector<TransportProblem> around = around_the_condition(p, rng);
      for (std::size_t c = 0; c < around.size(); ++c)
        expect_same(around[c], tag + " case " + std::to_string(c + 1));
      // First phases that stop at each job, on the same workspace: the
      // general path must rebuild its arcs from this solve's placements.
      // Stop at the first mismatch, since arcs left over from an earlier
      // solve can name jobs that are not in their region.
      const std::vector<TransportProblem> stops =
          stopping_at_each_job(p, stop_rng);
      for (std::size_t k = 0; k < stops.size(); ++k) {
        expect_same(stops[k], tag + " stop " + std::to_string(k));
        if (HasFailure()) return;
      }
    }
  }
  // Regions that fill mid-solve, in every order: every job is cheapest in
  // region 0, and regions 1-3 fill in the order of their cost offsets, so
  // each insertion after the first phase fills, or adds to, a region
  // whose row of arcs was not yet built.  Each answer is checked against
  // enumeration too.
  util::Rng fill_rng(97);
  std::vector<int> order = {1, 2, 3};
  int orders = 0;
  do {
    for (int trial = 0; trial < 4; ++trial) {
      TransportProblem p;
      p.jobs = 8;
      p.quota = {2, 2, 2, 2};
      for (int j = 0; j < p.jobs; ++j)
        for (int r = 0; r < 4; ++r) {
          double c = 0.0;
          for (int i = 0; i < 3; ++i)
            if (order[static_cast<std::size_t>(i)] == r)
              c = 1.0 + i + fill_rng.uniform(0.0, 1.5);
          p.cost.push_back(c);
          p.allowed.push_back(r == 0 || fill_rng.bernoulli(0.85) ? 1 : 0);
        }
      const std::string tag = "fill order " + std::to_string(orders) +
                              " trial " + std::to_string(trial);
      expect_same(p, tag);
      const BruteForce ref = brute_force(p);
      ASSERT_EQ(reused.optimal(), ref.feasible) << tag;
      if (ref.feasible) {
        EXPECT_TRUE(near(reused.objective, ref.objective)) << tag;
      }
    }
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));

  // An allowed region with no quota (0 or -1) that is the cheapest region
  // of some jobs: the first phase stops at the first of them, and the
  // search settles that region, full with no job in it and no arc out.
  util::Rng shut_rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    TransportProblem p = random_small(shut_rng, trial % 2 == 1);
    const int n = p.regions();
    const int shut = static_cast<int>(shut_rng.uniform_int(0, n - 1));
    p.quota[static_cast<std::size_t>(shut)] =
        static_cast<int>(shut_rng.uniform_int(-1, 0));
    for (int j = 0; j < p.jobs; ++j)
      if (shut_rng.bernoulli(0.5)) {
        p.allowed[at(j, n, shut)] = 1;
        p.cost[at(j, n, shut)] = -10.0;
      }
    const std::string tag = "shut region trial " + std::to_string(trial);
    expect_same(p, tag);
    const BruteForce ref = brute_force(p);
    ASSERT_EQ(reused.optimal(), ref.feasible) << tag;
    if (ref.feasible) {
      EXPECT_TRUE(near(reused.objective, ref.objective)) << tag;
    }
  }

  // A small congested solve right after a large one over the same region
  // count: the large solve leaves built rows, and the small one must read
  // none of them before its own regions fill.
  util::Rng stale_rng(103);
  for (int round = 0; round < 20; ++round) {
    const TransportProblem large = tie_heavy(stale_rng, 40, 6);
    const TransportProblem small =
        tie_heavy(stale_rng, static_cast<int>(stale_rng.uniform_int(2, 8)), 6);
    const std::string tag = "stale rows round " + std::to_string(round);
    expect_same(large, tag + " large");
    expect_same(small, tag + " small");
  }

  // Alternating sizes: a large solve, a single job, then a mid-size one
  // over a different region count, each congested and then with room for
  // every job everywhere.  Arcs, move flags or labels left over from an
  // earlier solve would change the later answers.
  util::Rng rng(79);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [jobs, regions] :
         {std::pair{40, 6}, std::pair{1, 6}, std::pair{25, 4}}) {
      const TransportProblem p = tie_heavy(rng, jobs, regions);
      TransportProblem roomy = p;
      roomy.quota.assign(roomy.quota.size(), jobs);
      const std::string tag = std::to_string(jobs) + "x" +
                              std::to_string(regions) + " round " +
                              std::to_string(round);
      ASSERT_TRUE(transport_assign(p).optimal()) << tag;
      ASSERT_TRUE(uncongested(roomy)) << tag;
      expect_same(p, tag);
      expect_same(roomy, tag + " roomy");
      expect_uncongested_answer(roomy, reused, tag + " roomy");
    }
  }
}

TEST(Transport, PotentialsHandleMixedSignAndWideCosts) {
  // Costs of either sign spanning 1e-6 to 1e6 in magnitude, and quotas
  // summing to at most one slot more than the jobs: Dijkstra's source arcs
  // c_kr - h_r go negative, potentials grow far from the costs' scale and
  // most insertions move jobs.  One solution and workspace serve every
  // size as it shrinks and grows; each answer must match a fresh solve
  // byte for byte, brute force in objective and feasibility, and certify
  // (Optimal by its duals, Infeasible by its Hall set).
  util::Rng rng(4099);
  TransportSolution reused;
  TransportWorkspace ws;
  int infeasible = 0, moved = 0;
  for (int trial = 0; trial < 300; ++trial) {
    TransportProblem p;
    p.jobs = static_cast<int>(rng.uniform_int(0, 8));
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    p.quota.assign(static_cast<std::size_t>(n), 0);
    for (int slot = p.jobs + static_cast<int>(rng.uniform_int(0, 1));
         slot > 0; --slot)
      ++p.quota[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    p.cost.resize(at(p.jobs, n, 0));
    p.allowed.resize(p.cost.size());
    for (std::size_t i = 0; i < p.cost.size(); ++i) {
      const double magnitude = std::pow(10.0, rng.uniform(-6.0, 6.0));
      p.cost[i] = rng.bernoulli(0.5) ? -magnitude : magnitude;
      p.allowed[i] = rng.bernoulli(0.8) ? 1 : 0;
    }
    const std::string tag = "trial " + std::to_string(trial) + " (" +
                            std::to_string(p.jobs) + "x" + std::to_string(n) +
                            ")";
    const TransportSolution fresh = transport_assign(p);
    transport_assign(p, reused, ws);
    ASSERT_EQ(reused.status, fresh.status) << tag;
    EXPECT_EQ(reused.region, fresh.region) << tag;
    EXPECT_EQ(reused.hall, fresh.hall) << tag;
    EXPECT_EQ(reused.u, fresh.u) << tag;
    EXPECT_EQ(reused.v, fresh.v) << tag;

    const BruteForce ref = brute_force(p);
    ASSERT_EQ(reused.optimal(), ref.feasible) << tag;
    std::string why;
    EXPECT_TRUE(certify(p, reused, &why)) << tag << ": " << why;
    if (!ref.feasible) {
      ++infeasible;
      continue;
    }
    double scale = 1.0;
    for (const double c : p.cost) scale = std::max(scale, std::abs(c));
    EXPECT_LE(std::abs(reused.objective - ref.objective), 1e-9 * scale)
        << tag << ": " << reused.objective << " vs " << ref.objective;
    EXPECT_EQ(reused.region, ref.region) << tag;
    // Count the instances whose optimum is not every job's cheapest region.
    for (int j = 0; j < p.jobs; ++j) {
      double cheapest = std::numeric_limits<double>::infinity();
      for (int r = 0; r < n; ++r)
        if (p.allowed[at(j, n, r)] != 0)
          cheapest = std::min(cheapest, p.cost[at(j, n, r)]);
      if (p.cost[at(j, n, reused.region[static_cast<std::size_t>(j)])] !=
          cheapest) {
        ++moved;
        break;
      }
    }
  }
  EXPECT_GT(infeasible, 30);
  EXPECT_GT(moved, 100);
}

TEST(Transport, TieHeavyCorpusKeepsItsAssignments) {
  // Many exact ties among costs and among moves, tight quotas and paths of
  // up to four moves: the instances where the tie rules decide which of
  // several optimal assignments comes out.  The expected region vectors
  // (one digit per job) pin the Dijkstra solver's answers.  Five of them
  // differ from the answers of the Bellman-Ford solver it replaced, which
  // settled exact ties in another order; those old vectors stay as
  // witnesses, and each must cost exactly what the new answer costs, so
  // both are proven optima of the same instance.
  constexpr std::pair<int, int> kSizes[] = {
      {12, 3}, {25, 5}, {40, 4}, {60, 6}, {60, 10}};
  struct Pin {
    const char* now;
    const char* before;  ///< Bellman-Ford's answer where it differed.
  };
  const Pin kExpected[] = {
      // 12 x 3; the longest paths move 1, 1, 1 jobs.
      {"121100010012", nullptr},
      {"112022012010", nullptr},
      {"101202102012", nullptr},
      // 25 x 5; the longest paths move 2, 2, 1 jobs.
      {"2100141231302414420303324", "2100141231342414220303304"},
      {"0131442042112343023410230", nullptr},
      {"3203001334410301212102224", nullptr},
      // 40 x 4; the longest paths move 2, 2, 2 jobs.
      {"0113220132211133232321130103030201000223", nullptr},
      {"0322101003131113211320220323020023230112", nullptr},
      {"2120311300210321310301230322012301213203", nullptr},
      // 60 x 6; the longest paths move 3, 3, 2 jobs.
      {"011504141542015243321230422253330241312301050340015244513545",
       "011504141543015243321030422253330241312302055240015244113545"},
      {"252324444305303051231235231345202341005110144415010340512552",
       nullptr},
      {"053053411445030145112445512205332342310245012445103324102302",
       nullptr},
      // 60 x 10; the longest paths move 3, 3, 4 jobs.
      {"828675125596831048401513847386932320076664419034927750502719",
       "828375725596801049431513847386912320076664416034927750502819"},
      {"201344696842536567276024080913542405615731839287687503171986",
       "201340696845536567272427480913540405615731839227688603171986"},
      {"035620617811291491069398763374422598608056324357742509884157",
       "935624617811281491579390873304422590608056324357742609886157"},
  };
  const auto regions_of = [](const char* digits) {
    std::vector<int> region;
    for (const char* c = digits; *c != '\0'; ++c) region.push_back(*c - '0');
    return region;
  };
  util::Rng rng(8117);
  std::size_t i = 0;
  for (const auto& [jobs, regions] : kSizes) {
    for (int rep = 0; rep < 3; ++rep, ++i) {
      const TransportProblem p = tie_heavy(rng, jobs, regions);
      const TransportSolution s = transport_assign(p);
      const std::string tag = std::to_string(jobs) + "x" +
                              std::to_string(regions) + " rep " +
                              std::to_string(rep);
      ASSERT_TRUE(s.optimal()) << tag;
      std::string why;
      EXPECT_TRUE(certify(p, s, &why)) << tag << ": " << why;
      std::string digits;
      for (const int r : s.region) digits += static_cast<char>('0' + r);
      EXPECT_EQ(digits, kExpected[i].now) << tag;
      if (kExpected[i].before == nullptr) continue;
      // The witness is a feasible assignment of the same cost.
      const std::vector<int> before = regions_of(kExpected[i].before);
      ASSERT_EQ(before.size(), static_cast<std::size_t>(jobs)) << tag;
      std::vector<int> load(static_cast<std::size_t>(regions), 0);
      for (int j = 0; j < jobs; ++j) {
        const int r = before[static_cast<std::size_t>(j)];
        EXPECT_NE(p.allowed[at(j, regions, r)], 0) << tag << " job " << j;
        ++load[static_cast<std::size_t>(r)];
      }
      for (int r = 0; r < regions; ++r)
        EXPECT_LE(load[static_cast<std::size_t>(r)],
                  p.quota[static_cast<std::size_t>(r)])
            << tag << " region " << r;
      EXPECT_EQ(cost_of(p, before), s.objective) << tag;
    }
  }
  EXPECT_EQ(i, std::size(kExpected));
}

TEST(Transport, MatchesMilpOnChunkModelCorpora) {
  struct Case {
    const char* name;
    milp::Model model;
    int jobs, regions;
  };
  const Case corpus[] = {
      {"hard-chunk-60x4", milp::hard_chunk_model(60, 4, 0.4), 60, 4},
      {"hard-chunk-60x5", milp::hard_chunk_model(60, 5, 0.4), 60, 5},
      {"hard-chunk-120x6", milp::hard_chunk_model(120, 6, 0.5, 23), 120, 6},
      {"hard-chunk-200x5", milp::hard_chunk_model(200, 5, 0.4), 200, 5},
      {"soft-chunk-30x4", milp::soft_chunk_model(30, 4), 30, 4},
      {"soft-chunk-30x4-s29", milp::soft_chunk_model(30, 4, 29), 30, 4},
      {"soft-chunk-100x5", milp::soft_chunk_model(100, 5), 100, 5},
      {"soft-chunk-100x5-s29", milp::soft_chunk_model(100, 5, 29), 100, 5},
  };
  for (const Case& c : corpus) {
    const TransportProblem p = from_chunk_model(c.model, c.jobs, c.regions);
    expect_matches_milp(p, c.model, c.name);
  }
}

TEST(Transport, MatchesMilpOnRandomInstances) {
  // Scheduler-sized instances: 25-400 jobs, some pairs forbidden, quotas
  // from generous to short (short ones are infeasible), plus the
  // scheduler's 1e-9 * (j * n + r) tie-break on every cost.
  util::Rng rng(2024);
  int infeasible = 0;
  for (const int jobs : {25, 60, 150, 400}) {
    for (const int regions : {3, 5}) {
      for (int rep = 0; rep < 2; ++rep) {
        TransportProblem p;
        p.jobs = jobs;
        for (int r = 0; r < regions; ++r) {
          const double share = static_cast<double>(jobs) / regions;
          p.quota.push_back(static_cast<int>(
              std::floor(share * (rep == 0 ? rng.uniform(0.9, 2.0)
                                           : rng.uniform(0.3, 1.3)))));
        }
        p.cost.resize(at(jobs, regions, 0));
        p.allowed.resize(p.cost.size());
        for (int j = 0; j < jobs; ++j) {
          for (int r = 0; r < regions; ++r) {
            p.cost[at(j, regions, r)] =
                rng.uniform(0.1, 2.0) +
                1e-9 * static_cast<double>(j * regions + r);
            p.allowed[at(j, regions, r)] =
                r == j % regions || rng.bernoulli(0.7) ? 1 : 0;
          }
        }
        const std::string tag = std::to_string(jobs) + "x" +
                                std::to_string(regions) + " rep " +
                                std::to_string(rep);
        expect_matches_milp(p, to_model(p), tag);
        if (!transport_assign(p).optimal()) ++infeasible;
      }
    }
  }
  EXPECT_GT(infeasible, 0);
  EXPECT_LT(infeasible, 16);
}

}  // namespace
}  // namespace ww::sched
