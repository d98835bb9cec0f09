// sched::transport_assign against two oracles: exhaustive enumeration on
// small seeded instances (<= 8 jobs x 5 regions, with forbidden pairs,
// zero quotas, all-forbidden rows, infeasible quotas and exact ties), and
// the dense-simplex milp::solve on the scheduler-shaped hard/soft chunk
// corpora and random 25-400-job instances.  Objectives and feasibility
// must agree to 1e-9 relative; assignments must agree except at a
// near-tie, where the oracle's assignment costs the same within that
// tolerance.  Every optimal answer must also pass sched::certify, the dual
// certificate.
#include "sched/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
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
  if (!got.optimal()) return;
  std::string why;
  EXPECT_TRUE(certify(p, got, &why)) << tag << ": " << why;
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
  p.cost = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0};
  p.allowed = {1, 1, 1, 1};
  EXPECT_THROW((void)transport_assign(p), std::invalid_argument);
  // A forbidden pair's cost is never read, so it may be anything.
  p.allowed = {1, 0, 1, 1};
  const TransportSolution s = transport_assign(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.region, (std::vector<int>{0, 1}));
  EXPECT_TRUE(certify(p, s));
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
  EXPECT_FALSE(certify(p, s));
  // An all-forbidden row is infeasible however much quota exists.
  p.allowed = {1, 1, 0, 0, 1, 1};
  EXPECT_EQ(transport_assign(p).status, Status::Infeasible);
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
}

TEST(Transport, MatchesBruteForceOnSeededSmallInstances) {
  int infeasible = 0, feasible = 0, tied = 0;
  for (const bool ties : {false, true}) {
    util::Rng rng(ties ? 77 : 41);
    for (int trial = 0; trial < 400; ++trial) {
      const TransportProblem p = random_small(rng, ties);
      const std::string tag = std::string(ties ? "ties" : "continuous") +
                              " trial " + std::to_string(trial);
      const BruteForce ref = brute_force(p);
      const TransportSolution got = transport_assign(p);
      ASSERT_EQ(got.optimal(), ref.feasible) << tag;
      if (!ref.feasible) {
        ++infeasible;
        continue;
      }
      ++feasible;
      std::string why;
      EXPECT_TRUE(certify(p, got, &why)) << tag << ": " << why;
      EXPECT_TRUE(near(got.objective, ref.objective))
          << tag << ": " << got.objective << " vs " << ref.objective;
      EXPECT_EQ(cost_of(p, got.region), got.objective) << tag;
      if (ref.optima == 1)
        EXPECT_EQ(got.region, ref.region) << tag;
      else
        ++tied;
      // Deterministic: a second solve returns the same bytes.
      const TransportSolution again = transport_assign(p);
      EXPECT_EQ(again.region, got.region) << tag;
      EXPECT_EQ(again.u, got.u) << tag;
      EXPECT_EQ(again.v, got.v) << tag;
    }
  }
  // The generator must reach every case it is meant to cover.
  EXPECT_GT(infeasible, 50);
  EXPECT_GT(feasible, 300);
  EXPECT_GT(tied, 50);
}

TEST(Transport, ReusedWorkspaceMatchesFreshSolves) {
  // One solution and workspace carried across instances of varying size,
  // infeasible ones included, must give the bytes a fresh solve gives.
  TransportSolution reused;
  TransportWorkspace ws;
  for (const bool ties : {false, true}) {
    util::Rng rng(ties ? 78 : 42);
    for (int trial = 0; trial < 300; ++trial) {
      const TransportProblem p = random_small(rng, ties);
      const TransportSolution fresh = transport_assign(p);
      transport_assign(p, reused, ws);
      const std::string tag = "trial " + std::to_string(trial);
      ASSERT_EQ(reused.status, fresh.status) << tag;
      EXPECT_EQ(reused.region, fresh.region) << tag;
      EXPECT_EQ(reused.objective, fresh.objective) << tag;
      EXPECT_EQ(reused.u, fresh.u) << tag;
      EXPECT_EQ(reused.v, fresh.v) << tag;
    }
  }
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
