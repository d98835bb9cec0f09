// Plan/solve/commit pipeline coverage: the chunk-parallel scheduler must
// produce byte-identical decision streams and campaign aggregates at every
// `solver_threads` setting, with and without tracing and injected solve
// faults, and the quota partition must make region double-booking impossible by
// construction even under adversarial tiny-capacity windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/campaign_runner.hpp"
#include "dc/simulator.hpp"
#include "env/faults.hpp"
#include "obs/trace.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace ww::core {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 3;
  return cfg;
}

std::vector<trace::Job> burst_trace(int count, double at, int home = 2) {
  std::vector<trace::Job> jobs;
  util::Rng rng(99);
  for (int i = 0; i < count; ++i) {
    trace::Job j;
    j.id = static_cast<std::uint64_t>(i);
    j.submit_time = at;
    j.home_region = home;
    trace::sample_instance(i % trace::num_benchmarks(), rng, j);
    jobs.push_back(j);
  }
  return jobs;
}

/// Fixed free-capacity view for driving schedule() without a simulator.
class FixedCapacity final : public dc::CapacityView {
 public:
  explicit FixedCapacity(std::vector<int> caps) : caps_(std::move(caps)) {}
  [[nodiscard]] int num_regions() const override {
    return static_cast<int>(caps_.size());
  }
  [[nodiscard]] int capacity(int region) const override {
    return caps_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] int free_at(int region, double) const override {
    return caps_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] int max_occupancy(int, double, double) const override {
    return 0;
  }

 private:
  std::vector<int> caps_;
};

struct DirectRig {
  env::Environment env = env::Environment::builtin(small_env());
  footprint::FootprintModel fp{env};
  std::vector<trace::Job> jobs;
  std::vector<dc::PendingJob> batch;

  explicit DirectRig(int count, int home = 2)
      : jobs(burst_trace(count, 0.0, home)) {
    batch.reserve(jobs.size());
    for (const trace::Job& j : jobs) {
      dc::PendingJob p;
      p.job = &j;
      p.first_seen = 0.0;
      p.est_exec_s = j.exec_seconds > 0.0 ? j.exec_seconds : 100.0;
      p.est_energy_kwh = 1.0;
      batch.push_back(p);
    }
  }

  [[nodiscard]] std::vector<dc::Decision> run(WaterWiseScheduler& ww,
                                              const std::vector<int>& caps,
                                              double tol = 0.5) const {
    const FixedCapacity view(caps);
    dc::ScheduleContext ctx;
    ctx.now = 0.0;
    ctx.tol = tol;
    ctx.env = &env;
    ctx.footprint = &fp;
    ctx.capacity = &view;
    return ww.schedule(batch, ctx);
  }
};

std::vector<const dc::PendingJob*> as_pointers(
    const std::vector<dc::PendingJob>& batch, std::size_t count) {
  std::vector<const dc::PendingJob*> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count && i < batch.size(); ++i)
    out.push_back(&batch[i]);
  return out;
}

TEST(ChunkPlanning, SingleChunkOwnsTheWholeWindow) {
  const DirectRig rig(40);
  WaterWiseScheduler ww;  // max_jobs_per_solve = 400 => one chunk
  const std::vector<int> caps = {9, 0, 17, 3, 11};
  const auto plans = ww.plan_chunks(as_pointers(rig.batch, 40), caps);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].index, 0);
  EXPECT_EQ(plans[0].quota, caps);
  EXPECT_EQ(plans[0].jobs.size(), 40u);
}

TEST(ChunkPlanning, QuotaPartitionStressNeverOverbooksARegion) {
  // Adversarial tiny-capacity windows: many cap-0/cap-1 regions, chunk
  // counts that stress the largest-remainder rounding, and job totals right
  // at the capacity edge.  The partition must (a) hand out exactly the
  // window's capacity — no region can ever be over-committed because the
  // quotas are the only capacity any chunk sees — and (b) cover every
  // chunk's job count after the repair pass.
  const DirectRig rig(97);
  util::Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 14));
    std::vector<int> caps(static_cast<std::size_t>(n));
    int total_cap = 0;
    for (int r = 0; r < n; ++r) {
      // Mostly 0/1-capacity regions with occasional larger pockets.
      const double roll = rng.uniform();
      caps[static_cast<std::size_t>(r)] =
          roll < 0.35 ? 0
                      : (roll < 0.8 ? 1
                                    : static_cast<int>(rng.uniform_int(2, 9)));
      total_cap += caps[static_cast<std::size_t>(r)];
    }
    if (total_cap == 0) continue;
    const auto num_jobs = static_cast<std::size_t>(
        rng.uniform_int(1, std::min<std::int64_t>(total_cap, 97)));

    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = static_cast<int>(rng.uniform_int(1, 9));
    const WaterWiseScheduler ww(cfg);
    const auto plans = ww.plan_chunks(as_pointers(rig.batch, num_jobs), caps);

    std::vector<int> handed(static_cast<std::size_t>(n), 0);
    std::size_t jobs_covered = 0;
    for (const ChunkPlan& p : plans) {
      ASSERT_EQ(p.quota.size(), caps.size());
      long quota_total = 0;
      for (int r = 0; r < n; ++r) {
        EXPECT_GE(p.quota[static_cast<std::size_t>(r)], 0);
        handed[static_cast<std::size_t>(r)] +=
            p.quota[static_cast<std::size_t>(r)];
        quota_total += p.quota[static_cast<std::size_t>(r)];
      }
      EXPECT_GE(quota_total, static_cast<long>(p.jobs.size()))
          << "trial " << trial << " chunk " << p.index
          << ": quota cannot cover its jobs";
      jobs_covered += p.jobs.size();
    }
    EXPECT_EQ(jobs_covered, num_jobs);
    // Disjoint-by-construction: the quotas partition the window's capacity
    // exactly, so the sum of all chunk placements can never exceed caps.
    EXPECT_EQ(handed, caps) << "trial " << trial;
  }
}

TEST(ChunkParallel, DecisionStreamByteIdenticalAcrossThreadCounts) {
  // The acceptance bar: the full decision stream — not just aggregates —
  // must match exactly for solver_threads in {1, 2, 4} on a window that
  // actually fans out (tiny chunks, mixed capacity).
  const DirectRig rig(60);
  const std::vector<int> caps = {14, 0, 23, 9, 31};
  std::vector<std::vector<dc::Decision>> streams;
  for (const int threads : {1, 2, 4}) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 7;
    cfg.solver_threads = threads;
    WaterWiseScheduler ww(cfg);
    streams.push_back(rig.run(ww, caps));
    if (threads > 1) {
      EXPECT_GT(ww.stats().chunks_planned, 1);
    }
  }
  ASSERT_EQ(streams[0].size(), streams[1].size());
  ASSERT_EQ(streams[0].size(), streams[2].size());
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (std::size_t s = 1; s < streams.size(); ++s) {
      EXPECT_EQ(streams[0][i].job_id, streams[s][i].job_id) << "decision " << i;
      EXPECT_EQ(streams[0][i].region, streams[s][i].region) << "decision " << i;
      EXPECT_EQ(streams[0][i].start_time, streams[s][i].start_time)
          << "decision " << i;
      EXPECT_EQ(streams[0][i].power_scale, streams[s][i].power_scale)
          << "decision " << i;
    }
  }
}

TEST(ChunkParallel, NoRegionOvercommittedUnderAdversarialWindows) {
  // End-to-end double-booking check: whatever the chunk count and thread
  // count, per-region placements never exceed the window's capacity.
  const DirectRig rig(45);
  const std::vector<std::vector<int>> windows = {
      {1, 1, 1, 1, 1}, {0, 0, 45, 0, 0}, {2, 1, 40, 1, 2},
      {7, 7, 7, 7, 7}, {1, 0, 30, 0, 1},
  };
  for (const auto& caps : windows) {
    for (const int threads : {1, 4}) {
      WaterWiseConfig cfg;
      cfg.max_jobs_per_solve = 6;
      cfg.solver_threads = threads;
      WaterWiseScheduler ww(cfg);
      const auto decisions = rig.run(ww, caps, /*tol=*/1.0);
      std::vector<long> placed(caps.size(), 0);
      for (const dc::Decision& d : decisions)
        ++placed[static_cast<std::size_t>(d.region)];
      for (std::size_t r = 0; r < caps.size(); ++r)
        EXPECT_LE(placed[r], caps[r])
            << "region " << r << " overbooked at threads=" << threads;
      const long total = std::accumulate(placed.begin(), placed.end(), 0L);
      EXPECT_LE(total, static_cast<long>(rig.batch.size()));
    }
  }
}

TEST(ChunkParallel, SpillResolveRecoversUnusedQuotaDeterministically) {
  // Soft-disabled ablation with tol = 0: every remote region is forbidden,
  // so each chunk can only use its share of the home region and the rest of
  // its jobs become spill-eligible.  The serial spill re-solve must run,
  // results must stay within capacity, and the outcome must not depend on
  // the thread count.
  const DirectRig rig(12, /*home=*/2);
  const std::vector<int> caps = {5, 5, 10, 5, 5};
  std::vector<std::vector<dc::Decision>> streams;
  for (const int threads : {1, 2, 4}) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 4;
    cfg.solver_threads = threads;
    cfg.enable_soft_constraints = false;
    WaterWiseScheduler ww(cfg);
    streams.push_back(rig.run(ww, caps, /*tol=*/0.0));
    // 3 chunks of 4 jobs share the 10 home slots, so at least one chunk
    // cannot place all its jobs and the commit stage must spill.
    EXPECT_GE(ww.stats().spill_resolves, 1) << "threads=" << threads;
    EXPECT_GE(ww.stats().spill_jobs, 1) << "threads=" << threads;
    EXPECT_EQ(ww.stats().chunks_planned, 3) << "threads=" << threads;
    // The hard model is a transportation polytope: no solve, spill
    // re-solves included, branches.
    EXPECT_EQ(ww.stats().nodes_explored, 0) << "threads=" << threads;
  }
  for (const auto& stream : streams) {
    // tol = 0 forbids every remote move; exactly the home capacity fills.
    EXPECT_EQ(stream.size(), 10u);
    for (const dc::Decision& d : stream) EXPECT_EQ(d.region, 2);
  }
  for (std::size_t s = 1; s < streams.size(); ++s) {
    ASSERT_EQ(streams[0].size(), streams[s].size());
    for (std::size_t i = 0; i < streams[0].size(); ++i) {
      EXPECT_EQ(streams[0][i].job_id, streams[s][i].job_id);
      EXPECT_EQ(streams[0][i].region, streams[s][i].region);
      EXPECT_EQ(streams[0][i].start_time, streams[s][i].start_time);
    }
  }
}

TEST(ChunkParallel, CampaignAggregatesByteIdenticalAcrossThreadsAndAblations) {
  // The fig8/11/12 invariant at test scale: a full simulator campaign over
  // a bursty trace (chunking forced) must produce byte-identical per-job
  // streams and aggregates for every solver_threads value.  The process
  // switches (WW_SCHED_THREADS, WW_FAULT_SOLVES) are exercised by the CI
  // ablation reruns of this whole suite.
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);
  const auto jobs = burst_trace(50, 0.0);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  sim_cfg.record_jobs = true;

  auto run = [&](int threads) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 7;
    cfg.solver_threads = threads;
    WaterWiseScheduler ww(cfg);
    dc::Simulator sim(env, fp, sim_cfg);
    return sim.run(jobs, ww);
  };

  const dc::CampaignResult ref = run(1);
  ASSERT_EQ(ref.num_jobs, 50);
  for (const int threads : {2, 4}) {
    const dc::CampaignResult res = run(threads);
    const std::string tag = "threads=" + std::to_string(threads);
    EXPECT_EQ(res.num_jobs, ref.num_jobs) << tag;
    EXPECT_EQ(res.total_carbon_g, ref.total_carbon_g) << tag;
    EXPECT_EQ(res.total_water_l, ref.total_water_l) << tag;
    EXPECT_EQ(res.violations, ref.violations) << tag;
    EXPECT_EQ(res.jobs_per_region, ref.jobs_per_region) << tag;
    EXPECT_EQ(res.makespan_seconds, ref.makespan_seconds) << tag;
    ASSERT_EQ(res.jobs.size(), ref.jobs.size()) << tag;
    for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
      EXPECT_EQ(res.jobs[i].job_id, ref.jobs[i].job_id) << tag;
      EXPECT_EQ(res.jobs[i].exec_region, ref.jobs[i].exec_region)
          << tag << " job " << i;
      EXPECT_EQ(res.jobs[i].start_time, ref.jobs[i].start_time)
          << tag << " job " << i;
    }
  }
}

TEST(ChunkParallel, EffectiveThreadsResolvesConfigAndZero) {
  WaterWiseConfig one;
  one.solver_threads = 1;
  WaterWiseConfig four;
  four.solver_threads = 4;
  WaterWiseConfig all;
  all.solver_threads = 0;
  // Under a WW_SCHED_THREADS override (CI ablation rerun) the environment
  // wins for every scheduler, so only relative checks hold unconditionally.
  const bool overridden = std::getenv("WW_SCHED_THREADS") != nullptr;
  if (!overridden) {
    EXPECT_EQ(WaterWiseScheduler(one).effective_solver_threads(), 1u);
    EXPECT_EQ(WaterWiseScheduler(four).effective_solver_threads(), 4u);
  }
  EXPECT_GE(WaterWiseScheduler(all).effective_solver_threads(), 1u);
}

// The process-wide switches are read once and cached, so each case runs in
// a freshly executed child process ("threadsafe" death-test style) that sets
// the variable first.  The child exits 0 when the value is accepted and
// read back, 3 when it throws std::invalid_argument naming the variable and
// the value.
template <typename Read>
void expect_switch_outcome(const char* name, const char* value, Read read,
                           int code) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv(name, value, 1);
        try {
          std::exit(read() ? 0 : 1);
        } catch (const std::invalid_argument& e) {
          const std::string what = e.what();
          const bool named =
              what.find(std::string(name) + "='" + value + "'") !=
              std::string::npos;
          std::exit(named ? 3 : 2);
        }
      },
      ::testing::ExitedWithCode(code), "")
      << name << "=" << value;
}

TEST(ProcessSwitches, SchedThreadsAcceptsCountsAndRejectsTheRest) {
  const auto threads_are = [](std::size_t want) {
    return [want] {
      return WaterWiseScheduler(WaterWiseConfig{}).effective_solver_threads() ==
             want;
    };
  };
  expect_switch_outcome("WW_SCHED_THREADS", "2", threads_are(2), 0);
  expect_switch_outcome("WW_SCHED_THREADS", "4", threads_are(4), 0);
  for (const char* bad : {"two", "1.5", "-1", "4096", "2x"})
    expect_switch_outcome("WW_SCHED_THREADS", bad, threads_are(1), 3);
}

TEST(ProcessSwitches, FaultSolvesAcceptsRatesAndRejectsTheRest) {
  const auto rate_is = [](double want) {
    return [want] { return WaterWiseConfig{}.solve_failure_rate == want; };
  };
  expect_switch_outcome("WW_FAULT_SOLVES", "0.25", rate_is(0.25), 0);
  expect_switch_outcome("WW_FAULT_SOLVES", "0", rate_is(0.0), 0);
  for (const char* bad : {"1.5", "-0.1", "quarter", "nan", "0.25%"})
    expect_switch_outcome("WW_FAULT_SOLVES", bad, rate_is(0.0), 3);
}

TEST(ChunkParallel, StatsMergeIsFieldwiseAddition) {
  // Distinct values in every field of both operands: a field that
  // operator+= skips, or adds from the wrong member, shows up in the sum.
  SchedulerStats a;
  a.milp_solves = 1;
  a.soft_fallbacks = 2;
  a.nodes_explored = 3;
  a.simplex_iterations = 4;
  a.refactorizations = 7;
  a.ft_updates = 8;
  a.presolve_rows_removed = 10;
  a.presolve_seconds = 0.25;
  a.solve_seconds = 0.5;
  a.chunks_planned = 13;
  a.spill_jobs = 14;
  a.spill_resolves = 15;
  a.fault_events = 16;
  a.degraded_windows = 17;
  a.solve_retries = 18;
  a.fallback_placements = 19;
  a.deferred_jobs = 20;
  SchedulerStats b;
  b.milp_solves = 100;
  b.soft_fallbacks = 200;
  b.nodes_explored = 300;
  b.simplex_iterations = 400;
  b.refactorizations = 700;
  b.ft_updates = 800;
  b.presolve_rows_removed = 1000;
  b.presolve_seconds = 2.0;
  b.solve_seconds = 4.0;
  b.chunks_planned = 1300;
  b.spill_jobs = 1400;
  b.spill_resolves = 1500;
  b.fault_events = 1600;
  b.degraded_windows = 1700;
  b.solve_retries = 1800;
  b.fallback_placements = 1900;
  b.deferred_jobs = 2000;
  a += b;
  EXPECT_EQ(a.milp_solves, 101);
  EXPECT_EQ(a.soft_fallbacks, 202);
  EXPECT_EQ(a.nodes_explored, 303);
  EXPECT_EQ(a.simplex_iterations, 404);
  EXPECT_EQ(a.refactorizations, 707);
  EXPECT_EQ(a.ft_updates, 808);
  EXPECT_EQ(a.presolve_rows_removed, 1010);
  EXPECT_DOUBLE_EQ(a.presolve_seconds, 2.25);
  EXPECT_DOUBLE_EQ(a.solve_seconds, 4.5);
  EXPECT_EQ(a.chunks_planned, 1313);
  EXPECT_EQ(a.spill_jobs, 1414);
  EXPECT_EQ(a.spill_resolves, 1515);
  EXPECT_EQ(a.fault_events, 1616);
  EXPECT_EQ(a.degraded_windows, 1717);
  EXPECT_EQ(a.solve_retries, 1818);
  EXPECT_EQ(a.fallback_placements, 1919);
  EXPECT_EQ(a.deferred_jobs, 2020);
}

TEST(ChunkParallel, TracingIsObservationalAcrossThreads) {
  // The observability acceptance bar: span tracing on vs. off must leave
  // per-job streams, campaign aggregates, AND the deterministic registry
  // metrics byte-identical for solver_threads {1, 2, 4}.
  // Wall-clock-derived metrics (decision latency, solve seconds)
  // are observational by design and are excluded from the comparison.
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);
  const auto jobs = burst_trace(50, 0.0);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  sim_cfg.record_jobs = true;

  struct Run {
    dc::CampaignResult result;
    std::uint64_t counters[3] = {0, 0, 0};
    std::string queue_depth_json;
    std::string admission_json;
  };
  auto run = [&](int threads, bool tracing) {
    obs::Trace::instance().set_enabled(tracing);
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 7;
    cfg.solver_threads = threads;
    WaterWiseScheduler ww(cfg);
    dc::Simulator sim(env, fp, sim_cfg);
    Run out;
    out.result = sim.run(jobs, ww);
    const obs::Registry& reg = ww.registry();
    const char* names[3] = {"sched.milp_solves", "sched.chunks_planned",
                            "sched.soft_fallbacks"};
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t* c = reg.find_counter(names[i]);
      out.counters[static_cast<std::size_t>(i)] = c != nullptr ? *c : 0;
    }
    const auto hist_bins = [&out](const char* name) {
      const util::Histogram* h = out.result.service.find_hist(name);
      std::string bins;
      if (h == nullptr) return bins;
      for (std::size_t i = 0; i < h->bins(); ++i)
        bins += std::to_string(h->bin_count(i)) + ",";
      return bins;
    };
    out.queue_depth_json = hist_bins("service.queue_depth");
    out.admission_json = hist_bins("service.time_to_admission_s");
    obs::Trace::instance().set_enabled(false);
    obs::Trace::instance().clear();
    return out;
  };

  const Run ref = run(1, false);
  ASSERT_EQ(ref.result.num_jobs, 50);
  EXPECT_GT(ref.counters[0], 0u);  // milp_solves registered and counted
  EXPECT_FALSE(ref.queue_depth_json.empty());
  for (const int threads : {1, 2, 4}) {
    const Run base = run(threads, false);
    const Run traced = run(threads, true);
    const std::string tag = "threads=" + std::to_string(threads);
    for (const Run* res : {&base, &traced}) {
      for (int c = 0; c < 3; ++c)
        EXPECT_EQ(res->counters[static_cast<std::size_t>(c)],
                  ref.counters[static_cast<std::size_t>(c)])
            << tag << " counter " << c;
      EXPECT_EQ(res->result.overhead_series.size(),
                ref.result.overhead_series.size())
          << tag << " windows";
      EXPECT_EQ(res->result.num_jobs, ref.result.num_jobs) << tag;
      EXPECT_EQ(res->result.total_carbon_g, ref.result.total_carbon_g)
          << tag;
      EXPECT_EQ(res->result.total_water_l, ref.result.total_water_l)
          << tag;
      EXPECT_EQ(res->result.violations, ref.result.violations) << tag;
      EXPECT_EQ(res->result.jobs_per_region, ref.result.jobs_per_region)
          << tag;
      EXPECT_EQ(res->result.makespan_seconds, ref.result.makespan_seconds)
          << tag;
      ASSERT_EQ(res->result.jobs.size(), ref.result.jobs.size()) << tag;
      for (std::size_t i = 0; i < ref.result.jobs.size(); ++i) {
        EXPECT_EQ(res->result.jobs[i].job_id, ref.result.jobs[i].job_id)
            << tag;
        EXPECT_EQ(res->result.jobs[i].exec_region,
                  ref.result.jobs[i].exec_region)
            << tag << " job " << i;
        EXPECT_EQ(res->result.jobs[i].start_time,
                  ref.result.jobs[i].start_time)
            << tag << " job " << i;
      }
      EXPECT_EQ(res->queue_depth_json, ref.queue_depth_json) << tag;
      EXPECT_EQ(res->admission_json, ref.admission_json) << tag;
    }
  }
}

TEST(ChunkParallel, StatsViewMatchesRegistry) {
  // The registry is the store and stats() reads it back: after a real
  // multi-chunk run every SchedulerStats field must equal its "sched.*"
  // entry, and the registry must hold exactly those entries.  The lists
  // below are written out on purpose, so a field missing from the
  // scheduler's field table fails here.
  const DirectRig rig(30);
  WaterWiseConfig cfg;
  cfg.max_jobs_per_solve = 7;
  WaterWiseScheduler ww(cfg);
  (void)rig.run(ww, {9, 3, 17, 5, 11});
  const SchedulerStats stats = ww.stats();
  EXPECT_GT(stats.milp_solves, 0);
  EXPECT_GT(stats.chunks_planned, 1);

  const obs::Registry& reg = ww.registry();
  const std::vector<std::pair<std::string, long>> counters = {
      {"sched.milp_solves", stats.milp_solves},
      {"sched.soft_fallbacks", stats.soft_fallbacks},
      {"sched.nodes_explored", stats.nodes_explored},
      {"sched.simplex_iterations", stats.simplex_iterations},
      {"sched.refactorizations", stats.refactorizations},
      {"sched.ft_updates", stats.ft_updates},
      {"sched.presolve_rows_removed", stats.presolve_rows_removed},
      {"sched.chunks_planned", stats.chunks_planned},
      {"sched.spill_jobs", stats.spill_jobs},
      {"sched.spill_resolves", stats.spill_resolves},
      {"sched.fault_events", stats.fault_events},
      {"sched.degraded_windows", stats.degraded_windows},
      {"sched.solve_retries", stats.solve_retries},
      {"sched.fallback_placements", stats.fallback_placements},
      {"sched.deferred_jobs", stats.deferred_jobs},
  };
  for (const auto& [name, value] : counters) {
    const std::uint64_t* got = reg.find_counter(name);
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(*got, static_cast<std::uint64_t>(value)) << name;
  }
  // Gauges have no by-name const lookup; gauge() on a copy returns the
  // handle of the already registered name.
  obs::Registry lookup = reg;
  EXPECT_EQ(lookup.gauge_value(lookup.gauge("sched.presolve_seconds")),
            stats.presolve_seconds);
  EXPECT_EQ(lookup.gauge_value(lookup.gauge("sched.solve_seconds")),
            stats.solve_seconds);

  std::vector<std::string> keys;
  const std::string json = reg.to_json();
  for (std::size_t at = json.find("\"sched."); at != std::string::npos;
       at = json.find("\"sched.", at + 1))
    keys.push_back(json.substr(at + 1, json.find('"', at + 1) - at - 1));
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> expected = {"sched.presolve_seconds",
                                       "sched.solve_seconds"};
  for (const auto& entry : counters) expected.push_back(entry.first);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);
}

TEST(ChunkParallel, FaultCampaignByteIdenticalAcrossThreads) {
  // The fault-determinism acceptance bar: with a generated FaultSchedule
  // attached (outages + forecast bias) AND injected solve failures layered
  // on top, a full simulator campaign must still produce byte-identical
  // per-job streams and aggregates for solver_threads {1, 2, 4}.
  env::FaultScheduleConfig fault_cfg;
  fault_cfg.seed = 31337;
  fault_cfg.horizon_seconds = 6.0 * 3600.0;
  fault_cfg.outages_per_region_day = 8.0;
  fault_cfg.bias_windows_per_region_day = 6.0;
  const env::FaultSchedule faults(fault_cfg);

  env::Environment world = env::Environment::builtin(small_env());
  world.attach_faults(&faults, env::FaultView::World);
  env::Environment observed = env::Environment::builtin(small_env());
  observed.attach_faults(&faults, env::FaultView::Controller);
  const footprint::FootprintModel world_fp(world);
  const footprint::FootprintModel observed_fp(observed);

  const auto jobs = burst_trace(50, 0.0);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  sim_cfg.record_jobs = true;

  auto run = [&](int threads) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 7;
    cfg.solver_threads = threads;
    cfg.solve_failure_rate = 0.35;
    cfg.fault_seed = fault_cfg.seed;
    WaterWiseScheduler ww(cfg);
    dc::Simulator sim(world, world_fp, sim_cfg);
    sim.set_fault_injection(&faults, &observed_fp);
    return sim.run(jobs, ww);
  };

  const dc::CampaignResult ref = run(1);
  EXPECT_EQ(ref.num_jobs, 50);
  for (const int threads : {2, 4}) {
    const dc::CampaignResult res = run(threads);
    const std::string tag = "threads=" + std::to_string(threads);
    EXPECT_EQ(res.num_jobs, ref.num_jobs) << tag;
    EXPECT_EQ(res.total_carbon_g, ref.total_carbon_g) << tag;
    EXPECT_EQ(res.total_water_l, ref.total_water_l) << tag;
    EXPECT_EQ(res.violations, ref.violations) << tag;
    EXPECT_EQ(res.jobs_per_region, ref.jobs_per_region) << tag;
    EXPECT_EQ(res.makespan_seconds, ref.makespan_seconds) << tag;
    ASSERT_EQ(res.jobs.size(), ref.jobs.size()) << tag;
    for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
      EXPECT_EQ(res.jobs[i].job_id, ref.jobs[i].job_id) << tag;
      EXPECT_EQ(res.jobs[i].exec_region, ref.jobs[i].exec_region)
          << tag << " job " << i;
      EXPECT_EQ(res.jobs[i].start_time, ref.jobs[i].start_time)
          << tag << " job " << i;
    }
  }
}

TEST(ChunkParallel, CampaignMatrixByteIdenticalAcrossThreadsAndFaults) {
  // The unified-pool acceptance sweep: scenario fan-out (CampaignRunner
  // jobs > 1) and chunk fan-out (solver_threads > 1) share the one global
  // work-stealing pool, swept over threads {1, 2, 4, 8} x injected
  // solve-fault rate {0, 0.35}.  Per fault rate, every thread count must
  // byte-match the serial reference — per-job streams included — because
  // stealing may reorder execution but results commit in scenario-index /
  // chunk-index order.
  const auto jobs = burst_trace(24, 0.0);
  const double tols[3] = {0.25, 0.5, 1.0};

  auto run_campaign = [&](int threads, double fault_rate) {
    dc::CampaignConfig ccfg;
    ccfg.jobs = static_cast<std::size_t>(threads);
    ccfg.seed = 17;
    dc::CampaignRunner runner(ccfg);
    for (int s = 0; s < 3; ++s) {
      const double tol = tols[s];
      runner.add("tol" + std::to_string(s), [&, tol](dc::ScenarioContext&) {
        const env::Environment env = env::Environment::builtin(small_env());
        const footprint::FootprintModel fp(env);
        WaterWiseConfig cfg;
        cfg.max_jobs_per_solve = 6;  // 24 jobs -> 4 chunks per window
        cfg.solver_threads = threads;
        cfg.solve_failure_rate = fault_rate;
        cfg.fault_seed = 909;
        WaterWiseScheduler ww(cfg);
        dc::SimConfig sim_cfg;
        sim_cfg.tol = tol;
        sim_cfg.record_jobs = true;
        dc::Simulator sim(env, fp, sim_cfg);
        return sim.run(jobs, ww);
      });
    }
    return runner.run_all();
  };

  for (const double fault_rate : {0.0, 0.35}) {
    const auto ref = run_campaign(1, fault_rate);
    ASSERT_EQ(ref.size(), 3u);
    ASSERT_EQ(ref[0].result.num_jobs, 24);
    for (const int threads : {2, 4, 8}) {
      const auto got = run_campaign(threads, fault_rate);
      const std::string tag = "threads=" + std::to_string(threads) +
                              " faults=" + std::to_string(fault_rate);
      ASSERT_EQ(got.size(), ref.size()) << tag;
      for (std::size_t s = 0; s < ref.size(); ++s) {
        const dc::CampaignResult& a = ref[s].result;
        const dc::CampaignResult& b = got[s].result;
        const std::string stag = tag + " " + ref[s].label;
        EXPECT_EQ(got[s].label, ref[s].label) << tag;
        EXPECT_EQ(b.num_jobs, a.num_jobs) << stag;
        EXPECT_EQ(b.total_carbon_g, a.total_carbon_g) << stag;
        EXPECT_EQ(b.total_water_l, a.total_water_l) << stag;
        EXPECT_EQ(b.violations, a.violations) << stag;
        EXPECT_EQ(b.jobs_per_region, a.jobs_per_region) << stag;
        EXPECT_EQ(b.makespan_seconds, a.makespan_seconds) << stag;
        ASSERT_EQ(b.jobs.size(), a.jobs.size()) << stag;
        for (std::size_t i = 0; i < a.jobs.size(); ++i) {
          EXPECT_EQ(b.jobs[i].job_id, a.jobs[i].job_id) << stag;
          EXPECT_EQ(b.jobs[i].exec_region, a.jobs[i].exec_region)
              << stag << " job " << i;
          EXPECT_EQ(b.jobs[i].start_time, a.jobs[i].start_time)
              << stag << " job " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ww::core
