// Graceful-degradation coverage for the scheduler (core/waterwise.hpp):
// the retry-then-degrade ladder never drops a job silently even when every
// MILP attempt is failed by injection, a chunk whose hard form fails Hall's
// condition solves only its soft form and counts the same fault events,
// injected failures stay byte-identical across solver thread counts, a
// total outage defers explicitly and places everything after the
// blackout, a chunk-solve exception surfaces fail-fast
// with chunk/window context, the per-region state machine walks
// Normal -> Degraded -> Recovery -> Normal with its hard-cap rails engaged,
// and under fault injection the controller sees the forecast bias while the
// ledger bills the truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "env/faults.hpp"
#include "sched/basic.hpp"
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
                                              double now = 0.0,
                                              double tol = 0.5) const {
    const FixedCapacity view(caps);
    dc::ScheduleContext ctx;
    ctx.now = now;
    ctx.tol = tol;
    ctx.footprint = &fp;
    ctx.capacity = &view;
    return ww.schedule(batch, ctx);
  }
};

TEST(RetryLadder, AllAttemptsInjectedStillPlacesEveryJobViaFallback) {
  // solve_failure_rate = 1 fails every rung that consults the predicate:
  // the probe result is discarded, the primary solve is discarded, the
  // relaxed-budget retry runs (and is discarded too), and the greedy
  // fallback must then place the whole chunk — never a silent drop.
  const DirectRig rig(12);
  WaterWiseConfig cfg;
  cfg.solve_failure_rate = 1.0;
  cfg.fault_seed = 1001;
  WaterWiseScheduler ww(cfg);
  const auto placed = rig.run(ww, {5, 5, 10, 5, 5});

  ASSERT_EQ(placed.size(), 12u);
  std::set<std::uint64_t> ids;
  for (const dc::Decision& d : placed) ids.insert(d.job_id);
  EXPECT_EQ(ids.size(), 12u) << "a job was placed twice";

  const SchedulerStats s = ww.stats();
  // One chunk (default max_jobs_per_solve), three injected discards on it
  // (post-probe, post-primary, post-retry), one budgeted retry, and every
  // placement from the greedy fallback.
  EXPECT_EQ(s.fault_events, 3);
  EXPECT_EQ(s.solve_retries, 1);
  EXPECT_EQ(s.fallback_placements, 12);
  EXPECT_EQ(s.deferred_jobs, 0);
}

/// The rig's whole batch as one chunk (index 0) at time 0 against `quota`:
/// the window snapshot, plan and context that solve_one and build_costs
/// read.  The scheduler must not weigh the history term.
struct Chunk {
  Chunk(const DirectRig& rig, const std::vector<int>& quota, double tol)
      : view(quota) {
    for (int r = 0; r < rig.env.num_regions(); ++r) {
      snapshot.intensity.push_back(rig.fp.sample(r, 0.0));
      snapshot.price.push_back(rig.env.electricity_price(r, 0.0));
      snapshot.history.push_back(0.0);
    }
    snapshot.fill_columns();
    for (const dc::PendingJob& p : rig.batch) plan.jobs.push_back(&p);
    plan.quota = quota;
    ctx.tol = tol;
    ctx.footprint = &rig.fp;
    ctx.capacity = &view;
  }
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  FixedCapacity view;
  WindowSnapshot snapshot;
  ChunkPlan plan;
  dc::ScheduleContext ctx;
};

TEST(RetryLadder, GreedyRungPlacesEachJobInItsLeastCostRegion) {
  // With every solve failed, the greedy rung places from the chunk's soft
  // form: the Eq. 8 cost plus penalty_rate * exceedance where the
  // exceedance is positive.  A heavy electricity-cost weight is a term a
  // ranking of regions by carbon and water intensity alone would miss.
  const DirectRig rig(12);
  WaterWiseConfig cfg;
  cfg.solve_failure_rate = 1.0;
  cfg.lambda_cost = 4.0;
  cfg.enable_history = false;  // the snapshot below needs no history term
  WaterWiseScheduler ww(cfg);
  const int n = rig.env.num_regions();
  // Room for every job in every region, so each takes its own best.
  const std::vector<int> caps(static_cast<std::size_t>(n), 12);
  const auto placed = rig.run(ww, caps);
  ASSERT_EQ(placed.size(), 12u);
  ASSERT_EQ(ww.stats().fallback_placements, 12);

  // The same window's one chunk again, through solve_one, for its model:
  // every attempt failed, so it holds the soft form.
  const Chunk chunk(rig, caps, 0.5);
  ChunkResult out;
  ww.solve_one(chunk.plan, chunk.ctx, chunk.snapshot, out);
  const ChunkWorkspace& ws = out.workspace;
  ASSERT_TRUE(ws.soft);
  ASSERT_EQ(ws.problem.cost.size(), static_cast<std::size_t>(12 * n));

  for (int j = 0; j < 12; ++j) {
    const auto soft_cost = [&](int r) {
      return ws.problem.cost[static_cast<std::size_t>(j * n + r)];
    };
    int best = 0;
    for (int r = 1; r < n; ++r)
      if (soft_cost(r) < soft_cost(best)) best = r;
    const dc::Decision& d = placed[static_cast<std::size_t>(j)];
    EXPECT_EQ(d.job_id, rig.jobs[static_cast<std::size_t>(j)].id);
    EXPECT_EQ(d.region, best) << "job " << j;
  }
}

/// solve_one on the rig's chunk against `quota`.
ChunkResult solve_chunk(const WaterWiseScheduler& ww, const DirectRig& rig,
                        const std::vector<int>& quota, double tol) {
  const Chunk chunk(rig, quota, tol);
  ChunkResult out;
  ww.solve_one(chunk.plan, chunk.ctx, chunk.snapshot, out);
  return out;
}

/// The rig's chunk model against `quota`: the hard form build_costs
/// writes, or the soft form after the in-place switch.
sched::TransportProblem chunk_form(const WaterWiseScheduler& ww,
                                   const DirectRig& rig,
                                   const std::vector<int>& quota, double tol,
                                   bool soft) {
  const Chunk chunk(rig, quota, tol);
  ChunkWorkspace ws;
  ww.build_costs(chunk.plan.jobs, quota, chunk.ctx, chunk.snapshot, ws);
  if (soft) ws.soften();
  return ws.problem;
}

TEST(RetryLadder, HallInfeasibleChunkSkipsTheHardProbe) {
  // 15 jobs homed in region 2, which has 10 free slots.  At tol 0 every
  // remote pair exceeds the delay allowance, so the hard form cannot place
  // five of them: Hall's condition rejects it and the chunk solves only
  // the soft form.
  const DirectRig rig(15);
  const int n = rig.env.num_regions();
  std::vector<int> quota(static_cast<std::size_t>(n), 15);
  quota[2] = 10;
  WaterWiseConfig cfg;
  cfg.enable_history = false;
  cfg.solve_failure_rate = 0.0;
  const WaterWiseScheduler ww(cfg);
  const ChunkResult out = solve_chunk(ww, rig, quota, 0.0);
  const ChunkWorkspace& ws = out.workspace;
  for (int j = 0; j < 15; ++j)
    for (int r = 0; r < n; ++r)
      ASSERT_EQ(ws.exceedance[static_cast<std::size_t>(j * n + r)] > 0.0,
                r != 2)
          << "job " << j << " region " << r;
  ASSERT_FALSE(
      sched::transport_assign(chunk_form(ww, rig, quota, 0.0, false))
          .optimal());

  EXPECT_EQ(out.stats.milp_solves, 1) << "the hard probe was solved";
  EXPECT_EQ(out.stats.soft_fallbacks, 1);
  EXPECT_EQ(out.stats.fault_events, 0);
  const sched::TransportSolution soft =
      sched::transport_assign(chunk_form(ww, rig, quota, 0.0, true));
  ASSERT_TRUE(soft.optimal());
  ASSERT_EQ(out.decisions.size(), 15u);
  for (std::size_t j = 0; j < 15; ++j) {
    EXPECT_EQ(out.decisions[j].job_id, rig.jobs[j].id);
    EXPECT_EQ(out.decisions[j].region, soft.region[j]) << "job " << j;
  }

  // A fault seed whose draw fails attempt 0 and spares attempt 1.  The
  // skipped probe still takes its draw, so the chunk counts the one fault
  // event a solved probe would have, and the soft solve places as before.
  WaterWiseConfig faulty = cfg;
  faulty.solve_failure_rate = 0.5;
  while (!env::injected_solve_failure(faulty.fault_seed, 0.0, 0, 0, 0.5) ||
         env::injected_solve_failure(faulty.fault_seed, 0.0, 0, 1, 0.5))
    ++faulty.fault_seed;
  const ChunkResult hit =
      solve_chunk(WaterWiseScheduler(faulty), rig, quota, 0.0);
  EXPECT_EQ(hit.stats.fault_events, 1);
  EXPECT_EQ(hit.stats.milp_solves, 1);
  EXPECT_EQ(hit.stats.soft_fallbacks, 1);
  EXPECT_EQ(hit.stats.solve_retries, 0);
  ASSERT_EQ(hit.decisions.size(), 15u);
  for (std::size_t j = 0; j < 15; ++j)
    EXPECT_EQ(hit.decisions[j].region, out.decisions[j].region);

  // With 15 slots at home the hard form fits: the probe is solved, and it
  // places every job at home.
  quota[2] = 15;
  const ChunkResult roomy =
      solve_chunk(WaterWiseScheduler(cfg), rig, quota, 0.0);
  EXPECT_EQ(roomy.stats.milp_solves, 1);
  EXPECT_EQ(roomy.stats.soft_fallbacks, 0);
  for (const dc::Decision& d : roomy.decisions) EXPECT_EQ(d.region, 2);
}

TEST(RetryLadder, RetryAfterAFailedSoftAttemptSolvesTheSoftFormOnce) {
  // The Hall-infeasible chunk above: the hard probe is skipped, and attempt
  // 1 switches the model to the soft form in place and solves it.  Under a
  // fault seed whose draw fails attempt 1 and spares attempts 0 and 2, the
  // ladder retries: the retry must solve exactly the soft costs (the
  // penalty is not added twice) and place as the fault-free solve does.
  const DirectRig rig(15);
  const int n = rig.env.num_regions();
  std::vector<int> quota(static_cast<std::size_t>(n), 15);
  quota[2] = 10;
  WaterWiseConfig cfg;
  cfg.enable_history = false;
  cfg.solve_failure_rate = 0.0;
  const ChunkResult clean =
      solve_chunk(WaterWiseScheduler(cfg), rig, quota, 0.0);
  ASSERT_EQ(clean.stats.milp_solves, 1);
  ASSERT_EQ(clean.decisions.size(), 15u);

  WaterWiseConfig faulty = cfg;
  faulty.solve_failure_rate = 0.5;
  while (env::injected_solve_failure(faulty.fault_seed, 0.0, 0, 0, 0.5) ||
         !env::injected_solve_failure(faulty.fault_seed, 0.0, 0, 1, 0.5) ||
         env::injected_solve_failure(faulty.fault_seed, 0.0, 0, 2, 0.5))
    ++faulty.fault_seed;
  const WaterWiseScheduler ww(faulty);
  const ChunkResult hit = solve_chunk(ww, rig, quota, 0.0);
  EXPECT_EQ(hit.stats.fault_events, 1);
  EXPECT_EQ(hit.stats.soft_fallbacks, 1);
  EXPECT_EQ(hit.stats.solve_retries, 1);
  EXPECT_EQ(hit.stats.milp_solves, 2) << "soft attempt and its retry";
  EXPECT_EQ(hit.stats.fallback_placements, 0);

  const ChunkWorkspace& ws = hit.workspace;
  ASSERT_TRUE(ws.soft);
  const sched::TransportProblem soft = chunk_form(ww, rig, quota, 0.0, true);
  EXPECT_EQ(ws.problem.cost, soft.cost);
  EXPECT_EQ(ws.problem.allowed, soft.allowed);
  ASSERT_EQ(hit.decisions.size(), clean.decisions.size());
  for (std::size_t j = 0; j < hit.decisions.size(); ++j) {
    EXPECT_EQ(hit.decisions[j].job_id, clean.decisions[j].job_id);
    EXPECT_EQ(hit.decisions[j].region, clean.decisions[j].region)
        << "job " << j;
    EXPECT_EQ(hit.decisions[j].start_time, clean.decisions[j].start_time)
        << "job " << j;
  }
}

TEST(RetryLadder, InjectedFailuresByteIdenticalAcrossThreadCounts) {
  const DirectRig rig(60);
  const std::vector<int> caps = {12, 12, 12, 12, 12};
  auto run = [&](int threads) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 7;  // many chunks per window
    cfg.solver_threads = threads;
    cfg.solve_failure_rate = 0.35;
    cfg.fault_seed = 1002;
    WaterWiseScheduler ww(cfg);
    auto decisions = rig.run(ww, caps);
    return std::make_pair(std::move(decisions), ww.stats());
  };

  const auto [ref, ref_stats] = run(1);
  EXPECT_GT(ref_stats.fault_events, 0) << "rate 0.35 injected nothing";
  for (const int threads : {2, 4}) {
    const auto [got, got_stats] = run(threads);
    ASSERT_EQ(got.size(), ref.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].job_id, ref[i].job_id) << "threads=" << threads;
      EXPECT_EQ(got[i].region, ref[i].region) << "threads=" << threads;
      EXPECT_EQ(got[i].start_time, ref[i].start_time) << "threads=" << threads;
      EXPECT_EQ(got[i].power_scale, ref[i].power_scale)
          << "threads=" << threads;
    }
    EXPECT_EQ(got_stats.fault_events, ref_stats.fault_events);
    EXPECT_EQ(got_stats.solve_retries, ref_stats.solve_retries);
    EXPECT_EQ(got_stats.fallback_placements, ref_stats.fallback_placements);
    EXPECT_EQ(got_stats.deferred_jobs, ref_stats.deferred_jobs);
    EXPECT_EQ(got_stats.milp_solves, ref_stats.milp_solves);
  }
}

TEST(TotalOutage, DefersExplicitlyAndPlacesEverythingAfterTheBlackout) {
  // Every region out for the first hour.  Jobs submitted at t=0 must all be
  // explicitly deferred (counted, not dropped) and then start after the
  // blackout lifts — placed-or-deferred must reconcile with the trace.
  env::FaultSchedule faults(5);
  for (int r = 0; r < 5; ++r) faults.add_outage(r, 0.0, 3600.0);

  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);

  const auto jobs = burst_trace(25, 0.0);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  sim_cfg.record_jobs = true;
  dc::Simulator sim(env, fp, sim_cfg);
  sim.set_fault_injection(&faults);

  WaterWiseScheduler ww;
  const dc::CampaignResult res = sim.run(jobs, ww);

  EXPECT_EQ(res.num_jobs, 25);
  ASSERT_EQ(res.jobs.size(), 25u);
  std::set<std::uint64_t> ids;
  for (const dc::JobOutcome& j : res.jobs) {
    ids.insert(j.job_id);
    EXPECT_GE(j.start_time, 3600.0)
        << "job " << j.job_id << " started inside the blackout";
  }
  EXPECT_EQ(ids.size(), 25u) << "a job was dropped or duplicated";
  EXPECT_GT(ww.stats().deferred_jobs, 0)
      << "blackout windows produced no explicit deferrals";
  // Note: degraded_windows stays 0 here by design — the outage starts at
  // t=0, so the state machine never observes healthy capacity to compare
  // against (max_capacity_seen is 0 throughout the blackout).  Transition
  // coverage lives in DegradedMode.StateMachineDegradesThenRecovers.
  EXPECT_EQ(ww.stats().degraded_windows, 0);
}

/// Baseline placement that records, at every window, the carbon intensity
/// of region 0 that the controller observes.
class ObservedCarbon final : public dc::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "observed-ci"; }
  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override {
    seen.emplace_back(ctx.now, ctx.footprint->sample(0, ctx.now).ci);
    return baseline_.schedule(batch, ctx);
  }
  std::vector<std::pair<double, double>> seen;  ///< (window, observed CI).

 private:
  sched::BaselineScheduler baseline_;
};

TEST(FaultInjection, ControllerSeesTheBiasWhileTheLedgerBillsTheTruth) {
  // A forecast bias on region 0 doubles the carbon intensity the controller
  // observes there.  The ledger bills the true intensities, so a policy
  // that ignores intensities pays the same with the bias as without it.
  env::FaultSchedule faults(5);
  faults.add_forecast_bias(0, 0.0, 1.0e9, 2.0, 1.5);
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  const auto jobs = burst_trace(3, 0.0, /*home=*/0);

  dc::Simulator clean(env, fp, sim_cfg);
  ObservedCarbon clean_rec;
  const dc::CampaignResult truth = clean.run(jobs, clean_rec);
  dc::Simulator biased(env, fp, sim_cfg);
  biased.set_fault_injection(&faults);
  ObservedCarbon rec;
  const dc::CampaignResult billed = biased.run(jobs, rec);

  ASSERT_FALSE(rec.seen.empty());
  ASSERT_EQ(rec.seen.size(), clean_rec.seen.size());
  for (std::size_t i = 0; i < rec.seen.size(); ++i) {
    const auto [t, ci] = rec.seen[i];
    EXPECT_EQ(ci, 2.0 * fp.sample(0, t).ci) << "t=" << t;
    EXPECT_EQ(clean_rec.seen[i].second, fp.sample(0, t).ci) << "t=" << t;
  }
  EXPECT_EQ(billed.num_jobs, 3);
  EXPECT_EQ(billed.total_carbon_g, truth.total_carbon_g);
  EXPECT_EQ(billed.total_water_l, truth.total_water_l);
}

TEST(ChunkFailFast, ExceptionInPooledSolveSurfacesWithChunkContext) {
  // A throwing chunk solve must abort the window with the failing chunk's
  // index and the window time in the message — identically at every thread
  // count (no hang, no silent partial commit).  A NaN energy estimate on
  // one job of chunk 1 makes that chunk's costs non-finite, and the
  // transportation solver rejects them.
  for (const int threads : {1, 2, 4}) {
    DirectRig rig(12);
    rig.batch[5].est_energy_kwh = std::numeric_limits<double>::quiet_NaN();
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 4;  // 12 jobs -> 3 chunks; job 5 is in chunk 1
    cfg.solver_threads = threads;
    WaterWiseScheduler ww(cfg);
    try {
      (void)rig.run(ww, {5, 5, 10, 5, 5});
      FAIL() << "chunk exception swallowed at threads=" << threads;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("chunk 1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("allowed cost is not finite"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("t="), std::string::npos) << msg;
    }
  }
}

TEST(DegradedMode, StateMachineDegradesThenRecoversWithCapRails) {
  // Drive the per-region state machine directly with 60-second windows:
  // two blackout windows degrade every region, the first clean windows keep
  // the 25% degraded rail on, recovery ramps at 50%, and a fully recovered
  // scheduler places an entire burst again.
  const DirectRig rig(40);
  WaterWiseScheduler ww;
  const std::vector<dc::PendingJob> empty;
  const std::vector<int> up(5, 10);
  const std::vector<int> down(5, 0);

  auto observe = [&](const std::vector<int>& caps, double now) {
    const FixedCapacity view(caps);
    dc::ScheduleContext ctx;
    ctx.now = now;
    ctx.tol = 0.5;
    ctx.footprint = &rig.fp;
    ctx.capacity = &view;
    return ww.schedule(empty, ctx);
  };

  (void)observe(up, 0.0);  // learn max capacity; all Normal
  EXPECT_EQ(ww.stats().fault_events, 0);
  (void)observe(down, 60.0);  // outage everywhere -> Degraded
  EXPECT_EQ(ww.stats().fault_events, 5);
  EXPECT_EQ(ww.stats().degraded_windows, 5);
  (void)observe(down, 120.0);
  EXPECT_EQ(ww.stats().fault_events, 10);

  // First clean window: still Degraded, so the 25% rail caps each region at
  // floor(0.25 * 10) = 2 -> at most 10 of the 40 burst jobs place, and the
  // remaining 30+ are explicit deferrals.
  const long deferred_before = ww.stats().deferred_jobs;
  const auto degraded_placements = rig.run(ww, up, 180.0);
  EXPECT_LE(degraded_placements.size(), 10u);
  EXPECT_GE(ww.stats().deferred_jobs - deferred_before, 30L);

  (void)observe(up, 240.0);
  const long degraded_windows_peak = ww.stats().degraded_windows;
  (void)observe(up, 300.0);  // third clean window -> Recovery
  (void)observe(up, 360.0);
  (void)observe(up, 420.0);
  (void)observe(up, 480.0);  // recovery_windows elapsed -> Normal
  EXPECT_EQ(ww.stats().degraded_windows, degraded_windows_peak)
      << "degraded-window counter kept growing after recovery began";

  // Fully recovered: the same burst now places in full under the same caps.
  const auto recovered = rig.run(ww, up, 540.0);
  EXPECT_EQ(recovered.size(), 40u);
  EXPECT_EQ(ww.stats().fault_events, 10)
      << "recovery windows raised spurious fault events";
}

}  // namespace
}  // namespace ww::core
