// Contention stress for the work-stealing pool and the chunk-parallel
// scheduler, written to give ThreadSanitizer real interleavings to chew
// on: worker counts oversubscribe the cores on purpose, tasks are tiny so
// the deque locks are hot, nested parallel_for loops reproduce the
// scenario x chunk fan-out on one shared pool, and every result is still checked
// byte-identical against a serial run.  The TSan CI job runs this suite
// (default plus WW_SCHED_THREADS=2 and =4 reruns); under ASan/Release it
// doubles as a functional oversubscription test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/campaign_runner.hpp"
#include "dc/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "util/work_steal.hpp"

namespace ww::core {
namespace {

std::size_t oversubscribed() {
  // 4x the cores, at least 8: enough that workers genuinely preempt each
  // other even on a 1-core CI runner.
  return std::max<std::size_t>(
      8, 4 * util::WorkStealingPool::resolve_threads(0));
}

TEST(WorkStealContention, TinyTasksUnderOversubscription) {
  // Many tasks, each a few nanoseconds of work: the deque lock and the
  // notify/park handoff are the program.  Disjoint slots catch lost or
  // duplicated tasks; the atomic total catches torn accumulation.
  util::WorkStealingPool pool(oversubscribed());
  constexpr std::size_t kTasks = 4000;
  std::vector<int> slot(kTasks, 0);
  std::atomic<long> total{0};
  pool.parallel_for(kTasks, [&](std::size_t i) {
    slot[i] += 1;  // disjoint per-index writes, no lock needed
    total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(slot[i], 1);
  EXPECT_EQ(total.load(),
            static_cast<long>(kTasks) * (static_cast<long>(kTasks) - 1) / 2);
}

TEST(WorkStealContention, NestedFanOutScenarioTimesChunkShape) {
  // The unified-pool replacement for the old nested-pool case: one pool,
  // an outer parallel_for fanning "scenarios", each scenario task fanning
  // its "chunk" subtasks into the *same* pool through a nested parallel_for
  // and helping while it waits.  With only 4 workers for 6 x 32 tasks,
  // every join must help or this deadlocks — stealing and helping are
  // exercised hard, and the per-slot commits stay index-ordered.
  util::WorkStealingPool pool(4);
  constexpr std::size_t kScenarios = 6;
  constexpr std::size_t kChunks = 32;
  std::vector<long> scenario_sum(kScenarios, 0);
  pool.parallel_for(kScenarios, [&pool, &scenario_sum](std::size_t s) {
    std::vector<long> chunk(kChunks, 0);
    pool.parallel_for(kChunks, [&chunk, s](std::size_t c) {
      chunk[c] = static_cast<long>(s * 1000 + c);
    });
    long sum = 0;
    for (const long v : chunk) sum += v;
    scenario_sum[s] = sum;  // disjoint per-scenario slot
  });
  for (std::size_t s = 0; s < kScenarios; ++s) {
    const long base = static_cast<long>(s) * 1000 * kChunks;
    const long tail = kChunks * (kChunks - 1) / 2;
    EXPECT_EQ(scenario_sum[s], base + tail) << "scenario " << s;
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealContention, ReusedPoolAcrossManyWaves) {
  // The process keeps one global pool alive across batch windows; hammer
  // that pattern: many short parallel_for waves on one pool, with the
  // wave count high enough that workers go idle and get re-woken
  // constantly (the notify/wait edge is where lost-wakeup bugs live).
  util::WorkStealingPool pool(oversubscribed());
  std::atomic<long> hits{0};
  for (int wave = 0; wave < 200; ++wave) {
    pool.parallel_for(17, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(hits.load(), 200L * 17);
}

// --- Scheduler contention: many small windows, oversubscribed solvers. ----

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 3;
  return cfg;
}

std::vector<trace::Job> burst_trace(int count, double at, int home = 2) {
  std::vector<trace::Job> jobs;
  util::Rng rng(7);
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

TEST(SchedulerContention, ManySmallWindowsOversubscribedMatchesSerial) {
  // Many consecutive batch windows, each split into many tiny chunks
  // (max_jobs_per_solve = 3), solved with far more solver threads than
  // cores.  The scheduler is stateful across windows (history learner,
  // lifetime stats), so the whole window *sequence* must match the serial
  // scheduler's, not just each window in isolation.
  const env::Environment env = env::Environment::builtin(small_env());
  const footprint::FootprintModel fp(env);
  const auto jobs = burst_trace(24, 0.0);
  std::vector<dc::PendingJob> batch;
  batch.reserve(jobs.size());
  for (const trace::Job& j : jobs) {
    dc::PendingJob p;
    p.job = &j;
    p.first_seen = 0.0;
    p.est_exec_s = j.exec_seconds > 0.0 ? j.exec_seconds : 100.0;
    p.est_energy_kwh = 1.0;
    batch.push_back(p);
  }
  const FixedCapacity view({9, 4, 14, 6, 2});

  const auto run_windows = [&](int threads) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 3;
    cfg.solver_threads = threads;
    WaterWiseScheduler ww(cfg);
    std::vector<dc::Decision> stream;
    for (int window = 0; window < 12; ++window) {
      dc::ScheduleContext ctx;
      ctx.now = 60.0 * window;
      ctx.tol = 0.5;
      ctx.footprint = &fp;
      ctx.capacity = &view;
      const auto decisions = ww.schedule(batch, ctx);
      stream.insert(stream.end(), decisions.begin(), decisions.end());
    }
    EXPECT_GT(ww.stats().chunks_planned, 12L) << "threads=" << threads;
    return stream;
  };

  const auto serial = run_windows(1);
  const auto parallel =
      run_windows(static_cast<int>(oversubscribed()));
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].job_id, parallel[i].job_id) << "decision " << i;
    EXPECT_EQ(serial[i].region, parallel[i].region) << "decision " << i;
    EXPECT_EQ(serial[i].start_time, parallel[i].start_time)
        << "decision " << i;
    EXPECT_EQ(serial[i].power_scale, parallel[i].power_scale)
        << "decision " << i;
  }
}

TEST(SchedulerContention, CampaignOverOversubscribedSchedulersMatchesSerial) {
  // Scenario fan-out x chunk fan-out at once: a CampaignRunner drives
  // parallel scenarios, each running a Simulator whose WaterWise scheduler
  // itself fans chunks — all onto the one global work-stealing pool, with
  // the worker floor pushed far past the core count.  This is the K*C
  // shape that motivated the unified pool, and the reason the TSan job
  // exists: index-ordered commits are the only thing standing between
  // steal/completion order and the output stream.
  const auto jobs = burst_trace(30, 0.0);
  const auto run_campaign = [&](std::size_t campaign_jobs,
                                int solver_threads) {
    dc::CampaignConfig cfg;
    cfg.jobs = campaign_jobs;
    cfg.seed = 11;
    dc::CampaignRunner runner(cfg);
    for (int s = 0; s < 4; ++s) {
      const double tol = 0.25 * (s + 1);
      runner.add("tol" + std::to_string(s), [&, tol](dc::ScenarioContext&) {
        const env::Environment env = env::Environment::builtin(small_env());
        const footprint::FootprintModel fp(env);
        WaterWiseConfig wcfg;
        wcfg.max_jobs_per_solve = 4;
        wcfg.solver_threads = solver_threads;
        WaterWiseScheduler ww(wcfg);
        dc::SimConfig sim_cfg;
        sim_cfg.tol = tol;
        dc::Simulator sim(env, fp, sim_cfg);
        return sim.run(jobs, ww);
      });
    }
    return runner.run_all();
  };

  const auto serial = run_campaign(1, 1);
  const auto nested =
      run_campaign(4, static_cast<int>(oversubscribed()) / 2);
  ASSERT_EQ(serial.size(), nested.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const dc::CampaignResult& a = serial[i].result;
    const dc::CampaignResult& b = nested[i].result;
    EXPECT_EQ(a.num_jobs, b.num_jobs) << serial[i].label;
    EXPECT_EQ(a.total_carbon_g, b.total_carbon_g) << serial[i].label;
    EXPECT_EQ(a.total_water_l, b.total_water_l) << serial[i].label;
    EXPECT_EQ(a.violations, b.violations) << serial[i].label;
    EXPECT_EQ(a.jobs_per_region, b.jobs_per_region) << serial[i].label;
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds) << serial[i].label;
  }
}

}  // namespace
}  // namespace ww::core
