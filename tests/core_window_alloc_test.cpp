// Heap-allocation budget of a steady-state batch window.  This binary
// replaces the global operator new/delete with counting forwarders to
// malloc/free, replays a short Borg trace through the Simulator and the
// WaterWise scheduler, and checks two budgets after 100 warm-up windows:
//   - a single-chunk schedule() call allocates at most once (the decision
//     vector it returns).  The scheduler's buffers grow to the largest
//     batch seen, so a window whose batch is larger than every earlier one
//     may grow them; the test counts those windows and requires them to be
//     rare instead of allocation-free;
//   - the simulator's own work outside schedule() allocates less than 0.05
//     times per window (amortized vector growth only).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "trace/generator.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ww::core {
namespace {

constexpr long kWarmupWindows = 100;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Forwards to WaterWise and counts the allocations made inside each
/// schedule() call after warm-up.  Allocates nothing itself.
class CountingScheduler final : public dc::Scheduler {
 public:
  explicit CountingScheduler(WaterWiseScheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override {
    ++windows;
    if (windows == kWarmupWindows + 1) at_warm = allocations();
    const bool grows = batch.size() > largest_batch;
    largest_batch = std::max(largest_batch, batch.size());
    const SchedulerStats before = inner_.stats();
    const std::size_t start = allocations();
    std::vector<dc::Decision> decisions = inner_.schedule(batch, ctx);
    const std::size_t used = allocations() - start;
    const SchedulerStats after = inner_.stats();
    if (windows <= kWarmupWindows) return decisions;
    inside += used;
    // Single-chunk windows: one chunk, no spill re-solve, and no deferral
    // (so the slack manager did not run).
    if (after.chunks_planned - before.chunks_planned == 1 &&
        after.spill_resolves == before.spill_resolves &&
        after.deferred_jobs == before.deferred_jobs) {
      if (grows)
        ++growth_windows;
      else
        max_single_chunk = std::max(max_single_chunk, used);
      ++single_chunk_windows;
    }
    return decisions;
  }

  void on_job_finished(const trace::Job& job) override {
    inner_.on_job_finished(job);
  }

  void on_window_timed(double seconds) override {
    inner_.on_window_timed(seconds);
  }

  long windows = 0;
  std::size_t at_warm = 0;  ///< Allocation count when window 101 began.
  std::size_t inside = 0;   ///< Allocations inside schedule() after warm-up.
  long single_chunk_windows = 0;
  /// Single-chunk windows whose batch exceeded every earlier batch.
  long growth_windows = 0;
  /// Most allocations in one other single-chunk window.
  std::size_t max_single_chunk = 0;
  std::size_t largest_batch = 0;

 private:
  WaterWiseScheduler& inner_;
};

TEST(WindowAllocations, SteadyStateWindowsStayWithinBudget) {
#ifndef NDEBUG
  GTEST_SKIP() << "builds without NDEBUG certify every transport solve, and "
                  "the certificate check allocates";
#endif
  env::EnvironmentConfig env_cfg;
  env_cfg.horizon_days = 10;
  const env::Environment env = env::Environment::builtin(env_cfg);
  const footprint::FootprintModel fp(env);
  const std::vector<trace::Job> jobs =
      trace::generate_trace(trace::borg_config(5, 0.25));

  WaterWiseConfig cfg;
  cfg.solve_failure_rate = 0.0;  // the injected-failure ladder allocates
  WaterWiseScheduler ww(cfg);
  CountingScheduler counting(ww);
  dc::Simulator sim(env, fp, dc::SimConfig{});
  const dc::CampaignResult result = sim.run(jobs, counting);
  const std::size_t total = allocations() - counting.at_warm;

  ASSERT_EQ(result.num_jobs, static_cast<long>(jobs.size()));
  const long steady = counting.windows - kWarmupWindows;
  ASSERT_GT(steady, 1000);
  EXPECT_GT(counting.single_chunk_windows, steady * 9 / 10);
  EXPECT_LT(counting.growth_windows * 100, steady);
  EXPECT_LE(counting.max_single_chunk, 1u);
  const double sim_per_window =
      static_cast<double>(total - counting.inside) /
      static_cast<double>(steady);
  EXPECT_LT(sim_per_window, 0.05)
      << total - counting.inside << " simulator allocations over " << steady
      << " windows";
}

}  // namespace
}  // namespace ww::core
