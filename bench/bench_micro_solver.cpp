// Microbenchmarks (google-benchmark): MILP solve latency at WaterWise batch
// sizes, capacity-timeline operations, and footprint evaluation — the hot
// paths behind the Fig. 13 overhead numbers.
//
// Before the benchmark loop runs, three self-checks gate the binary (exit
// nonzero on regression, so the CI smoke run catches rot):
//   1. warm-start: a branching-heavy corpus solved warm vs. cold must keep
//      >= 90% of non-root nodes warm-started with identical objectives;
//   2. presolve: every corpus family solved with presolve on vs. off must
//      agree on status and objective, so the ablation path cannot drift;
//   3. factor update: every corpus family solved with Forrest-Tomlin
//      updates vs. refactorize-every-pivot must agree, so the update
//      algebra cannot drift from the from-scratch factorization.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "dc/capacity_timeline.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/instances.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace ww;

/// Branching-heavy instance shared with tests/milp_warm_start_test.cpp (via
/// milp/instances.hpp) so the bench self-check and the test corpus exercise
/// the exact same weak-relaxation pathology.
milp::Model branching_heavy_model(int jobs, int regions) {
  const double cap = std::ceil(jobs / static_cast<double>(regions)) + 1.0;
  return milp::weak_relaxation_model(jobs, regions, cap, /*seed=*/7);
}

/// Verifies the warm-start acceptance bar before benchmarks run; exits
/// nonzero on any regression so CI smoke runs catch it.
void warm_start_selfcheck() {
  long warm_total = 0;
  long non_root_total = 0;
  bool ok = true;
  for (const int jobs : {10, 16, 24}) {
    const milp::Model model = branching_heavy_model(jobs, 3);
    milp::SolverOptions warm_opts;  // warm_start defaults on
    const milp::Solution warm = milp::solve(model, warm_opts);
    milp::SolverOptions cold_opts;
    cold_opts.warm_start = false;
    const milp::Solution cold = milp::solve(model, cold_opts);
    if (warm.status != milp::Status::Optimal ||
        cold.status != milp::Status::Optimal ||
        std::abs(warm.objective - cold.objective) > 1e-7) {
      std::fprintf(stderr,
                   "warm-start self-check FAILED (jobs=%d): warm %s %.9f vs "
                   "cold %s %.9f\n",
                   jobs, milp::to_string(warm.status).c_str(), warm.objective,
                   milp::to_string(cold.status).c_str(), cold.objective);
      ok = false;
      continue;
    }
    warm_total += warm.warm_started_nodes;
    non_root_total += warm.nodes_explored - 1;
  }
  if (non_root_total == 0) {
    // A corpus that never branches would make the check pass vacuously —
    // the exact rot this gate exists to catch.
    std::fprintf(stderr,
                 "warm-start self-check FAILED: corpus produced no non-root "
                 "nodes, warm path unexercised\n");
    ok = false;
  }
  const double frac = non_root_total > 0
                          ? static_cast<double>(warm_total) /
                                static_cast<double>(non_root_total)
                          : 0.0;
  std::printf(
      "warm-start self-check: %ld/%ld non-root nodes warm-started (%.1f%%), "
      "objectives identical to cold solver\n",
      warm_total, non_root_total, 100.0 * frac);
  if (frac < 0.9) {
    std::fprintf(stderr, "warm-start self-check FAILED: %.1f%% < 90%%\n",
                 100.0 * frac);
    ok = false;
  }
  if (!ok) std::exit(1);
}

/// Solves every corpus family with presolve on and off and verifies the
/// answers agree; exits nonzero on divergence so the ablation path (and the
/// postsolve mapping) cannot rot unnoticed.
void presolve_selfcheck() {
  struct Case {
    const char* name;
    milp::Model model;
  };
  const Case corpus[] = {
      {"shaped-64x5", milp::waterwise_shaped_model(64, 5)},
      {"hard-chunk-200x5", milp::hard_chunk_model(200, 5, 0.4)},
      {"soft-chunk-100x5", milp::soft_chunk_model(100, 5)},
      {"weak-relax-16x3", milp::weak_relaxation_model(16, 3, 7.0)},
  };
  bool ok = true;
  long rows_removed = 0;
  long cols_removed = 0;
  for (const Case& c : corpus) {
    milp::SolverOptions on_opts;
    on_opts.presolve = true;
    milp::SolverOptions off_opts;
    off_opts.presolve = false;
    const milp::Solution on = milp::solve(c.model, on_opts);
    const milp::Solution off = milp::solve(c.model, off_opts);
    if (on.status != off.status ||
        std::abs(on.objective - off.objective) > 1e-7 ||
        c.model.max_violation(on.values) > 1e-6) {
      std::fprintf(stderr,
                   "presolve self-check FAILED (%s): on %s %.9f (viol %.2e) "
                   "vs off %s %.9f\n",
                   c.name, milp::to_string(on.status).c_str(), on.objective,
                   c.model.max_violation(on.values),
                   milp::to_string(off.status).c_str(), off.objective);
      ok = false;
      continue;
    }
    rows_removed += on.presolve_rows_removed;
    cols_removed += on.presolve_cols_removed;
  }
  if (rows_removed + cols_removed == 0) {
    // A corpus presolve never touches would make this check vacuous.
    std::fprintf(stderr,
                 "presolve self-check FAILED: corpus produced no "
                 "reductions, presolve path unexercised\n");
    ok = false;
  }
  std::printf(
      "presolve self-check: on == off across the corpus (%ld rows, %ld cols "
      "removed), postsolve feasible\n",
      rows_removed, cols_removed);
  if (!ok) std::exit(1);
}

/// Solves every corpus family with Forrest-Tomlin updates (the default
/// kernel) and with a zero update budget (refactorize after every pivot)
/// and verifies the answers agree; exits nonzero on divergence so the
/// update algebra cannot drift from fresh factorizations unnoticed.
/// Mirrors the presolve self-check, including the vacuousness guard.
void factor_update_selfcheck() {
  struct Case {
    const char* name;
    milp::Model model;
  };
  const Case corpus[] = {
      {"shaped-64x5", milp::waterwise_shaped_model(64, 5)},
      {"hard-chunk-200x5", milp::hard_chunk_model(200, 5, 0.4)},
      {"soft-chunk-100x5", milp::soft_chunk_model(100, 5)},
      {"weak-relax-16x3", milp::weak_relaxation_model(16, 3, 7.0)},
  };
  bool ok = true;
  long ft_total = 0;
  long refactor_total = 0;
  for (const Case& c : corpus) {
    milp::SolverOptions ft_opts;  // update_budget defaults to the FT path
    milp::SolverOptions every_opts;
    every_opts.update_budget = 0;
    const milp::Solution ft = milp::solve(c.model, ft_opts);
    const milp::Solution every = milp::solve(c.model, every_opts);
    if (ft.status != every.status ||
        std::abs(ft.objective - every.objective) > 1e-7 ||
        c.model.max_violation(ft.values) > 1e-6) {
      std::fprintf(stderr,
                   "factor-update self-check FAILED (%s): ft %s %.9f "
                   "(viol %.2e) vs refactorize-every-pivot %s %.9f\n",
                   c.name, milp::to_string(ft.status).c_str(), ft.objective,
                   c.model.max_violation(ft.values),
                   milp::to_string(every.status).c_str(), every.objective);
      ok = false;
      continue;
    }
    ft_total += ft.ft_updates;
    refactor_total += every.refactorizations;
  }
  if (ft_total == 0 && !milp::refactor_every_pivot_forced()) {
    // A corpus that never absorbs an update would make this check vacuous
    // (under WW_REFACTOR_EVERY_PIVOT both sides legitimately refactorize).
    std::fprintf(stderr,
                 "factor-update self-check FAILED: corpus absorbed no "
                 "Forrest-Tomlin updates, update path unexercised\n");
    ok = false;
  }
  std::printf(
      "factor-update self-check: ft == refactorize-every-pivot across the "
      "corpus (%ld updates vs %ld refactorizations)\n",
      ft_total, refactor_total);
  if (!ok) std::exit(1);
}

void solve_with_counters(benchmark::State& state, const milp::Model& model,
                         const milp::SolverOptions& opts) {
  long nodes = 0;
  long warm = 0;
  long phase1 = 0;
  long iters = 0;
  long pre_rows = 0;
  long pre_cols = 0;
  long ft_updates = 0;
  long refactor = 0;
  for (auto _ : state) {
    const milp::Solution sol = milp::solve(model, opts);
    benchmark::DoNotOptimize(sol.objective);
    if (!sol.usable()) state.SkipWithError("solver failed");
    nodes += sol.nodes_explored;
    warm += sol.warm_started_nodes;
    phase1 += sol.phase1_nodes;
    iters += sol.simplex_iterations;
    pre_rows += sol.presolve_rows_removed;
    pre_cols += sol.presolve_cols_removed;
    ft_updates += sol.ft_updates;
    refactor += sol.refactorizations;
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
  state.counters["warm"] =
      benchmark::Counter(static_cast<double>(warm), benchmark::Counter::kAvgIterations);
  state.counters["phase1"] =
      benchmark::Counter(static_cast<double>(phase1), benchmark::Counter::kAvgIterations);
  state.counters["simplex_it"] =
      benchmark::Counter(static_cast<double>(iters), benchmark::Counter::kAvgIterations);
  state.counters["pre_rows"] =
      benchmark::Counter(static_cast<double>(pre_rows), benchmark::Counter::kAvgIterations);
  state.counters["pre_cols"] =
      benchmark::Counter(static_cast<double>(pre_cols), benchmark::Counter::kAvgIterations);
  state.counters["ft_updates"] =
      benchmark::Counter(static_cast<double>(ft_updates), benchmark::Counter::kAvgIterations);
  state.counters["refactor"] =
      benchmark::Counter(static_cast<double>(refactor), benchmark::Counter::kAvgIterations);
}

void BM_MilpSolveBatch(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const milp::Model model = milp::waterwise_shaped_model(jobs, 5);
  solve_with_counters(state, model, {});
  state.SetLabel(std::to_string(jobs) + " jobs x 5 regions");
}
// 200 jobs x 5 regions is 405 rows — the ">= 400 rows" scale the sparse
// kernel's speedup acceptance bar is measured at.
BENCHMARK(BM_MilpSolveBatch)->Arg(8)->Arg(16)->Arg(64)->Arg(128)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_MilpSolveLargeChunk(benchmark::State& state) {
  // The paper-scale hard model: a full 400-job chunk over 10 regions
  // (810 rows, ~4 nonzeros per column).  The dense kernel took ~1.2 s per
  // solve here; the sparse LU kernel is expected well under a third of it.
  const int jobs = static_cast<int>(state.range(0));
  const milp::Model model = milp::waterwise_shaped_model(jobs, 10);
  solve_with_counters(state, model, {});
  state.SetLabel(std::to_string(jobs) + " jobs x 10 regions");
}
BENCHMARK(BM_MilpSolveLargeChunk)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_MilpSolveHardChunk(benchmark::State& state) {
  // The hard chunk model exactly as the scheduler emits it: delay handled
  // by x_mn = 0 bound fixings (40% of remote pairs).  This is presolve's
  // home turf — fixed columns substitute out, emptied capacity rows drop —
  // so the on/off pair below is the per-solve presolve speedup bar at
  // 405/810 rows.
  const int jobs = static_cast<int>(state.range(0));
  const int regions = static_cast<int>(state.range(1));
  const milp::Model model = milp::hard_chunk_model(jobs, regions, 0.4);
  milp::SolverOptions opts;
  opts.presolve = state.range(2) != 0;
  solve_with_counters(state, model, opts);
  state.SetLabel(std::to_string(jobs) + " jobs x " + std::to_string(regions) +
                 " regions, presolve " + (state.range(2) ? "on" : "off"));
}
BENCHMARK(BM_MilpSolveHardChunk)
    ->Args({200, 5, 1})->Args({200, 5, 0})
    ->Args({400, 10, 1})->Args({400, 10, 0})
    ->Unit(benchmark::kMillisecond);

void BM_MilpSolveSoftChunk(benchmark::State& state) {
  // The unfolded soft model at paper scale: a full chunk whose delay rows
  // all softened (Eq. 12-13) as per-pair penalty columns and rows, ~3800
  // rows at 400 x 10.  The scheduler folds those penalties into the
  // assignment costs (the BM_MilpSolveHardChunk shape); this stays as a
  // large-row solver stress case.
  const int jobs = static_cast<int>(state.range(0));
  const int regions = static_cast<int>(state.range(1));
  const milp::Model model = milp::soft_chunk_model(jobs, regions);
  milp::SolverOptions opts;
  opts.presolve = state.range(2) != 0;
  solve_with_counters(state, model, opts);
  state.SetLabel(std::to_string(jobs) + " jobs x " + std::to_string(regions) +
                 " regions soft, presolve " + (state.range(2) ? "on" : "off"));
}
BENCHMARK(BM_MilpSolveSoftChunk)
    ->Args({400, 10, 1})->Args({400, 10, 0})
    ->Unit(benchmark::kMillisecond);

void BM_MilpLongPivotRun(benchmark::State& state) {
  // The flatness witness for the Forrest-Tomlin kernel: the 810-row hard
  // chunk solved raw (presolve off so the pivot run is long) with the
  // default update budget vs. a single factorization carrying the whole
  // ~2000-pivot run.  Under the product-form eta file this replaced, the
  // unbounded case ground to a halt as every ftran/btran dragged the whole
  // eta file; with in-place updates the two times should be comparable —
  // the ft_updates counter shows the run length.
  const milp::Model model = milp::hard_chunk_model(400, 10, 0.4);
  milp::SolverOptions opts;
  opts.presolve = false;
  if (state.range(0) == 0) {
    opts.update_budget = 1 << 20;
    opts.refactor_interval = 1 << 20;
    opts.fill_growth_limit = 1e9;
  }
  solve_with_counters(state, model, opts);
  state.SetLabel(state.range(0) == 0 ? "one factorization, unbounded updates"
                                     : "default budget/fill triggers");
}
BENCHMARK(BM_MilpLongPivotRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MilpPricingRule(benchmark::State& state) {
  // Devex-vs-Dantzig iteration/latency trade at a mid scheduler scale.
  const milp::Model model = milp::waterwise_shaped_model(128, 5);
  milp::SolverOptions opts;
  opts.pricing = state.range(0) == 0 ? milp::Pricing::Devex
                                     : milp::Pricing::Dantzig;
  solve_with_counters(state, model, opts);
  state.SetLabel(state.range(0) == 0 ? "devex" : "dantzig");
}
BENCHMARK(BM_MilpPricingRule)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MilpBranchingWarm(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const milp::Model model = branching_heavy_model(jobs, 3);
  solve_with_counters(state, model, {});
  state.SetLabel(std::to_string(jobs) + " jobs x 3 regions, warm");
}
BENCHMARK(BM_MilpBranchingWarm)->Arg(10)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_MilpBranchingCold(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const milp::Model model = branching_heavy_model(jobs, 3);
  milp::SolverOptions opts;
  opts.warm_start = false;
  solve_with_counters(state, model, opts);
  state.SetLabel(std::to_string(jobs) + " jobs x 3 regions, cold");
}
BENCHMARK(BM_MilpBranchingCold)->Arg(10)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_CapacityTimelineReserve(benchmark::State& state) {
  for (auto _ : state) {
    dc::CapacityTimeline tl(64);
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
      tl.reserve(t, t + 100.0);
      t += 5.0;
      if (i % 64 == 0) tl.prune(t - 200.0);
    }
    benchmark::DoNotOptimize(tl.occupancy_at(t));
  }
}
BENCHMARK(BM_CapacityTimelineReserve)->Unit(benchmark::kMicrosecond);

void BM_FootprintIntegration(benchmark::State& state) {
  const env::Environment env = env::Environment::builtin();
  const footprint::FootprintModel fp(env);
  double t = 0.0;
  for (auto _ : state) {
    const footprint::Breakdown b = fp.job_integrated(2, t, 4000.0, 0.3);
    benchmark::DoNotOptimize(b.carbon_g());
    t += 977.0;
  }
}
BENCHMARK(BM_FootprintIntegration)->Unit(benchmark::kMicrosecond);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // The cost a span leaves on an untraced hot path: one relaxed atomic
  // load in the constructor, one in the destructor.  This is the number
  // the bench_fig13 5% overhead gate ultimately rests on.
  obs::Trace::instance().set_enabled(false);
  for (auto _ : state) {
    obs::Span span("bench.noop");
    span.arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  // Full emission path: two timestamped events plus one integer arg,
  // through the per-thread buffer's mutex.  Buffers are cleared each
  // iteration batch so the 1M-event cap never engages mid-measurement.
  obs::Trace::instance().set_enabled(true);
  for (auto _ : state) {
    obs::Span span("bench.emit");
    span.arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
  obs::Trace::instance().set_enabled(false);
  obs::Trace::instance().clear();
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsRegistryCounterAdd(benchmark::State& state) {
  obs::Registry registry;
  const obs::Counter c = registry.counter("bench.counter");
  for (auto _ : state) registry.add(c);
  benchmark::DoNotOptimize(registry.counter_value(c));
}
BENCHMARK(BM_ObsRegistryCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  const obs::Hist h = registry.histogram("bench.hist", 0.0, 2048.0, 64);
  double v = 0.0;
  for (auto _ : state) {
    registry.observe(h, v);
    v += 17.0;
    if (v >= 2048.0) v -= 2048.0;
  }
  benchmark::DoNotOptimize(registry.hist(h).total());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_EnvironmentQuery(benchmark::State& state) {
  const env::Environment env = env::Environment::builtin();
  double t = 0.0;
  int region = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += env.water_intensity(region, t);
    region = (region + 1) % 5;
    t += 313.0;
    // Wrap within a simulated year: at benchmark-scale iteration counts an
    // unbounded t overflows int in downstream index math.
    if (t > 31536000.0) t = 0.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EnvironmentQuery);

}  // namespace

int main(int argc, char** argv) {
  warm_start_selfcheck();
  presolve_selfcheck();
  factor_update_selfcheck();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
