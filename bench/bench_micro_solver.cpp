// Microbenchmarks (google-benchmark): the scheduler's chunk solve
// (sched::transport_assign) at WaterWise chunk sizes, capacity-timeline
// operations, footprint evaluation and the observability primitives — the
// hot paths behind the Fig. 13 overhead numbers.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "dc/capacity_timeline.hpp"
#include "env/environment.hpp"
#include "footprint/footprint.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sched/transport.hpp"
#include "util/rng.hpp"

namespace {

using namespace ww;

/// A seeded scheduler-shaped chunk: costs in [0.1, 2.0] plus the
/// scheduler's 1e-9 * (j * n + r) tie-break, each job allowed in its home
/// region (j mod n) and in each other region with probability 0.7, and
/// every quota at least the region's home-job count, so the chunk is
/// feasible.
sched::TransportProblem random_chunk(int jobs, int regions,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  sched::TransportProblem p;
  p.jobs = jobs;
  const double share = std::ceil(static_cast<double>(jobs) / regions);
  for (int r = 0; r < regions; ++r)
    p.quota.push_back(
        static_cast<int>(std::ceil(share * rng.uniform(1.0, 1.5))));
  const auto cells = static_cast<std::size_t>(jobs) *
                     static_cast<std::size_t>(regions);
  p.cost.resize(cells);
  p.allowed.resize(cells);
  for (int j = 0; j < jobs; ++j) {
    for (int r = 0; r < regions; ++r) {
      const auto i = static_cast<std::size_t>(j * regions + r);
      p.cost[i] = rng.uniform(0.1, 2.0) + 1e-9 * static_cast<double>(i);
      p.allowed[i] = r == j % regions || rng.bernoulli(0.7) ? 1 : 0;
    }
  }
  return p;
}

void BM_TransportAssign(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const int regions = static_cast<int>(state.range(1));
  const sched::TransportProblem p = random_chunk(jobs, regions, 17);
  // One solution and workspace reused across solves, as the scheduler's
  // per-chunk slots do, so the timed loop is allocation-free.
  sched::TransportSolution out;
  sched::TransportWorkspace ws;
  sched::transport_assign(p, out, ws);
  if (!out.optimal()) state.SkipWithError("chunk is infeasible");
  for (auto _ : state) {
    sched::transport_assign(p, out, ws);
    benchmark::DoNotOptimize(out.objective);
  }
  state.SetLabel(std::to_string(jobs) + " jobs x " + std::to_string(regions) +
                 " regions");
}
// 25 is the burst-chunked chunk size, 60 and 254 its p50 and p99 batch
// sizes (ROADMAP profile), 400 the largest chunk the oracle tests cover.
BENCHMARK(BM_TransportAssign)
    ->ArgsProduct({{25, 60, 254, 400}, {5, 10}})
    ->Unit(benchmark::kMicrosecond);

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

BENCHMARK_MAIN();
