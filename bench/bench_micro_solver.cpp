// Microbenchmarks (google-benchmark): one scheduler batch window end to end,
// the chunk solve (sched::transport_assign) at WaterWise chunk sizes,
// capacity-timeline operations, footprint evaluation, the observability
// primitives and campaign set-up (trace generation, environment build) —
// the hot paths behind the Fig. 13 overhead numbers.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/waterwise.hpp"
#include "dc/capacity_timeline.hpp"
#include "dc/scheduler.hpp"
#include "env/environment.hpp"
#include "footprint/footprint.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sched/transport.hpp"
#include "trace/generator.hpp"
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

/// A burst-chunked-shaped chunk: random_chunk's costs and allowed pairs
/// (some remote pairs forbidden), but each quota is the region's home-job
/// count, plus at most two spare slots in all.  Nearly every region fills,
/// so later insertions must displace earlier jobs along paths; random_chunk
/// leaves 0-50 % slack and most jobs land directly.
sched::TransportProblem tight_chunk(int jobs, int regions,
                                    std::uint64_t seed) {
  sched::TransportProblem p = random_chunk(jobs, regions, seed);
  util::Rng rng(seed ^ 0x7469676874ULL);
  p.quota.assign(static_cast<std::size_t>(regions), 0);
  for (int j = 0; j < jobs; ++j)
    ++p.quota[static_cast<std::size_t>(j % regions)];
  for (int spare = static_cast<int>(rng.uniform_int(0, 2)); spare > 0;
       --spare)
    ++p.quota[static_cast<std::size_t>(rng.uniform_int(0, regions - 1))];
  return p;
}

/// Times repeated solves of `p` with one solution and workspace reused
/// across solves, as the scheduler's per-chunk slots do, so the timed loop
/// is allocation-free.
void time_solves(benchmark::State& state, const sched::TransportProblem& p) {
  sched::TransportSolution out;
  sched::TransportWorkspace ws;
  sched::transport_assign(p, out, ws);
  if (!out.optimal()) state.SkipWithError("chunk is infeasible");
  for (auto _ : state) {
    sched::transport_assign(p, out, ws);
    benchmark::DoNotOptimize(out.objective);
  }
  state.SetLabel(std::to_string(p.jobs) + " jobs x " +
                 std::to_string(p.regions()) + " regions");
}

void BM_TransportAssign(benchmark::State& state) {
  time_solves(state, random_chunk(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)), 17));
}
// 1 and 4 are near the borg-steady and alibaba-peak batch p50s, where most
// solves take the uncongested shortcut; 25 is the burst-chunked chunk
// size, 60 and 254 its p50 and p99 batch sizes (ROADMAP profile), 400 the
// largest chunk the oracle tests cover.
BENCHMARK(BM_TransportAssign)
    ->Args({1, 5})
    ->Args({4, 5})
    ->ArgsProduct({{25, 60, 254, 400}, {5, 10}})
    ->Unit(benchmark::kMicrosecond);

void BM_TransportAssignTight(benchmark::State& state) {
  time_solves(state, tight_chunk(static_cast<int>(state.range(0)),
                                 static_cast<int>(state.range(1)), 17));
}
// 17 is the alibaba-peak batch p99, where hard probes turn congested.
BENCHMARK(BM_TransportAssignTight)
    ->Args({17, 5})
    ->ArgsProduct({{25, 60, 254, 400}, {5, 10}})
    ->Unit(benchmark::kMicrosecond);

/// Every region has `free` servers free at every instant.
class FixedCapacity final : public dc::CapacityView {
 public:
  FixedCapacity(int regions, int free) : regions_(regions), free_(free) {}
  [[nodiscard]] int num_regions() const override { return regions_; }
  [[nodiscard]] int capacity(int) const override { return free_; }
  [[nodiscard]] int free_at(int, double) const override { return free_; }
  [[nodiscard]] int max_occupancy(int, double, double) const override {
    return 0;
  }

 private:
  int regions_;
  int free_;
};

// One WaterWise batch window end to end: region sampling, history observe,
// cost table, transport solve and commit, on a fixed batch of 1 job (the
// borg-steady p50) or 17 (the alibaba-peak p99), with now advancing 3 s a
// call (the default batch window) and every job just arrived.
void BM_ScheduleWindow(benchmark::State& state) {
  env::EnvironmentConfig env_config;
  env_config.horizon_days = 30;
  const env::Environment env = env::Environment::builtin(env_config);
  const footprint::FootprintModel fp(env);
  const FixedCapacity capacity(env.num_regions(), 10);
  util::Rng rng(23);
  std::vector<trace::Job> jobs(static_cast<std::size_t>(state.range(0)));
  std::vector<dc::PendingJob> batch(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    jobs[i].home_region = static_cast<int>(i) % env.num_regions();
    jobs[i].package_bytes = rng.uniform(1.0e8, 5.0e8);
    batch[i].job = &jobs[i];
    batch[i].est_exec_s = rng.uniform(60.0, 900.0);
    batch[i].est_energy_kwh = rng.uniform(0.005, 0.05);
  }
  core::WaterWiseConfig config;
  config.solve_failure_rate = 0.0;
  core::WaterWiseScheduler scheduler(config);
  dc::ScheduleContext ctx;
  ctx.env = &env;
  ctx.footprint = &fp;
  ctx.capacity = &capacity;
  std::size_t placed = 0;
  for (auto _ : state) {
    for (dc::PendingJob& p : batch) p.first_seen = ctx.now;
    placed += scheduler.schedule(batch, ctx).size();
    ctx.now += 3.0;
    // Stay within the 30-day horizon.
    if (ctx.now > 29.0 * 86400.0) ctx.now = 0.0;
  }
  if (placed != batch.size() * static_cast<std::size_t>(state.iterations()))
    state.SkipWithError("a window left a job unplaced");
  state.SetLabel(std::to_string(batch.size()) + " jobs x " +
                 std::to_string(env.num_regions()) + " regions");
}
BENCHMARK(BM_ScheduleWindow)->Arg(1)->Arg(17);

// The simulator's admission step: try_reserve at the region's capacity,
// with the prune each window makes.  A request arrives every 5 s and runs
// 300-670 s, about 97 concurrent on average, so at capacity 64 a share of
// the requests is rejected.
void BM_CapacityTimelineReserve(benchmark::State& state) {
  const int cap = static_cast<int>(state.range(0));
  long admitted = 0;
  long requested = 0;
  for (auto _ : state) {
    dc::CapacityTimeline tl(cap);
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const double duration = 300.0 + 37.0 * static_cast<double>(i % 11);
      admitted += tl.try_reserve(t, t + duration, cap) ? 1 : 0;
      ++requested;
      t += 5.0;
      if (i % 64 == 0) tl.prune(t - 200.0);
    }
    benchmark::DoNotOptimize(tl.occupancy_at(t));
  }
  state.counters["accept_ratio"] =
      requested > 0 ? static_cast<double>(admitted) /
                          static_cast<double>(requested)
                    : 0.0;
}
BENCHMARK(BM_CapacityTimelineReserve)->Arg(64)->Unit(benchmark::kMicrosecond);

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

void BM_HistoryObserve(benchmark::State& state) {
  // One window's history update at the scheduler's shape (5 regions, the
  // default 10-observation window), on a full ring: normalize both rows,
  // then recompute all ten window means.  Eight seeded observations cycle
  // so the ring holds varying rows.
  constexpr int kRegions = 5;
  constexpr int kWindow = 10;
  util::Rng rng(11);
  std::vector<std::vector<double>> carbon(8), water(8);
  for (std::size_t k = 0; k < carbon.size(); ++k)
    for (int r = 0; r < kRegions; ++r) {
      carbon[k].push_back(rng.uniform(50.0, 600.0));
      water[k].push_back(rng.uniform(0.5, 8.0));
    }
  core::HistoryLearner history(kRegions, kWindow);
  for (int i = 0; i < kWindow; ++i) history.observe(carbon[0], water[0]);
  std::size_t k = 0;
  for (auto _ : state) {
    history.observe(carbon[k], water[k]);
    benchmark::DoNotOptimize(history.carbon_ref(0));
    k = (k + 1) % carbon.size();
  }
}
BENCHMARK(BM_HistoryObserve);

void BM_ObsSpanDisabled(benchmark::State& state) {
  // The cost a span leaves on an untraced hot path: the inline
  // constructor's one relaxed load of the enabled flag, then inline tests
  // of the span's inactive bit in arg() and the destructor.  This is the
  // number the bench_fig13 5% overhead gate ultimately rests on.
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

// Campaign set-up, layer by layer: one Alibaba-rate trace (arrival thinning
// plus per-job sampling), and one builtin Environment built and read for
// its first simulated day, which generates exactly one day block per
// region series.
void BM_GenerateTrace(benchmark::State& state) {
  const trace::TraceConfig config = trace::alibaba_config(1, 0.25);
  std::size_t jobs = 0;
  for (auto _ : state) {
    const std::vector<trace::Job> trace = trace::generate_trace(config);
    jobs = trace.size();
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetLabel(std::to_string(jobs) + " jobs");
}
BENCHMARK(BM_GenerateTrace)->Unit(benchmark::kMillisecond);

/// The arrival-thinning half of BM_GenerateTrace: the same trace's arrival
/// times, with no job attributes drawn.
void BM_GenerateArrivals(benchmark::State& state) {
  const trace::TraceConfig config = trace::alibaba_config(1, 0.25);
  const util::Rng rng = util::Rng(config.seed).child("arrivals");
  std::size_t arrivals = 0;
  for (auto _ : state) {
    const std::vector<double> times = trace::generate_arrivals(
        config.arrival, config.days * 86400.0, rng);
    arrivals = times.size();
    benchmark::DoNotOptimize(times.data());
  }
  state.SetLabel(std::to_string(arrivals) + " arrivals");
}
BENCHMARK(BM_GenerateArrivals)->Unit(benchmark::kMillisecond);

void BM_EnvironmentFirstDay(benchmark::State& state) {
  for (auto _ : state) {
    const env::Environment env = env::Environment::builtin();
    double acc = 0.0;
    for (int r = 0; r < env.num_regions(); ++r)
      for (int h = 0; h < 24; ++h) acc += env.water_intensity(r, h * 3600.0);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EnvironmentFirstDay)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
