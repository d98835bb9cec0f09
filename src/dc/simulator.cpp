#include "dc/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "trace/benchmark_profile.hpp"
#include "util/timer.hpp"

namespace ww::dc {

namespace {

/// CapacityView adapter over the simulator's timelines.  With an attached
/// FaultSchedule the *effective* capacity is the nominal capacity scaled by
/// the schedule's factor at the query instant (floored; an outage reads as
/// 0), so schedulers observe outages and flaps the moment they query.
class TimelineView final : public CapacityView {
 public:
  TimelineView(const std::vector<CapacityTimeline>* timelines,
               const env::FaultSchedule* faults)
      : timelines_(timelines), faults_(faults) {}

  /// Batch tick; capacity(r) is evaluated at this instant.
  void set_now(double now) noexcept { now_ = now; }

  [[nodiscard]] int effective_capacity(int region, double t) const {
    const int cap =
        (*timelines_)[static_cast<std::size_t>(region)].capacity();
    if (faults_ == nullptr) return cap;
    return static_cast<int>(std::floor(static_cast<double>(cap) *
                                       faults_->capacity_factor(region, t)));
  }

  [[nodiscard]] int num_regions() const override {
    return static_cast<int>(timelines_->size());
  }
  [[nodiscard]] int capacity(int region) const override {
    return effective_capacity(region, now_);
  }
  [[nodiscard]] int free_at(int region, double t) const override {
    const auto& tl = (*timelines_)[static_cast<std::size_t>(region)];
    return std::max(0, effective_capacity(region, t) - tl.occupancy_at(t));
  }
  [[nodiscard]] int max_occupancy(int region, double start,
                                  double end) const override {
    return (*timelines_)[static_cast<std::size_t>(region)].max_occupancy(start,
                                                                         end);
  }

 private:
  const std::vector<CapacityTimeline>* timelines_;
  const env::FaultSchedule* faults_;
  double now_ = 0.0;
};

/// Online per-benchmark mean estimates of execution time and energy.
/// Indexed by benchmark; run() has checked every job's index.
class EstimateDb {
 public:
  void observe(const trace::Job& job) {
    Entry& e = entries_[static_cast<std::size_t>(job.benchmark)];
    e.exec.add(job.exec_seconds);
    e.energy.add(job.energy_kwh());
  }
  [[nodiscard]] double est_exec(const trace::Job& job) const {
    const Entry& e = entries_[static_cast<std::size_t>(job.benchmark)];
    if (e.exec.count() >= 3) return e.exec.mean();
    return trace::profile(job.benchmark).mean_exec_s;
  }
  [[nodiscard]] double est_energy(const trace::Job& job) const {
    const Entry& e = entries_[static_cast<std::size_t>(job.benchmark)];
    if (e.energy.count() >= 3) return e.energy.mean();
    const auto& p = trace::profile(job.benchmark);
    return p.mean_power_w * p.mean_exec_s / 3.6e6;
  }

 private:
  struct Entry {
    util::RunningStats exec;
    util::RunningStats energy;
  };
  std::vector<Entry> entries_ =
      std::vector<Entry>(static_cast<std::size_t>(trace::num_benchmarks()));
};

struct FinishEvent {
  double time;
  std::size_t job_index;
  bool operator>(const FinishEvent& o) const { return time > o.time; }
};

/// Job id -> trace index, sorted by id.  Throws std::invalid_argument when
/// two jobs share an id: a finish event would otherwise be charged to the
/// wrong job.
std::vector<std::pair<std::uint64_t, std::size_t>> index_by_id(
    const std::vector<trace::Job>& jobs) {
  std::vector<std::pair<std::uint64_t, std::size_t>> table;
  table.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) table.emplace_back(jobs[i].id, i);
  std::sort(table.begin(), table.end());
  for (std::size_t i = 1; i < table.size(); ++i)
    if (table[i].first == table[i - 1].first)
      throw std::invalid_argument("Simulator: job " +
                                  std::to_string(table[i].first) +
                                  " appears more than once in the trace");
  return table;
}

/// Throws std::invalid_argument, naming the job, when a field would stall
/// the event loop (a submit time that never becomes due, a run that never
/// ends) or corrupt the ledger and the estimates (a negative power or
/// package size, a region or benchmark that does not exist).
void validate_job(const trace::Job& job, int num_regions) {
  const auto reject = [&job](const char* why) {
    throw std::invalid_argument("Simulator: job " + std::to_string(job.id) +
                                " has " + why);
  };
  if (!std::isfinite(job.submit_time)) reject("a non-finite submit_time");
  if (!std::isfinite(job.exec_seconds) || !(job.exec_seconds > 0.0))
    reject("a non-finite or non-positive exec_seconds");
  if (!std::isfinite(job.avg_power_watts) || job.avg_power_watts < 0.0)
    reject("a negative or non-finite avg_power_watts");
  if (!std::isfinite(job.package_bytes) || job.package_bytes < 0.0)
    reject("a negative or non-finite package_bytes");
  if (job.home_region < 0 || job.home_region >= num_regions)
    reject("a home_region outside the environment's regions");
  if (job.benchmark < 0 || job.benchmark >= trace::num_benchmarks())
    reject("a benchmark outside the profile table");
}

}  // namespace

Simulator::Simulator(const env::Environment& env,
                     const footprint::FootprintModel& footprint,
                     SimConfig config)
    : env_(&env), footprint_(&footprint), config_(config) {
  if (config_.batch_window_s <= 0.0)
    throw std::invalid_argument("Simulator: batch window must be positive");
  if (config_.min_batch_interval_s <= 0.0 ||
      config_.min_batch_interval_s > config_.batch_window_s)
    throw std::invalid_argument(
        "Simulator: min batch interval must be in (0, batch_window]");
  if (config_.tol < 0.0)
    throw std::invalid_argument("Simulator: delay tolerance must be >= 0");
}

std::vector<int> Simulator::region_capacities() const {
  std::vector<int> caps;
  caps.reserve(static_cast<std::size_t>(env_->num_regions()));
  for (int r = 0; r < env_->num_regions(); ++r) {
    const int scaled = static_cast<int>(
        std::lround(config_.capacity_scale * env_->region(r).servers));
    caps.push_back(std::max(1, scaled));
  }
  return caps;
}

CampaignResult Simulator::run(const std::vector<trace::Job>& jobs,
                              Scheduler& scheduler) {
  const int num_regions = env_->num_regions();
  for (const trace::Job& job : jobs) validate_job(job, num_regions);
  for (std::size_t i = 1; i < jobs.size(); ++i)
    if (jobs[i].submit_time < jobs[i - 1].submit_time)
      throw std::invalid_argument("Simulator: trace must be submit-sorted");
  const std::vector<std::pair<std::uint64_t, std::size_t>> trace_index =
      index_by_id(jobs);
  std::vector<CapacityTimeline> timelines;
  {
    const std::vector<int> caps = region_capacities();
    timelines.reserve(caps.size());
    for (const int c : caps) timelines.emplace_back(c);
  }
  TimelineView view(&timelines, faults_);

  CampaignResult result;
  result.scheduler_name = scheduler.name();
  result.tol = config_.tol;
  result.jobs_per_region.assign(static_cast<std::size_t>(num_regions), 0);
  if (config_.record_jobs) result.jobs.reserve(jobs.size());

  EstimateDb estimates;
  std::vector<PendingJob> pending;
  // Per trace index: placed by a decision.  A job is pending exactly when
  // it has arrived and is not placed, so a decision's job is found through
  // trace_index and these flags, and `pending` is compacted once per window.
  std::vector<std::uint8_t> placed(jobs.size(), 0);
  std::priority_queue<FinishEvent, std::vector<FinishEvent>, std::greater<>>
      finish_heap;

  std::size_t next_arrival = 0;
  double now = 0.0;
  long stalled_batches = 0;
  double total_exec = 0.0;
  for (const auto& j : jobs) total_exec += j.exec_seconds;
  result.mean_exec_seconds =
      jobs.empty() ? 0.0 : total_exec / static_cast<double>(jobs.size());

  while (next_arrival < jobs.size() || !pending.empty() ||
         !finish_heap.empty()) {
    // Completions up to now: feed the online estimate learner.
    while (!finish_heap.empty() && finish_heap.top().time <= now) {
      const std::size_t ji = finish_heap.top().job_index;
      finish_heap.pop();
      estimates.observe(jobs[ji]);
      scheduler.on_job_finished(jobs[ji]);
    }

    // Absorb arrivals; T_start_m is the tick when the controller first
    // holds the job.
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].submit_time <= now) {
      PendingJob p;
      p.job = &jobs[next_arrival];
      p.first_seen = now;
      pending.push_back(p);
      ++next_arrival;
    }

    if (!pending.empty()) {
      for (auto& tl : timelines) tl.prune(now);
      // Refresh estimates each batch (they improve as jobs finish).
      for (PendingJob& p : pending) {
        p.est_exec_s = estimates.est_exec(*p.job);
        p.est_energy_kwh = estimates.est_energy(*p.job);
      }

      ScheduleContext ctx;
      ctx.now = now;
      ctx.tol = config_.tol;
      // Under fault injection the controller observes the biased Controller
      // view; the ledger below keeps integrating the true World view.
      ctx.env = observed_env_ != nullptr ? observed_env_ : env_;
      ctx.footprint =
          observed_footprint_ != nullptr ? observed_footprint_ : footprint_;
      view.set_now(now);
      ctx.capacity = &view;

      obs::Span window_span("sim.window");
      window_span.arg("t", now);
      window_span.arg("pending", pending.size());
      const util::Stopwatch watch;
      const std::vector<Decision> decisions = scheduler.schedule(pending, ctx);
      const double batch_seconds = watch.elapsed_seconds();
      result.decision_seconds_total += batch_seconds;
      result.batch_decision_seconds.add(batch_seconds);
      result.overhead_series.emplace_back(now / 60.0, batch_seconds);

      const obs::Span apply_span("sim.apply");
      std::size_t applied = 0;
      for (const Decision& d : decisions) {
        const auto id_it = std::lower_bound(
            trace_index.begin(), trace_index.end(),
            std::pair<std::uint64_t, std::size_t>{d.job_id, 0});
        if (id_it == trace_index.end() || id_it->first != d.job_id)
          continue;  // unknown job
        const std::size_t ji = id_it->second;
        if (ji >= next_arrival || placed[ji] != 0)
          continue;  // not yet arrived, or a stale/duplicate decision
        const trace::Job& job = jobs[ji];
        if (d.region < 0 || d.region >= num_regions) continue;
        if (!(d.power_scale > 0.0) || d.power_scale > 1.0) continue;

        const double transfer_latency = env_->transfer_latency_seconds(
            job.home_region, d.region, job.package_bytes);
        const double earliest = now + transfer_latency;
        if (d.start_time < earliest - 1e-6) continue;  // impossible start
        const double duration = job.exec_seconds / d.power_scale;
        const double start = std::max(d.start_time, earliest);
        const double end = start + duration;
        auto& tl = timelines[static_cast<std::size_t>(d.region)];
        // Admission: peak occupancy over the run must stay below the
        // effective capacity at the start instant (== tl.fits() without
        // faults).  An active outage/flap gates new placements while jobs
        // already on the servers drain through.
        const int eff_cap = view.effective_capacity(d.region, start);
        if (tl.max_occupancy(start, end) >= eff_cap) continue;  // stays pending
        tl.reserve(start, end);

        // --- ledger ---------------------------------------------------------
        const double energy = job.energy_kwh();  // power scaling conserves it
        footprint::Breakdown fb =
            config_.integrate_footprints
                ? footprint_->job_integrated(d.region, start, duration, energy)
                : footprint_->job_at(d.region, start, energy, duration);
        const footprint::Breakdown tb = footprint_->transfer(
            job.home_region, d.region, job.package_bytes, now);
        result.total_carbon_g += fb.carbon_g() + tb.carbon_g();
        result.total_water_l += fb.water_l() + tb.water_l();
        result.transfer_carbon_g += tb.carbon_g();
        result.transfer_water_l += tb.water_l();
        result.embodied_carbon_g += fb.embodied_carbon_g;
        result.embodied_water_l += fb.embodied_water_l;
        result.total_cost_usd += env_->pue(d.region) * energy *
                                 env_->electricity_price(d.region, start);

        const double service = end - job.submit_time;
        const double norm = service / job.exec_seconds;
        result.service_norm.add(norm);
        const bool violated =
            service > (1.0 + config_.tol) * job.exec_seconds * (1.0 + 1e-9);
        if (violated) ++result.violations;
        ++result.jobs_per_region[static_cast<std::size_t>(d.region)];
        ++result.num_jobs;
        result.makespan_seconds = std::max(result.makespan_seconds, end);

        if (config_.record_jobs) {
          JobOutcome o;
          o.job_id = job.id;
          o.home_region = job.home_region;
          o.exec_region = d.region;
          o.submit_time = job.submit_time;
          o.start_time = start;
          o.finish_time = end;
          o.exec_seconds = duration;
          o.carbon_g = fb.carbon_g() + tb.carbon_g();
          o.water_l = fb.water_l() + tb.water_l();
          o.violated = violated;
          result.jobs.push_back(o);
        }

        finish_heap.push(FinishEvent{end, ji});
        placed[ji] = 1;
        ++applied;
      }
      // One stable pass drops the placed jobs, so the jobs left pending keep
      // their order and every later batch is unchanged.
      if (applied > 0)
        pending.erase(std::remove_if(pending.begin(), pending.end(),
                                     [&](const PendingJob& p) {
                                       return placed[static_cast<std::size_t>(
                                                  p.job - jobs.data())] != 0;
                                     }),
                      pending.end());
      stalled_batches = applied == 0 ? stalled_batches + 1 : 0;
      if (stalled_batches > 200000)
        throw std::runtime_error(
            "Simulator: scheduler made no progress for 200000 batches");
    }

    // Advance to the next batch tick: align to the next arrival (so an idle
    // controller reacts promptly), bounded below by the minimum batch
    // interval (so bursts batch together) and above by the batch window
    // (so deferred jobs are retried).
    double next_tick;
    if (pending.empty()) {
      next_tick = std::numeric_limits<double>::infinity();
      if (next_arrival < jobs.size())
        next_tick = jobs[next_arrival].submit_time;
      if (!finish_heap.empty())
        next_tick = std::min(next_tick, finish_heap.top().time);
      next_tick = std::max(next_tick, now + config_.min_batch_interval_s);
    } else {
      next_tick = now + config_.batch_window_s;
      if (next_arrival < jobs.size())
        next_tick = std::min(next_tick, jobs[next_arrival].submit_time);
      next_tick = std::max(next_tick, now + config_.min_batch_interval_s);
    }
    now = next_tick;
  }

  return result;
}

}  // namespace ww::dc
