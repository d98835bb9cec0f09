#include "dc/simulator.hpp"

#include <algorithm>
#include <bit>
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

/// Minimum spacing between controller batches, in seconds.  Ticks align to
/// job arrivals (event-driven) but never fire more often than this, so
/// bursts accumulate into multi-job batches while an idle controller reacts
/// to a lone arrival immediately.
constexpr double kMinBatchIntervalS = 2.0;

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

/// Throws std::invalid_argument when two jobs share an id: a decision would
/// otherwise place, and a finish event charge, the wrong job.  Generated
/// traces number their jobs in order, so one pass usually proves the ids
/// unique; only otherwise is a copy sorted.
void check_unique_ids(const std::vector<trace::Job>& jobs) {
  bool increasing = true;
  for (std::size_t i = 1; i < jobs.size() && increasing; ++i)
    increasing = jobs[i - 1].id < jobs[i].id;
  if (increasing) return;
  std::vector<std::uint64_t> ids;
  ids.reserve(jobs.size());
  for (const trace::Job& job : jobs) ids.push_back(job.id);
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end())
    throw std::invalid_argument("Simulator: job " + std::to_string(*dup) +
                                " appears more than once in the trace");
}

/// Job id -> slot in the current window's `pending`, rebuilt every window:
/// open addressing with linear probing over a power-of-two table at most
/// half full.  A decision whose job is not pending (unknown, not yet
/// arrived, or placed in an earlier window) finds no slot.  The storage is
/// kept across windows, so it grows to the largest backlog and no further.
class PendingIndex {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void rebuild(const std::vector<PendingJob>& pending) {
    const std::size_t size = std::bit_ceil(std::max<std::size_t>(
        8, 2 * pending.size()));
    mask_ = size - 1;
    shift_ = 64 - std::countr_zero(size);
    slots_.assign(size, Entry{});
    for (std::size_t k = 0; k < pending.size(); ++k) {
      std::size_t h = home(pending[k].job->id);
      while (slots_[h].slot != kNone) h = (h + 1) & mask_;
      slots_[h] = Entry{pending[k].job->id, k};
    }
  }

  /// The pending slot of job `id`, or kNone.
  [[nodiscard]] std::size_t find(std::uint64_t id) const {
    for (std::size_t h = home(id);; h = (h + 1) & mask_) {
      const Entry& e = slots_[h];
      if (e.slot == kNone || e.id == id) return e.slot;
    }
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::size_t slot = kNone;
  };

  /// Fibonacci hashing: the top bits of id * 2^64 / phi, which spreads
  /// consecutive ids across the table.
  [[nodiscard]] std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

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
  if (!(config_.batch_window_s >= kMinBatchIntervalS))
    throw std::invalid_argument(
        "Simulator: batch window must be at least the 2 s minimum batch "
        "interval");
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
  check_unique_ids(jobs);
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
  // Service-level histograms, recorded here for every scheduler.  Both are
  // sim-time or count based, so their bins are deterministic.
  const obs::Hist queue_depth =
      result.service.histogram("service.queue_depth", 0.0, 2048.0, 64);
  const obs::Hist time_to_admission =
      result.service.histogram("service.time_to_admission_s", 0.0, 3600.0, 72);

  EstimateDb estimates;
  std::vector<PendingJob> pending;
  // A decision's job is found through the window's index of `pending`;
  // placed[k] marks pending slot k as placed this window, and `pending` is
  // compacted once per window.
  PendingIndex pending_index;
  std::vector<std::uint8_t> placed;
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
      ctx.env = observed_footprint_ != nullptr
                    ? &observed_footprint_->environment()
                    : env_;
      ctx.footprint =
          observed_footprint_ != nullptr ? observed_footprint_ : footprint_;
      view.set_now(now);
      ctx.capacity = &view;

      obs::Span window_span("sim.window");
      window_span.arg("t", now);
      window_span.arg("pending", pending.size());
      result.service.observe(queue_depth, static_cast<double>(pending.size()));
      const util::Stopwatch watch;
      const std::vector<Decision> decisions = scheduler.schedule(pending, ctx);
      const double batch_seconds = watch.elapsed_seconds();
      result.decision_seconds_total += batch_seconds;
      result.overhead_series.emplace_back(now / 60.0, batch_seconds);

      const obs::Span apply_span("sim.apply");
      std::size_t applied = 0;
      if (!decisions.empty()) {
        pending_index.rebuild(pending);
        placed.assign(pending.size(), 0);
      }
      for (const Decision& d : decisions) {
        const std::size_t k = pending_index.find(d.job_id);
        // Unknown, not yet arrived, or placed in an earlier window.
        if (k == PendingIndex::kNone) continue;
        if (placed[k] != 0) continue;  // a duplicate decision
        const trace::Job& job = *pending[k].job;
        if (d.region < 0 || d.region >= num_regions) continue;
        if (!(d.power_scale > 0.0) || d.power_scale > 1.0) continue;

        const double transfer_latency = env_->transfer_latency_seconds(
            job.home_region, d.region, job.package_bytes);
        const double earliest = now + transfer_latency;
        // An impossible start; the negated test also skips a NaN one.
        if (!(d.start_time >= earliest - 1e-6)) continue;
        const double duration = job.exec_seconds / d.power_scale;
        const double start = std::max(d.start_time, earliest);
        const double end = start + duration;
        // A +inf start, or one so late that the run [start, end) is empty
        // in double precision, has nothing to reserve.
        if (!(end > start)) continue;
        auto& tl = timelines[static_cast<std::size_t>(d.region)];
        // Admission: peak occupancy over the run must stay below the
        // effective capacity at the start instant (== tl.fits() without
        // faults).  An active outage/flap gates new placements while jobs
        // already on the servers drain through.  A rejected job stays
        // pending.
        if (!tl.try_reserve(start, end,
                            view.effective_capacity(d.region, start)))
          continue;
        result.service.observe(time_to_admission, now - pending[k].first_seen);

        // --- ledger ---------------------------------------------------------
        const double energy = job.energy_kwh();  // power scaling conserves it
        const footprint::Breakdown fb =
            footprint_->job_integrated(d.region, start, duration, energy);
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

        finish_heap.push(FinishEvent{
            end, static_cast<std::size_t>(pending[k].job - jobs.data())});
        placed[k] = 1;
        ++applied;
      }
      // One stable pass drops the placed jobs, so the jobs left pending keep
      // their order and every later batch is unchanged.
      if (applied > 0) {
        std::size_t kept = 0;
        for (std::size_t k = 0; k < pending.size(); ++k)
          if (placed[k] == 0) pending[kept++] = pending[k];
        pending.resize(kept);
      }
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
      next_tick = std::max(next_tick, now + kMinBatchIntervalS);
    } else {
      next_tick = now + config_.batch_window_s;
      if (next_arrival < jobs.size())
        next_tick = std::min(next_tick, jobs[next_arrival].submit_time);
      next_tick = std::max(next_tick, now + kMinBatchIntervalS);
    }
    now = next_tick;
  }

  return result;
}

}  // namespace ww::dc
