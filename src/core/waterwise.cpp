#include "core/waterwise.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/slack.hpp"
#include "env/faults.hpp"
#include "obs/trace.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace ww::core {

namespace {

/// Soft-constraint penalty weight (Eq. 12), per unit of the job's delay
/// tolerance.
constexpr double kSigma = 10.0;

// Degraded-mode thresholds and rails (see "Graceful degradation" in the
// header): the relative intensity change that counts as a fault event (the
// builtin hourly-interpolated series move far less across a 60 s tick, so
// only injected bias steps fire it), the largest observation spacing a jump
// compares across, the event score that trips Normal -> Degraded, the clean
// windows before Degraded -> Recovery, the Recovery windows before Normal,
// and the share of a region's capacity new placements may claim while
// Degraded / in Recovery.
constexpr double kIntensityJumpFraction = 0.4;
constexpr double kFlapWindowS = 900.0;
constexpr int kDegradeAfterEvents = 2;
constexpr int kRecoverAfterClean = 3;
constexpr int kRecoveryWindows = 3;
constexpr double kDegradedCapFraction = 0.25;
constexpr double kRecoveryCapFraction = 0.5;

}  // namespace

double default_solve_failure_rate() {
  static const double value =
      util::env_double("WW_FAULT_SOLVES", 0.0, 1.0).value_or(0.0);
  return value;
}

WaterWiseScheduler::WaterWiseScheduler(WaterWiseConfig config)
    : config_(config) {
  if (config_.lambda_co2 < 0.0 || config_.lambda_h2o < 0.0)
    throw std::invalid_argument("WaterWise: lambda weights must be >= 0");
  const double sum = config_.lambda_co2 + config_.lambda_h2o;
  if (sum <= 0.0)
    throw std::invalid_argument("WaterWise: lambda weights must sum > 0");
  // The paper requires the weights to sum to one; normalize defensively.
  config_.lambda_co2 /= sum;
  config_.lambda_h2o /= sum;
  for (std::size_t i = 0; i < std::size(kStatsCounters); ++i)
    handles_.stats_counters[i] = registry_.counter(kStatsCounters[i].key);
  for (std::size_t i = 0; i < std::size(kStatsGauges); ++i)
    handles_.stats_gauges[i] = registry_.gauge(kStatsGauges[i].key);
}

void WaterWiseScheduler::fold_stats(const SchedulerStats& delta) {
  for (std::size_t i = 0; i < std::size(kStatsCounters); ++i) {
    const long v = delta.*kStatsCounters[i].member;
    if (v > 0)
      registry_.add(handles_.stats_counters[i], static_cast<std::uint64_t>(v));
  }
  for (std::size_t i = 0; i < std::size(kStatsGauges); ++i)
    registry_.add(handles_.stats_gauges[i], delta.*kStatsGauges[i].member);
}

SchedulerStats WaterWiseScheduler::stats() const {
  SchedulerStats s;
  for (std::size_t i = 0; i < std::size(kStatsCounters); ++i)
    s.*kStatsCounters[i].member =
        static_cast<long>(registry_.counter_value(handles_.stats_counters[i]));
  for (std::size_t i = 0; i < std::size(kStatsGauges); ++i)
    s.*kStatsGauges[i].member = registry_.gauge_value(handles_.stats_gauges[i]);
  return s;
}

std::size_t WaterWiseScheduler::effective_solver_threads() const {
  // WW_SCHED_THREADS overrides solver_threads process-wide.  Cached: the
  // switch is a process property, not a per-call one.
  static const std::optional<long> override_threads =
      util::env_long("WW_SCHED_THREADS", 0, 1024);
  const long configured = override_threads.value_or(config_.solver_threads);
  return util::WorkStealingPool::resolve_threads(
      configured <= 0 ? 0 : static_cast<std::size_t>(configured));
}

void WaterWiseScheduler::take_snapshot(const dc::ScheduleContext& ctx,
                                       WindowSnapshot& snap) const {
  const auto n = static_cast<std::size_t>(ctx.capacity->num_regions());
  snap.price.resize(n);
  snap.history.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const int ri = static_cast<int>(r);
    // Only the Sec. 7 cost term reads the price.
    snap.price[r] = config_.lambda_cost > 0.0
                        ? ctx.env->electricity_price(ri, ctx.now)
                        : 0.0;
    snap.history[r] =
        config_.lambda_ref * (config_.lambda_co2 * history_->carbon_ref(ri) +
                              config_.lambda_h2o * history_->water_ref(ri));
  }
}

void WaterWiseScheduler::build_costs(
    const std::vector<const dc::PendingJob*>& chunk,
    const dc::ScheduleContext& ctx, const WindowSnapshot& snapshot,
    ChunkWorkspace& ws) const {
  const obs::Span span("sched.model_build");
  const int m = static_cast<int>(chunk.size());
  const int n = static_cast<int>(snapshot.intensity.size());
  ws.base.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  ws.exceedance.resize(ws.base.size());
  ws.penalty_rate.resize(static_cast<std::size_t>(m));

  // Objective: Eq. 8 normalized footprint costs + history reference terms,
  // plus the delay tolerance of Eq. 11 (hard) / Eq. 12-13 (soft).
  std::vector<double>& co2 = ws.co2;
  std::vector<double>& h2o = ws.h2o;
  std::vector<double>& usd = ws.usd;
  std::vector<double>& perf = ws.perf;
  // The Sec. 7 terms are filled only when the objective weighs them.
  const bool use_usd = config_.lambda_cost > 0.0;
  const bool use_perf = config_.lambda_perf > 0.0;
  co2.resize(static_cast<std::size_t>(n));
  h2o.resize(static_cast<std::size_t>(n));
  usd.resize(use_usd ? static_cast<std::size_t>(n) : 0);
  perf.resize(use_perf ? static_cast<std::size_t>(n) : 0);
  for (int j = 0; j < m; ++j) {
    const dc::PendingJob& p = *chunk[static_cast<std::size_t>(j)];
    const int home = p.job->home_region;
    const footprint::Intensities& at_home =
        snapshot.intensity.at(static_cast<std::size_t>(home));
    // The remaining delay allowance discounts time already spent waiting in
    // the controller.
    const double waited = ctx.now - p.first_seen;
    const double budget = ctx.tol * kDelayEstimateMargin * p.est_exec_s;
    const double allowance = std::max(0.0, budget - waited);
    ws.penalty_rate[static_cast<std::size_t>(j)] =
        kSigma / std::max(1.0, ctx.tol * p.est_exec_s);
    // The region-independent parts of the footprint and transfer terms,
    // once per job: the embodied terms and the package's size and
    // serialization time.
    const footprint::Breakdown embodied =
        ctx.footprint->embodied(p.est_exec_s);
    const env::TransferModel::Package package =
        ctx.env->transfer_package(p.job->package_bytes);
    for (int r = 0; r < n; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      // Decision-time estimates: current intensities, estimated E and t.
      const footprint::Intensities& at = snapshot.intensity[ri];
      const footprint::Breakdown fb = footprint::FootprintModel::compose(
          footprint::FootprintModel::operational(at, p.est_energy_kwh),
          embodied);
      const footprint::Breakdown tb =
          ctx.footprint->transfer(home, r, package, at_home, at);
      co2[ri] = fb.carbon_g() + tb.carbon_g();
      h2o[ri] = fb.water_l() + tb.water_l();
      if (use_usd)
        usd[ri] = ctx.env->pue(r) * p.est_energy_kwh * snapshot.price[ri];
      const double latency =
          ctx.env->transfer_latency_seconds(home, r, package);
      if (use_perf) perf[ri] = latency / std::max(1.0, p.est_exec_s);
      // Eq. 11 states the delay tolerance as one row per job over the
      // summed transfer latency.  Since exactly one x_mn is 1, that row
      // forbids every region whose latency exceeds the allowance; run_model
      // forbids the pair (hard) or prices the exceedance (soft).
      ws.exceedance[static_cast<std::size_t>(j * n + r)] =
          latency - allowance;
    }
    const double co2_max =
        std::max(1e-12, *std::max_element(co2.begin(), co2.end()));
    const double h2o_max =
        std::max(1e-12, *std::max_element(h2o.begin(), h2o.end()));
    const double usd_max =
        use_usd ? std::max(1e-12, *std::max_element(usd.begin(), usd.end()))
                : 0.0;
    const double perf_max =
        use_perf
            ? std::max(1e-12, *std::max_element(perf.begin(), perf.end()))
            : 0.0;
    for (int r = 0; r < n; ++r) {
      const std::size_t ri = static_cast<std::size_t>(r);
      double cost = config_.lambda_co2 * co2[ri] / co2_max +
                    config_.lambda_h2o * h2o[ri] / h2o_max;
      if (use_usd) cost += config_.lambda_cost * usd[ri] / usd_max;
      if (use_perf) cost += config_.lambda_perf * perf[ri] / perf_max;
      if (config_.enable_history) cost += snapshot.history[ri];
      // Deterministic tie-breaking epsilon: jobs of the same benchmark share
      // identical estimates, so without it many assignments tie exactly and
      // the decision would hinge on how the solver breaks ties.  The
      // epsilon makes the optimum unique.
      cost += 1e-9 * static_cast<double>(j * n + r);
      ws.base[static_cast<std::size_t>(j * n + r)] = cost;
    }
  }
}

const sched::TransportSolution& WaterWiseScheduler::run_model(
    ChunkWorkspace& ws, const std::vector<int>& quota, bool soft,
    SchedulerStats& stats) const {
  // Both forms are the m x n transportation problem: a dense job-major
  // cost matrix, an allowed mask and the chunk's quota, filled into the
  // workspace's problem in place.
  sched::TransportProblem& problem = ws.problem;
  problem.jobs = static_cast<int>(ws.penalty_rate.size());
  problem.cost = ws.base;
  problem.allowed.resize(problem.cost.size());
  problem.quota = quota;
  std::size_t at = 0;
  for (const double penalty_rate : ws.penalty_rate) {
    for (const int q : quota) {
      // The soft form (Eq. 12-13) charges the exceedance: its penalty
      // P_mn >= exceedance * x_mn has a positive cost and appears in no
      // other row, so every optimum has P_mn = exceedance * x_mn and the
      // penalty folds into x_mn's cost.  A region with no quota cannot take
      // any job from this chunk.
      const double exceedance = ws.exceedance[at];
      bool allowed = q > 0;
      if (exceedance > 0.0) {
        if (soft)
          problem.cost[at] += penalty_rate * exceedance;
        else
          allowed = false;
      }
      problem.allowed[at] = allowed ? 1 : 0;
      ++at;
    }
  }

  const util::Stopwatch watch;
  sched::TransportSolution& sol = ws.solution;
  sched::transport_assign(problem, sol, ws.solver);
  stats.solve_seconds += watch.elapsed_seconds();
  ++stats.milp_solves;
#ifndef NDEBUG
  // Debug builds (the sanitizer CI job among them) certify every solve:
  // an optimal one by its duals, an infeasible one by its Hall set.
  std::string why;
  if (!sched::certify(problem, sol, &why))
    throw std::logic_error("WaterWise: transport solve failed its "
                           "certificate: " + why);
#endif
  return sol;
}

std::vector<ChunkPlan> WaterWiseScheduler::plan_chunks(
    const std::vector<const dc::PendingJob*>& selected,
    const std::vector<int>& caps) const {
  std::vector<ChunkPlan> plans;
  plans.resize(fill_plans(selected, caps, plans));
  return plans;
}

std::size_t WaterWiseScheduler::fill_plans(
    const std::vector<const dc::PendingJob*>& selected,
    const std::vector<int>& caps, std::vector<ChunkPlan>& plans) const {
  const int n = static_cast<int>(caps.size());
  const auto chunk_cap = static_cast<std::size_t>(
      std::max(1, config_.max_jobs_per_solve));
  if (selected.empty()) return 0;
  const std::size_t num_chunks = (selected.size() + chunk_cap - 1) / chunk_cap;
  if (plans.size() < num_chunks) plans.resize(num_chunks);
  for (std::size_t k = 0; k < num_chunks; ++k) {
    const std::size_t begin = k * chunk_cap;
    const std::size_t end = std::min(selected.size(), begin + chunk_cap);
    plans[k].index = static_cast<int>(k);
    plans[k].jobs.assign(
        selected.begin() + static_cast<std::ptrdiff_t>(begin),
        selected.begin() + static_cast<std::ptrdiff_t>(end));
    plans[k].quota.assign(static_cast<std::size_t>(n), 0);
  }
  if (num_chunks == 1) {
    // The common case: one chunk owns the whole window's capacity, making
    // the pipeline placement-identical to a monolithic solve.
    plans[0].quota = caps;
    return 1;
  }

  // Apportion every region's capacity across chunks proportionally to chunk
  // size by the largest-remainder method; remainder ties break toward the
  // lower chunk index.  All capacity is handed out — slots no chunk uses
  // flow back through ChunkResult::leftover into the spill pool.
  std::size_t total_jobs = 0;
  for (std::size_t k = 0; k < num_chunks; ++k) total_jobs += plans[k].jobs.size();
  std::vector<long> chunk_total(num_chunks, 0);
  std::vector<std::pair<double, std::size_t>> frac(num_chunks);
  for (int r = 0; r < n; ++r) {
    const long cap = caps[static_cast<std::size_t>(r)];
    if (cap <= 0) continue;
    long handed = 0;
    for (std::size_t k = 0; k < num_chunks; ++k) {
      const double exact =
          static_cast<double>(cap) *
          (static_cast<double>(plans[k].jobs.size()) /
           static_cast<double>(total_jobs));
      const long share = static_cast<long>(std::floor(exact));
      plans[k].quota[static_cast<std::size_t>(r)] += static_cast<int>(share);
      chunk_total[k] += share;
      handed += share;
      frac[k] = {exact - static_cast<double>(share), k};
    }
    // Largest fractional remainder first; equal remainders go to the lower
    // chunk index (stable sort on a deterministically ordered input).
    std::stable_sort(frac.begin(), frac.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (long i = 0; i < cap - handed; ++i) {
      const std::size_t k =
          frac[static_cast<std::size_t>(i) % num_chunks].second;
      plans[k].quota[static_cast<std::size_t>(r)] += 1;
      chunk_total[k] += 1;
    }
  }

  // Repair pass: per-region rounding can leave a chunk with fewer total
  // slots than jobs (adversarial tiny-capacity windows: many cap-1 regions
  // whose remainders all land on one chunk).  Move single slots from the
  // largest-surplus chunk (ties: lower index), taking from its
  // largest-quota region (ties: lower region), until every chunk covers
  // its job count.  Total capacity >= total selected jobs (the slack
  // manager guarantees it), so enough surplus always exists.
  for (std::size_t k = 0; k < num_chunks; ++k) {
    while (chunk_total[k] < static_cast<long>(plans[k].jobs.size())) {
      std::size_t donor = num_chunks;
      long best_surplus = 0;
      for (std::size_t j = 0; j < num_chunks; ++j) {
        const long surplus =
            chunk_total[j] - static_cast<long>(plans[j].jobs.size());
        if (surplus > best_surplus) {
          best_surplus = surplus;
          donor = j;
        }
      }
      if (donor == num_chunks) break;  // defensive: selected exceeded caps
      int region = -1;
      for (int r = 0; r < n; ++r) {
        if (plans[donor].quota[static_cast<std::size_t>(r)] <= 0) continue;
        if (region < 0 || plans[donor].quota[static_cast<std::size_t>(r)] >
                              plans[donor].quota[static_cast<std::size_t>(
                                  region)])
          region = r;
      }
      if (region < 0) break;  // defensive: donor surplus was stale
      plans[donor].quota[static_cast<std::size_t>(region)] -= 1;
      chunk_total[donor] -= 1;
      plans[k].quota[static_cast<std::size_t>(region)] += 1;
      chunk_total[k] += 1;
    }
  }
  return num_chunks;
}

void WaterWiseScheduler::solve_one(const ChunkPlan& plan,
                                   const dc::ScheduleContext& ctx,
                                   const WindowSnapshot& snapshot,
                                   ChunkResult& out) const {
  out.index = plan.index;
  out.decisions.clear();
  out.leftover = plan.quota;
  out.unplaced.clear();
  out.stats = SchedulerStats{};
  out.error.clear();

  obs::Span span("sched.chunk_solve");
  span.arg("chunk", plan.index);
  span.arg("jobs", plan.jobs.size());
  // Retry-ladder rung that produced the chunk's placements: 1 = primary
  // solve, 2 = retry, 3 = greedy fallback.  Annotated on the span together
  // with the chunk's solve and retry counts.
  int rung = 1;
  const auto annotate = [&span, &out](int final_rung) {
    span.arg("rung", final_rung);
    span.arg("milp_solves", out.stats.milp_solves);
    span.arg("retries", out.stats.solve_retries);
    span.arg("decisions", out.decisions.size());
  };

  // Every model form below reads this one cost table.
  ChunkWorkspace& ws = out.workspace;
  build_costs(plan.jobs, ctx, snapshot, ws);

  // One solve of the chunk model, nullptr when an injected failure
  // (WW_FAULT_SOLVES / config) discards its outcome exactly as a solver
  // crash would.  Injection is a pure function of (seed, window, chunk,
  // attempt), so the same campaign hits the same ladder rungs at every
  // thread count.  Every attempt overwrites the workspace's solution.
  const auto attempt = [&](bool soft,
                           int attempt_no) -> const sched::TransportSolution* {
    const sched::TransportSolution& sol =
        run_model(ws, plan.quota, soft, out.stats);
    if (env::injected_solve_failure(config_.fault_seed, ctx.now, plan.index,
                                    attempt_no, config_.solve_failure_rate)) {
      ++out.stats.fault_events;
      return nullptr;
    }
    return &sol;
  };

  // --- Retry-then-degrade ladder ------------------------------------------
  // Attempt 0: hard feasibility probe (soft-enabled path only).
  // Attempt 1: primary model (soft, or hard in the soft-disabled ablation).
  // Attempt 2: one plain retry of the primary model after an injected
  //            failure.  The solver is exact, so a proven infeasibility is
  //            final and never retried.
  // Rung 3: guaranteed-feasible greedy placement against the chunk quota.
  // Remainder: spill-eligible, then an explicit deferral — never a drop.
  const sched::TransportSolution* sol = nullptr;
  if (config_.enable_soft_constraints) {
    sol = attempt(/*soft=*/false, 0);
    if (sol == nullptr || !sol->optimal()) {
      // Algorithm 1, lines 10-11: soften and retry.
      ++out.stats.soft_fallbacks;
      sol = attempt(/*soft=*/true, 1);
    }
  } else {
    sol = attempt(/*soft=*/false, 1);
  }

  if (sol == nullptr) {
    ++out.stats.solve_retries;
    sol = attempt(/*soft=*/config_.enable_soft_constraints, 2);
    if (sol != nullptr && sol->optimal()) rung = 2;
  }

  if (sol == nullptr || !sol->optimal()) {
    // Rung 3: the greedy places what the quota admits from the problem the
    // last attempt solved.  That is the soft form, with each exceedance
    // priced, unless the ablation keeps Eq. 11 hard; there a job with no
    // delay-feasible region left defers instead (the backlog is that
    // ablation's measurement).  The remainder spills, then defers
    // explicitly.
    const std::vector<int> assign = sched::greedy_assign(ws.problem);
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      const dc::PendingJob* p = plan.jobs[j];
      const int r = assign[j];
      if (r < 0) {
        out.unplaced.push_back(p);
        continue;
      }
      --out.leftover[static_cast<std::size_t>(r)];
      ++out.stats.fallback_placements;
      const double start =
          ctx.now + ctx.env->transfer_latency_seconds(p->job->home_region, r,
                                                      p->job->package_bytes);
      out.decisions.push_back(dc::Decision{p->job->id, r, start, 1.0});
    }
    annotate(3);
    return;
  }

  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const dc::PendingJob& p = *plan.jobs[j];
    // Eq. 9 places every job and Eq. 10 caps placements at the quota.
    const int chosen = sol->region[j];
    --out.leftover[static_cast<std::size_t>(chosen)];
    const double start = ctx.now + ctx.env->transfer_latency_seconds(
                                       p.job->home_region, chosen,
                                       p.job->package_bytes);
    out.decisions.push_back(dc::Decision{p.job->id, chosen, start, 1.0});
  }
  annotate(rung);
}

std::vector<dc::Decision> WaterWiseScheduler::commit(
    std::size_t num_chunks, const dc::ScheduleContext& ctx,
    SchedulerStats& window) {
  obs::Span span("sched.commit");
  span.arg("chunks", num_chunks);
  std::vector<dc::Decision> decisions;
  if (num_chunks == 0) return decisions;
  // Slot k holds chunk k, so every loop below runs in chunk-index order,
  // never completion order.

  // Fail fast on any chunk whose solve threw inside the pooled fan-out:
  // surface the lowest-index failure with chunk/window context instead of
  // committing a batch that silently lost a chunk's decisions.
  for (std::size_t k = 0; k < num_chunks; ++k) {
    const ChunkResult& r = slots_[k];
    if (r.error.empty()) continue;
    throw std::runtime_error("WaterWise: chunk " + std::to_string(r.index) +
                             " solve failed at window t=" +
                             std::to_string(ctx.now) + ": " + r.error);
  }

  const auto merge = [&](const ChunkResult& r) {
    window += r.stats;
    decisions.insert(decisions.end(), r.decisions.begin(), r.decisions.end());
  };
  std::size_t placed = 0;
  for (std::size_t k = 0; k < num_chunks; ++k)
    placed += slots_[k].decisions.size();
  decisions.reserve(placed);
  spill_.assign(slots_[0].leftover.size(), 0);
  unplaced_.clear();
  for (std::size_t k = 0; k < num_chunks; ++k) {
    const ChunkResult& r = slots_[k];
    merge(r);
    for (std::size_t i = 0; i < spill_.size(); ++i)
      spill_[i] += r.leftover[i];
    unplaced_.insert(unplaced_.end(), r.unplaced.begin(), r.unplaced.end());
  }

  long spill_total = 0;
  for (const int s : spill_) spill_total += s;
  if (unplaced_.empty()) return decisions;
  const auto unplaced_total = static_cast<long>(unplaced_.size());
  if (spill_total <= 0) {
    // No pooled quota left: every unplaced job is an explicit deferral to
    // the next batch window.
    window.deferred_jobs += unplaced_total;
    return decisions;
  }
  const obs::Span spill_span("sched.spill");

  // One serial spill re-solve: jobs no chunk placed get the pooled unused
  // quota, exactly as a serial scheduler with the same quotas would.  Jobs
  // beyond the pool (or beyond one chunk's worth) stay pending and reappear
  // in the next batch window, matching the pre-pipeline deferral behavior.
  spill_plan_.index = static_cast<int>(num_chunks);
  const auto spill_jobs = static_cast<std::size_t>(std::min<long>(
      {unplaced_total, spill_total,
       static_cast<long>(std::max(1, config_.max_jobs_per_solve))}));
  spill_plan_.jobs.assign(
      unplaced_.begin(),
      unplaced_.begin() + static_cast<std::ptrdiff_t>(spill_jobs));
  spill_plan_.quota = spill_;
  ++window.spill_resolves;
  window.spill_jobs += static_cast<long>(spill_jobs);
  try {
    solve_one(spill_plan_, ctx, snapshot_, spill_result_);
  } catch (const std::exception& e) {
    throw std::runtime_error("WaterWise: spill re-solve (chunk " +
                             std::to_string(spill_plan_.index) +
                             ") failed at window t=" + std::to_string(ctx.now) +
                             ": " + e.what());
  }
  merge(spill_result_);
  // Whatever even the spill re-solve could not place defers explicitly:
  // jobs truncated from the spill chunk plus the re-solve's own unplaced.
  window.deferred_jobs +=
      unplaced_total - static_cast<long>(spill_result_.decisions.size());
  return decisions;
}

std::vector<dc::Decision> WaterWiseScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  // Observability wrapper: a span and the window's counters around the
  // untouched decision logic.  Everything recorded here is write-only —
  // nothing below reads a metric, and no clock but the solve stopwatch —
  // so the decision stream is byte-identical with tracing/metrics on or
  // off.  The simulator records the service-level metrics.
  obs::Span span("sched.window");
  span.arg("t", ctx.now);
  span.arg("batch", batch.size());
  SchedulerStats window;
  std::vector<dc::Decision> decisions = schedule_impl(batch, ctx, window);
  fold_stats(window);
  span.arg("decisions", decisions.size());
  return decisions;
}

std::vector<dc::Decision> WaterWiseScheduler::schedule_impl(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx,
    SchedulerStats& window) {
#ifndef NDEBUG
  // The intensities come from ctx.footprint and every other environment
  // read from ctx.env; one controller view means one environment.
  if (&ctx.footprint->environment() != ctx.env)
    throw std::logic_error(
        "WaterWise: ScheduleContext footprint is not built over its env");
#endif
  const int n = ctx.capacity->num_regions();
  // Lazily size the learner to the environment.
  if (!history_) history_ = std::make_unique<HistoryLearner>(n, kHistoryWindow);

  // Sample every region once; the history learner, the health machine and
  // the chunk costs all read these samples.  wi is Eq. 6,
  // the expression env::Environment::water_intensity evaluates.
  const auto nr = static_cast<std::size_t>(n);
  ctx.footprint->sample_all(ctx.now, snapshot_.intensity);
  if (snapshot_.intensity.size() < nr)
    throw std::out_of_range(
        "WaterWise: the capacity view has more regions than the environment");
  snapshot_.intensity.resize(nr);
  ci_.resize(nr);
  wi_.resize(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    const footprint::Intensities& at = snapshot_.intensity[r];
    ci_[r] = at.ci;
    wi_[r] = (at.wue + at.pue * at.ewif) * at.scarcity;
  }
  history_->observe(ci_, wi_);

  caps_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    caps_[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);
  // Degraded-mode state machine: observe this window, clamp faulty regions'
  // caps (serial — the machine is scheduler state, not chunk state).
  update_region_health(ctx, ci_, wi_, caps_, window);
  int total_cap = 0;
  for (const int c : caps_) total_cap += c;
  if (batch.empty()) return {};
  if (total_cap <= 0) {
    // Nothing placeable this window (e.g. a total outage): every pending
    // job is an explicit deferral, re-examined next window.
    window.deferred_jobs += static_cast<long>(batch.size());
    return {};
  }

  // Algorithm 1: oversubscription goes through the slack manager.
  selected_.clear();
  if (static_cast<int>(batch.size()) > total_cap && config_.enable_slack_manager) {
    const auto order = select_most_urgent(
        batch, ctx, static_cast<std::size_t>(total_cap));
    for (const std::size_t i : order) selected_.push_back(&batch[i]);
  } else {
    for (const auto& p : batch) selected_.push_back(&p);
    if (static_cast<int>(selected_.size()) > total_cap)
      selected_.resize(static_cast<std::size_t>(total_cap));
  }
  // Jobs the slack manager (or cap truncation) left out defer explicitly.
  window.deferred_jobs += static_cast<long>(batch.size() - selected_.size());

  // Plan -> solve -> commit: quota partition, pure per-chunk solves (fanned
  // across the pool when configured) that share the window's snapshot,
  // deterministic in-order merge.  Slot k receives chunk k.
  take_snapshot(ctx, snapshot_);
  const std::size_t num_chunks = fill_plans(selected_, caps_, plans_);
  window.chunks_planned += static_cast<long>(num_chunks);
  if (slots_.size() < num_chunks) slots_.resize(num_chunks);
  // Exception safety across the fan-out: a throwing chunk solve records its
  // message in ChunkResult::error (never crosses the pool boundary raw);
  // commit() re-throws the lowest-index failure with chunk/window context.
  const auto guarded_solve = [&](std::size_t k) {
    try {
      solve_one(plans_[k], ctx, snapshot_, slots_[k]);
    } catch (const std::exception& e) {
      slots_[k].index = plans_[k].index;
      slots_[k].error = e.what();
    } catch (...) {
      slots_[k].index = plans_[k].index;
      slots_[k].error = "unknown exception";
    }
  };
  const std::size_t threads = effective_solver_threads();
  if (threads > 1 && num_chunks > 1) {
    // Fan chunk solves onto the process-global work-stealing pool.  When
    // this window is itself a task on that pool (a campaign scenario), the
    // spawns land on the current worker's own deque and idle workers steal
    // them — one scheduler for both axes, no nested-pool oversubscription.
    // TaskGroup::wait() helps while waiting, so this thread executes
    // pending chunks instead of parking.  guarded_solve never throws
    // (errors land in ChunkResult::error), each task writes only its own
    // slot and workspace, and commit() below merges in chunk-index order,
    // so steal interleavings cannot reach the outputs.
    util::WorkStealingPool& pool = util::WorkStealingPool::global();
    pool.ensure_workers(threads);
    util::TaskGroup group(pool);
    for (std::size_t k = 0; k < num_chunks; ++k)
      group.spawn([&guarded_solve, k] { guarded_solve(k); });
    group.wait();
  } else {
    for (std::size_t k = 0; k < num_chunks; ++k) guarded_solve(k);
  }
  return commit(num_chunks, ctx, window);
}

void WaterWiseScheduler::update_region_health(const dc::ScheduleContext& ctx,
                                              const std::vector<double>& ci_obs,
                                              const std::vector<double>& wi_obs,
                                              std::vector<int>& caps,
                                              SchedulerStats& window) {
  const int n = ctx.capacity->num_regions();
  health_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    RegionHealth& h = health_[static_cast<std::size_t>(r)];
    const int cap_now = ctx.capacity->capacity(r);
    const int prev_max = h.max_capacity_seen;
    h.max_capacity_seen = std::max(h.max_capacity_seen, cap_now);

    // Fault events this window: capacity below the best we have seen (an
    // outage or flap is eating servers), or an observed intensity jump too
    // steep for the smooth hourly-interpolated series (an injected forecast
    // bias stepping in or out).
    const bool capacity_reduced = prev_max > 0 && cap_now < prev_max;
    const bool outage = prev_max > 0 && cap_now <= 0;
    const double ci = ci_obs[static_cast<std::size_t>(r)];
    const double wi = wi_obs[static_cast<std::size_t>(r)];
    bool intensity_jump = false;
    if (h.has_obs && ctx.now - h.last_obs_time <= kFlapWindowS) {
      const double ci_rel =
          std::abs(ci - h.last_ci) / std::max(std::abs(h.last_ci), 1e-9);
      const double wi_rel =
          std::abs(wi - h.last_wi) / std::max(std::abs(h.last_wi), 1e-9);
      intensity_jump = ci_rel > kIntensityJumpFraction ||
                       wi_rel > kIntensityJumpFraction;
    }
    h.last_ci = ci;
    h.last_wi = wi;
    h.last_obs_time = ctx.now;
    h.has_obs = true;

    const bool event = capacity_reduced || intensity_jump;
    if (event) {
      ++window.fault_events;
      h.event_score = std::min(h.event_score + 1, 1000);
      h.clean_windows = 0;
    } else {
      ++h.clean_windows;
    }

    ++h.windows_in_state;
    switch (h.state) {
      case RegionHealth::State::Normal:
        if (outage || h.event_score >= kDegradeAfterEvents) {
          h.state = RegionHealth::State::Degraded;
          h.windows_in_state = 0;
        }
        break;
      case RegionHealth::State::Degraded:
        if (!event && !capacity_reduced &&
            h.clean_windows >= kRecoverAfterClean) {
          h.state = RegionHealth::State::Recovery;
          h.windows_in_state = 0;
          h.event_score = 0;
        }
        break;
      case RegionHealth::State::Recovery:
        if (event) {
          h.state = RegionHealth::State::Degraded;
          h.windows_in_state = 0;
        } else if (h.windows_in_state >= kRecoveryWindows) {
          h.state = RegionHealth::State::Normal;
          h.windows_in_state = 0;
        }
        break;
    }

    // Hard-cap safety rails: a Degraded region takes almost no new work; a
    // recovering one ramps back gradually instead of absorbing the whole
    // backlog the moment the fault clears.
    auto& cap_ref = caps[static_cast<std::size_t>(r)];
    const auto cap = static_cast<double>(cap_now);
    if (h.state == RegionHealth::State::Degraded) {
      ++window.degraded_windows;
      const int rail = static_cast<int>(std::floor(kDegradedCapFraction * cap));
      cap_ref = std::min(cap_ref, rail);
    } else if (h.state == RegionHealth::State::Recovery) {
      const int rail = static_cast<int>(std::floor(kRecoveryCapFraction * cap));
      cap_ref = std::min(cap_ref, std::max(1, rail));
    }
  }
}

}  // namespace ww::core
