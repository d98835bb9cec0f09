#include "core/waterwise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/slack.hpp"
#include "env/faults.hpp"
#include "obs/trace.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"
#include "util/work_steal.hpp"

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

/// Rethrows `e`, a solve's failure, as std::runtime_error with the window's
/// context: "WaterWise: <stage> failed at window t=<now>: <e.what()>".
[[noreturn]] void throw_in_window(const std::string& stage, double now,
                                  const std::exception& e) {
  throw std::runtime_error("WaterWise: " + stage + " failed at window t=" +
                           std::to_string(now) + ": " + e.what());
}

/// `value` where `keep` is set, else 0.0, selected on the bits: the value
/// is computed whether or not it is kept, so a loop of these has no branch.
double or_zero(double value, bool keep) {
  const std::uint64_t mask =
      std::uint64_t{0} - static_cast<std::uint64_t>(keep);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) & mask);
}

/// One job's per-pair terms over the regions of `s`, whose columns are
/// filled: the carbon `co2` and water `h2o` of running it in region r plus
/// moving its package there from `home` (sampled as `at_home`), and the
/// transfer `latency` and its `exceedance` of the job's remaining delay
/// `allowance`.  Per pair that is
/// FootprintModel::compose(operational(at, E), embodied) plus
/// FootprintModel::transfer(home, r, package, at_home, at), with the same
/// operations in the same order: the transfer's Breakdown starts at 0.0,
/// adds both endpoints' operational terms at half the transfer energy,
/// and is zero for r == home or energy <= 0; its embodied fields stay 0.0.
/// Eq. 11 states the delay tolerance as one row per job over the summed
/// transfer latency; since exactly one x_mn is 1, that row forbids every
/// region whose latency exceeds the allowance, so the hard form forbids
/// the pair and the soft form prices the exceedance.  The loop is
/// branch-free and its outputs are restrict-qualified, so it vectorizes.
void pair_terms(const WindowSnapshot& s, int home,
                const footprint::Intensities& at_home, double energy_kwh,
                const footprint::Breakdown& embodied,
                const env::TransferModel::Package& package,
                const env::TransferModel::Row& row, double allowance,
                double* __restrict co2, double* __restrict h2o,
                double* __restrict latency, double* __restrict exceedance) {
  const double* const ci = s.ci.data();
  const double* const ewif = s.ewif.data();
  const double* const wue = s.wue.data();
  const double* const scarcity = s.scarcity.data();
  const double* const pue = s.pue.data();
  const int n = static_cast<int>(s.ci.size());
  for (int r = 0; r < n; ++r) {
    const double op_carbon = energy_kwh * ci[r];
    const double offsite = pue[r] * energy_kwh * ewif[r] * scarcity[r];
    const double onsite = energy_kwh * wue[r] * scarcity[r];
    const double energy = package.gb * row.kwh_per_gb[r];
    const double half = 0.5 * energy;
    const double tr_carbon = (0.0 + half * at_home.ci) + half * ci[r];
    const double tr_offsite =
        (0.0 + at_home.pue * half * at_home.ewif * at_home.scarcity) +
        pue[r] * half * ewif[r] * scarcity[r];
    const double tr_onsite = (0.0 + half * at_home.wue * at_home.scarcity) +
                             half * wue[r] * scarcity[r];
    const bool remote = r != home;
    const bool moves = remote & !(energy <= 0.0);
    co2[r] = (op_carbon + embodied.embodied_carbon_g) +
             or_zero(tr_carbon + 0.0, moves);
    h2o[r] = (offsite + onsite + embodied.embodied_water_l) +
             or_zero(tr_offsite + tr_onsite + 0.0, moves);
    latency[r] = or_zero(row.handshake_s[r] + package.serialize_s, remote);
    exceedance[r] = latency[r] - allowance;
  }
}

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
  const env::Environment& env = ctx.footprint->environment();
  for (std::size_t r = 0; r < n; ++r) {
    const int ri = static_cast<int>(r);
    // Only the Sec. 7 cost term reads the price.
    snap.price[r] = config_.lambda_cost > 0.0
                        ? env.electricity_price(ri, ctx.now)
                        : 0.0;
    snap.history[r] =
        config_.lambda_ref * (config_.lambda_co2 * history_->carbon_ref(ri) +
                              config_.lambda_h2o * history_->water_ref(ri));
  }
}

void WindowSnapshot::fill_columns() {
  const std::size_t n = intensity.size();
  for (std::vector<double>* column : {&ci, &ewif, &wue, &scarcity, &pue})
    column->resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const footprint::Intensities& at = intensity[r];
    ci[r] = at.ci;
    ewif[r] = at.ewif;
    wue[r] = at.wue;
    scarcity[r] = at.scarcity;
    pue[r] = at.pue;
  }
}

void ChunkWorkspace::soften() {
  if (soft) return;
  soft = true;
  // The soft form (Eq. 12-13) charges the exceedance: its penalty
  // P_mn >= exceedance * x_mn has a positive cost and appears in no other
  // row, so every optimum has P_mn = exceedance * x_mn and the penalty
  // folds into x_mn's cost.  A region with no quota still takes no job.
  const std::size_t n = problem.quota.size();
  std::size_t at = 0;
  for (const double rate : penalty_rate) {
    for (std::size_t r = 0; r < n; ++r, ++at) {
      const double exceeds = exceedance[at];
      if (exceeds > 0.0) problem.cost[at] += rate * exceeds;
      problem.allowed[at] = problem.quota[r] > 0 ? 1 : 0;
    }
  }
}

void WaterWiseScheduler::build_costs(
    const std::vector<const dc::PendingJob*>& chunk,
    const std::vector<int>& quota, const dc::ScheduleContext& ctx,
    const WindowSnapshot& snapshot, ChunkWorkspace& ws) const {
  const obs::Span span("sched.model_build");
  const int m = static_cast<int>(chunk.size());
  const int n = static_cast<int>(snapshot.intensity.size());
  const auto un = static_cast<std::size_t>(n);
  if (quota.size() != un || snapshot.ci.size() != un)
    throw std::invalid_argument(
        "WaterWise: the chunk quota and the snapshot columns must have one "
        "entry per sampled region");
  const std::size_t cells = static_cast<std::size_t>(m) * un;
  sched::TransportProblem& problem = ws.problem;
  problem.jobs = m;
  problem.quota = quota;
  problem.cost.resize(cells);
  problem.allowed.resize(cells);
  ws.soft = false;
  ws.exceedance.resize(cells);
  ws.latency.resize(cells);
  ws.penalty_rate.resize(static_cast<std::size_t>(m));
  // Hall's masks hold one bit per region.
  const bool masks = n <= sched::kHallMaxRegions;
  ws.delay_masks.resize(masks ? static_cast<std::size_t>(m) : 0);

  // Objective: Eq. 8 normalized footprint costs + history reference terms,
  // plus the delay tolerance of Eq. 11 (hard) / Eq. 12-13 (soft).
  // The Sec. 7 terms are filled only when the objective weighs them.
  const bool use_usd = config_.lambda_cost > 0.0;
  const bool use_perf = config_.lambda_perf > 0.0;
  const env::Environment& env = ctx.footprint->environment();
  const env::TransferModel& transfer = env.transfer_model();
  ws.co2.resize(un);
  ws.h2o.resize(un);
  ws.usd.resize(use_usd ? un : 0);
  ws.perf.resize(use_perf ? un : 0);
  double* const co2 = ws.co2.data();
  double* const h2o = ws.h2o.data();
  for (int j = 0; j < m; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    const dc::PendingJob& p = *chunk[uj];
    const int home = p.job->home_region;
    const footprint::Intensities& at_home =
        snapshot.intensity.at(static_cast<std::size_t>(home));
    // The remaining delay allowance discounts time already spent waiting in
    // the controller.
    const double waited = ctx.now - p.first_seen;
    const double budget = ctx.tol * kDelayEstimateMargin * p.est_exec_s;
    const double allowance = std::max(0.0, budget - waited);
    ws.penalty_rate[uj] = kSigma / std::max(1.0, ctx.tol * p.est_exec_s);
    // The region-independent parts of the footprint and transfer terms,
    // once per job: the embodied terms, the package's size and
    // serialization time, and the home region's rows of the transfer
    // tables.  Decision-time estimates: current intensities, estimated E
    // and t.
    const footprint::Breakdown embodied =
        ctx.footprint->embodied(p.est_exec_s);
    const env::TransferModel::Package package =
        env.transfer_package(p.job->package_bytes);
    double* const latency = ws.latency.data() + uj * un;
    double* const exceedance = ws.exceedance.data() + uj * un;
    pair_terms(snapshot, home, at_home, p.est_energy_kwh, embodied, package,
               transfer.row(home), allowance, co2, h2o, latency, exceedance);
    if (use_usd)
      for (std::size_t r = 0; r < un; ++r)
        ws.usd[r] = snapshot.pue[r] * p.est_energy_kwh * snapshot.price[r];
    if (use_perf)
      for (std::size_t r = 0; r < un; ++r)
        ws.perf[r] = latency[r] / std::max(1.0, p.est_exec_s);
    const double co2_max =
        std::max(1e-12, *std::max_element(ws.co2.begin(), ws.co2.end()));
    const double h2o_max =
        std::max(1e-12, *std::max_element(ws.h2o.begin(), ws.h2o.end()));
    const double usd_max =
        use_usd
            ? std::max(1e-12, *std::max_element(ws.usd.begin(), ws.usd.end()))
            : 0.0;
    const double perf_max =
        use_perf ? std::max(1e-12,
                            *std::max_element(ws.perf.begin(), ws.perf.end()))
                 : 0.0;
    double* const cost = problem.cost.data() + uj * un;
    std::uint8_t* const allowed = problem.allowed.data() + uj * un;
    std::uint32_t mask = 0;
    for (int r = 0; r < n; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      double c = config_.lambda_co2 * co2[ri] / co2_max +
                 config_.lambda_h2o * h2o[ri] / h2o_max;
      if (use_usd) c += config_.lambda_cost * ws.usd[ri] / usd_max;
      if (use_perf) c += config_.lambda_perf * ws.perf[ri] / perf_max;
      if (config_.enable_history) c += snapshot.history[ri];
      // Deterministic tie-breaking epsilon: jobs of the same benchmark share
      // identical estimates, so without it many assignments tie exactly and
      // the decision would hinge on how the solver breaks ties.  The
      // epsilon makes the optimum unique.
      c += 1e-9 * static_cast<double>(j * n + r);
      cost[ri] = c;
      // The hard form forbids a pair whose exceedance is positive; any
      // other value, NaN included, leaves it allowed where there is quota.
      const bool in_time = !(exceedance[ri] > 0.0);
      allowed[ri] = quota[ri] > 0 && in_time ? 1 : 0;
      if (masks) mask |= static_cast<std::uint32_t>(in_time) << r;
    }
    if (masks) ws.delay_masks[uj] = mask;
  }
}

const sched::TransportSolution& WaterWiseScheduler::run_model(
    ChunkWorkspace& ws, SchedulerStats& stats) const {
  const util::Stopwatch watch;
  sched::TransportSolution& sol = ws.solution;
  sched::transport_assign(ws.problem, sol, ws.solver);
  stats.solve_seconds += watch.elapsed_seconds();
  ++stats.milp_solves;
#ifndef NDEBUG
  // Debug builds (the sanitizer CI job among them) certify every solve:
  // an optimal one by its duals, an infeasible one by its Hall set.
  std::string why;
  if (!sched::certify(ws.problem, sol, &why))
    throw std::logic_error("WaterWise: transport solve failed its "
                           "certificate: " + why);
#endif
  return sol;
}

bool WaterWiseScheduler::hard_form_fits(ChunkWorkspace& ws) const {
  const std::size_t m = ws.penalty_rate.size();
  const std::size_t n = ws.problem.quota.size();
  if (n > static_cast<std::size_t>(sched::kHallMaxRegions) ||
      (std::size_t{1} << n) > m * n)
    return true;
  // hall_verdict drops the regions without quota.
  const bool fits = sched::hall_verdict(ws.delay_masks, ws.problem.quota,
                                        ws.hall) !=
                    sched::HallVerdict::kInfeasible;
#ifndef NDEBUG
  // Debug builds (the sanitizer CI job among them) certify every skipped
  // probe by solving it.
  SchedulerStats unused;
  if (!fits && run_model(ws, unused).optimal())
    throw std::logic_error(
        "WaterWise: Hall's condition rejected a feasible hard form");
#endif
  return fits;
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
  out.decisions.clear();
  out.leftover = plan.quota;
  out.unplaced.clear();
  out.stats = SchedulerStats{};

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

  // Every model form below is this one model, built in its hard form.
  ChunkWorkspace& ws = out.workspace;
  build_costs(plan.jobs, plan.quota, ctx, snapshot, ws);

  // Whether an injected failure (WW_FAULT_SOLVES / config) discards the
  // outcome of attempt `attempt_no`, exactly as a solver crash would; each
  // one counts as a fault event.  Injection is a pure function of (seed,
  // window, chunk, attempt), so the same campaign hits the same ladder
  // rungs at every thread count.
  const auto injected = [&](int attempt_no) {
    if (!env::injected_solve_failure(config_.fault_seed, ctx.now, plan.index,
                                     attempt_no, config_.solve_failure_rate))
      return false;
    ++out.stats.fault_events;
    return true;
  };
  // One solve of the chunk model, nullptr when an injected failure discards
  // its outcome.  A soft attempt first switches the model to the soft form
  // (once; a retry finds it switched).  Every attempt overwrites the
  // workspace's solution.
  const auto attempt = [&](bool soft,
                           int attempt_no) -> const sched::TransportSolution* {
    if (soft) ws.soften();
    const sched::TransportSolution& sol = run_model(ws, out.stats);
    return injected(attempt_no) ? nullptr : &sol;
  };

  // --- Retry-then-degrade ladder ------------------------------------------
  // Attempt 0: hard feasibility probe (soft-enabled path only), solved only
  //            when Hall's condition says it can succeed; otherwise only
  //            its injection draw runs, so fault counts do not move.
  // Attempt 1: primary model (soft, or hard in the soft-disabled ablation).
  // Attempt 2: one plain retry of the primary model after an injected
  //            failure.  The solver is exact, so a proven infeasibility is
  //            final and never retried.
  // Rung 3: guaranteed-feasible greedy placement against the chunk quota.
  // Remainder: spill-eligible, then an explicit deferral — never a drop.
  const sched::TransportSolution* sol = nullptr;
  if (config_.enable_soft_constraints) {
    if (hard_form_fits(ws))
      sol = attempt(/*soft=*/false, 0);
    else
      injected(0);
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

  // Each placed job starts when its package arrives.
  const std::size_t n = plan.quota.size();
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
          ctx.now + ws.latency[j * n + static_cast<std::size_t>(r)];
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
    const double start =
        ctx.now + ws.latency[j * n + static_cast<std::size_t>(chosen)];
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
    throw_in_window(
        "spill re-solve (chunk " + std::to_string(spill_plan_.index) + ")",
        ctx.now, e);
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
  const int n = ctx.capacity->num_regions();
  // Lazily size the learner to the environment.
  if (!history_) history_ = std::make_unique<HistoryLearner>(n, kHistoryWindow);

  // Sample every region once; the history learner, the health machine and
  // the chunk costs all read these samples.
  const auto nr = static_cast<std::size_t>(n);
  ctx.footprint->sample_all(ctx.now, snapshot_.intensity);
  if (snapshot_.intensity.size() < nr)
    throw std::out_of_range(
        "WaterWise: the capacity view has more regions than the environment");
  snapshot_.intensity.resize(nr);
  snapshot_.fill_columns();
  wi_.resize(nr);
  for (std::size_t r = 0; r < nr; ++r)
    wi_[r] = snapshot_.intensity[r].water_intensity();
  history_->observe(snapshot_.ci, wi_);

  caps_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    caps_[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);
  // Degraded-mode state machine: observe this window, clamp faulty regions'
  // caps (serial — the machine is scheduler state, not chunk state).
  update_region_health(ctx, snapshot_.ci, wi_, caps_, window);
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

  // Plan -> solve -> commit: quota partition, pure per-chunk solves that
  // share the window's snapshot, deterministic in-order merge.  Slot k
  // receives chunk k.
  take_snapshot(ctx, snapshot_);
  const std::size_t num_chunks = fill_plans(selected_, caps_, plans_);
  window.chunks_planned += static_cast<long>(num_chunks);
  if (slots_.size() < num_chunks) slots_.resize(num_chunks);
  // One fan-out call: inline for one chunk or one solver thread, else on
  // the global pool, where a window that is itself a campaign scenario
  // task spawns its chunks on its worker's own deque.  Each solve writes
  // only its own slot and workspace, so steal order cannot reach the
  // outputs.  A failing chunk aborts the window with the lowest failing
  // chunk's error and its chunk and window context.
  util::global_parallel_for(
      effective_solver_threads(), num_chunks, [&](std::size_t k) {
        try {
          solve_one(plans_[k], ctx, snapshot_, slots_[k]);
        } catch (const std::exception& e) {
          throw_in_window("chunk " + std::to_string(k) + " solve", ctx.now, e);
        }
      });
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
