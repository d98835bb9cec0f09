// WaterWise: the carbon- and water-footprint co-optimizing scheduler
// (the paper's primary contribution, Sec. 4).
//
// Every batch window, the Decision Controller builds the model of Eq. 8-11
// over all pending jobs and the current (not future) carbon/water intensity
// of every region:
//
//   min sum_mn x_mn [ l_CO2 * CO2(m,n)/CO2max_m + l_H2O * H2O(m,n)/H2Omax_m
//                     + l_ref (l_CO2 * CO2ref_n + l_H2O * H2Oref_n) ]
//   s.t.  sum_n x_mn = 1          (every selected job placed once, Eq. 9)
//         sum_m x_mn <= cap(n)    (region capacity, Eq. 10)
//         sum_n x_mn L_mn <= max(0, TOL * t_m - waited_m)   (Eq. 11)
//
// Algorithm 1 wraps the solver: when pending jobs exceed total capacity the
// slack manager (Eq. 14) picks the most-urgent subset and the relaxed model
// runs; when the hard model is infeasible the delay constraint is softened
// (Eq. 12-13): each placement's delay exceedance is charged at weight sigma.
// The paper's penalty variables P_mn are substituted out (every optimum has
// P_mn = exceedance_mn * x_mn), so the penalty is part of x_mn's cost and
// both forms are the same min-cost transportation problem.  The delay row
// forbids (job, region) pairs in the hard form, and a region without quota
// takes no job.  sched::transport_assign (sched/transport.hpp) solves it
// exactly; the tests check it against a dense-simplex oracle
// (tests/support/milp/).  Estimates of execution time and energy come from
// the online means the simulator learns — the controller never sees true
// per-job values.
//
// Apart from those estimates, every input of a job's costs is constant
// within a window.  So `schedule_impl` first samples each region once into
// a `WindowSnapshot`: the controller-view intensities
// (`footprint::Intensities`), sampled before the history observe.  The
// history learner and the degraded-mode health machine read their carbon
// and water intensities from those samples, so the controller never reads
// a region twice in one window.  Once the learner has observed, the
// snapshot adds the weighted history term and, only when the Sec. 7 cost
// term is weighted, the electricity price, and copies the intensities into
// region-major columns.  Each chunk builds its model from the snapshot in
// one pass over its jobs (span `sched.model_build`), and transfer terms
// come from the home region's rows of the `env::TransferModel` tables.
// The terms that do not depend on the region (the embodied footprint and
// the package's size and serialization time) are computed once per job;
// per (job, region) only the operational terms, the pair's transfer energy
// and handshake, the sums and the normalizations remain, in a branch-free
// loop over the columns.  That loop repeats, operation for operation, the
// formulas the ledger uses (`FootprintModel::operational`, `transfer`,
// `compose`), so decisions are bit-identical to evaluating
// `job_at(r, now, ...)` per pair.
//
// ## The plan -> solve -> commit pipeline
//
// Batches larger than `max_jobs_per_solve` decompose into independent chunk
// models.  Chunk solves are structured as a three-stage pipeline so they can
// fan out through `util::global_parallel_for` without any shared mutable
// state:
//
//   1. `plan_chunks()` partitions the window's remaining capacity into
//      per-chunk quotas up front (proportional largest-remainder per region,
//      repaired so every chunk's quota covers its job count).  Quotas are
//      disjoint by construction, so concurrent chunks can never double-book
//      a region.
//   2. `solve_one()` is `const` and writes only its result slot: it builds
//      one chunk's model from the window snapshot, solves the chunk
//      against its private quota and fills a self-contained `ChunkResult`
//      (decisions, a `SchedulerStats` delta, leftover quota, spill-eligible
//      jobs).  Pure per-chunk work is what makes the fan-out sound at any
//      thread count.  `schedule_impl` runs the solves through one
//      `util::global_parallel_for(effective_solver_threads(), chunks, ...)`
//      call: inline on the calling thread for one chunk or one thread, on
//      the process-global work-stealing pool otherwise.  A throwing solve
//      aborts the window; the call rethrows the lowest failing chunk's
//      error, which names the chunk and the window time.
//   3. `commit()` merges results in chunk-index order — the only stage that
//      touches scheduler state — returns unused quota to a spill pool, and
//      re-solves any spill-eligible remainder serially against that pool.
//
// Workspace ownership: the scheduler owns all window scratch and refills it
// every window — the observed intensities, capacities, selection, snapshot
// and chunk plans, and one `ChunkResult` slot per chunk index.  Each slot
// owns a `ChunkWorkspace` (the chunk's model, normalisers, solution and
// solver scratch), so a pooled chunk solve touches only its
// own slot; no buffer is thread-local and none is locked.  Once the
// buffers have grown to the largest batch, a single-chunk window allocates
// only the decision vector schedule() returns
// (tests/core_window_alloc_test.cpp).
//
// Determinism contract: each `ChunkResult` is a pure function of its
// `ChunkPlan` (the solver itself is deterministic and keeps no global
// state; a reused slot is overwritten in full), the commit order is the
// chunk index, never completion order, and a failure is always the lowest
// failing chunk's.  Decision streams, campaign aggregates and errors are
// therefore byte-identical for every `solver_threads` value and under any
// steal interleaving of the shared pool;
// tests/core_scheduler_parallel_test.cpp, bench_fig8/11/12's equivalence
// check, and bench_fig13's startup self-check enforce it.  Work stealing
// is observable only through the process-wide
// `util::WorkStealingPool::global()` counters, which — like decision
// latency — are observational and excluded from byte-identity
// comparisons.
//
// Knobs: `WaterWiseConfig::solver_threads` (1 = serial, 0 = all cores) and
// the `WW_SCHED_THREADS` environment switch, which overrides the config
// process-wide; a value that is not an integer in [0, 1024] throws
// std::invalid_argument.
//
// ## Graceful degradation
//
// Chunk solves run a bounded retry-then-degrade ladder instead of a single
// hard->soft fallback: hard probe -> (soft model) -> one plain retry after
// an injected failure -> greedy placement -> spill re-solve -> explicit
// deferral.  Hall's condition (sched::hall_verdict) decides the hard probe
// first, wherever the test costs no more than the probe's fill, so the
// probe is solved only when it can succeed; a rejected probe still takes
// its injection draw, and the ladder moves on as after an infeasible
// solve.  Every rung reads the chunk's one model, built in its hard form
// and switched to the soft form in place by the first soft attempt: the
// greedy rung (sched::greedy_assign) places jobs from the transportation
// problem the last attempt solved, which is the soft form (exceedance
// priced) when soft constraints are on and the hard form (delay-violating
// pairs forbidden) in the ablation without them.  The transportation
// solver is exact and has no budget, so a solve ends optimal or proven
// infeasible; only an injected failure loses an outcome.  Every rung is deterministic, and every job
// ends placed or counted in `SchedulerStats::deferred_jobs`; nothing is
// silently dropped.
//
// A per-region Normal -> Degraded -> Recovery state machine watches
// capacity losses and observed intensity jumps, and clamps how much of a
// faulty region's capacity new placements may claim.  Its triggers are
// event counts over batch windows, never wall-clock, so its trajectory is a
// pure function of the decision stream.  Its thresholds and rails are
// constants in waterwise.cpp; README "Robustness & fault injection" lists
// them.  `WW_FAULT_SOLVES` injects deterministic solve failures
// (env::injected_solve_failure) to exercise the ladder.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "dc/scheduler.hpp"
#include "obs/registry.hpp"
#include "sched/transport.hpp"

namespace ww::core {

/// Probability in [0, 1] that a chunk solve outcome is discarded as an
/// injected fault, from the `WW_FAULT_SOLVES` environment switch (unset =
/// 0, i.e. no injection; anything but a number in [0, 1] throws
/// std::invalid_argument naming the variable and the value).  Cached once
/// per process, mirroring WW_SCHED_THREADS: fault campaigns are a process
/// property.
[[nodiscard]] double default_solve_failure_rate();

/// Safety factor on the estimated execution time inside the delay rows
/// (Eq. 11): the controller knows only *mean* estimates, so a job's delay
/// allowance is TOL * kDelayEstimateMargin * est_exec_s, which keeps
/// headroom against jobs that run shorter than their estimate.
inline constexpr double kDelayEstimateMargin = 0.8;

/// History-learner window in batch windows (the paper's default).
inline constexpr int kHistoryWindow = 10;

struct WaterWiseConfig {
  double lambda_co2 = 0.5;   ///< Carbon objective weight (Fig. 8 sweeps it).
  double lambda_h2o = 0.5;   ///< Water objective weight.
  double lambda_ref = 0.1;   ///< History-learner weight (paper default).
  /// Sec. 7 extensions (default off = exact paper objective):
  /// additional additive objective terms for electricity cost and
  /// performance (normalized transfer-induced service-time stretch).
  double lambda_cost = 0.0;
  double lambda_perf = 0.0;
  bool enable_soft_constraints = true;  ///< Ablation knob.
  bool enable_slack_manager = true;     ///< Ablation knob.
  bool enable_history = true;           ///< Ablation knob.
  int max_jobs_per_solve = 400;  ///< Chunk very large batches for the solver.
  /// Threads for the chunk solves inside one batch window (the plan ->
  /// solve -> commit pipeline): 1 = serial, 0 = all cores, N = fixed pool.
  /// Results are byte-identical at every setting; the WW_SCHED_THREADS
  /// environment switch overrides this process-wide.
  int solver_threads = 1;
  /// Injected solve-failure probability (WW_FAULT_SOLVES); each discarded
  /// outcome is a deterministic function of (fault_seed, window, chunk,
  /// attempt) — see env::injected_solve_failure — so fault campaigns are
  /// byte-identical at every thread count.
  double solve_failure_rate = default_solve_failure_rate();
  std::uint64_t fault_seed = 0x57415457ULL;  ///< Stream id for injection.
};

/// Aggregate Decision-Controller solver diagnostics over the scheduler's
/// lifetime: how many chunk models were solved and how long the solves
/// took (Fig. 13 overhead attribution), plus the pipeline and degradation
/// counters.  The transportation solver runs no simplex, branch-and-bound
/// or presolve, so nodes_explored through presolve_seconds read 0.
///
/// The scheduler's `obs::Registry` is the store: every field is a `sched.*`
/// registry entry, and `stats()` reads them back into this struct.  The
/// struct is also the unit of accumulation — one per chunk
/// (`ChunkResult::stats`) and one per batch window, folded into the
/// registry once per window — and `operator+=` merges several schedulers'
/// lifetimes for tests and benches.  Every field is listed once more, in
/// kStatsCounters / kStatsGauges below; all per-field code loops over those
/// tables.  Service-level metrics (decision latency, queue depth,
/// time-to-admission) are the simulator's, in `dc::CampaignResult` — see
/// README "Observability".
struct SchedulerStats {
  /// Chunk model solves actually run (transport_assign); a hard probe
  /// that Hall's condition rejects is not solved and not counted.
  long milp_solves = 0;
  long soft_fallbacks = 0;       ///< Hard model failed, soft model ran.
  long nodes_explored = 0;       ///< Branch-and-bound nodes across solves.
  long simplex_iterations = 0;
  long refactorizations = 0;     ///< Sparse-kernel LU factorizations.
  long ft_updates = 0;           ///< Forrest-Tomlin basis updates absorbed.
  /// Presolve reductions across all solves: model rows the simplex never
  /// saw, and the wall-clock the reductions cost (included in
  /// solve_seconds).
  long presolve_rows_removed = 0;
  double presolve_seconds = 0.0;
  double solve_seconds = 0.0;    ///< Wall-clock inside transport_assign.
  /// Plan/solve/commit pipeline counters: chunk plans produced, jobs routed
  /// through the serial spill re-solve, and spill re-solves run.
  long chunks_planned = 0;
  long spill_jobs = 0;
  long spill_resolves = 0;
  /// Fault/degradation counters (see "Graceful degradation" above):
  /// injected-or-observed fault events, windows a region spent rail-capped
  /// in Degraded state, retries after an injected solve failure, greedy-
  /// ladder placements, and jobs explicitly deferred to a later window.
  long fault_events = 0;
  long degraded_windows = 0;
  long solve_retries = 0;
  long fallback_placements = 0;
  long deferred_jobs = 0;

  /// Merges another stats delta (per-chunk result, or another scheduler's
  /// lifetime stats) into this one, field by field.
  SchedulerStats& operator+=(const SchedulerStats& o) noexcept;
};

/// One row of the SchedulerStats field table: the field's registry key and
/// the field.
template <typename T>
struct StatsField {
  const char* key;
  T SchedulerStats::*member;
};

/// The SchedulerStats field table, `long` counters then `double` gauges.
/// Registry registration, the per-window fold, the stats() view and
/// operator+= all loop over it, so a new metric is one struct field plus
/// one row here.
inline constexpr StatsField<long> kStatsCounters[] = {
    {"sched.milp_solves", &SchedulerStats::milp_solves},
    {"sched.soft_fallbacks", &SchedulerStats::soft_fallbacks},
    {"sched.nodes_explored", &SchedulerStats::nodes_explored},
    {"sched.simplex_iterations", &SchedulerStats::simplex_iterations},
    {"sched.refactorizations", &SchedulerStats::refactorizations},
    {"sched.ft_updates", &SchedulerStats::ft_updates},
    {"sched.presolve_rows_removed", &SchedulerStats::presolve_rows_removed},
    {"sched.chunks_planned", &SchedulerStats::chunks_planned},
    {"sched.spill_jobs", &SchedulerStats::spill_jobs},
    {"sched.spill_resolves", &SchedulerStats::spill_resolves},
    {"sched.fault_events", &SchedulerStats::fault_events},
    {"sched.degraded_windows", &SchedulerStats::degraded_windows},
    {"sched.solve_retries", &SchedulerStats::solve_retries},
    {"sched.fallback_placements", &SchedulerStats::fallback_placements},
    {"sched.deferred_jobs", &SchedulerStats::deferred_jobs},
};
inline constexpr StatsField<double> kStatsGauges[] = {
    {"sched.presolve_seconds", &SchedulerStats::presolve_seconds},
    {"sched.solve_seconds", &SchedulerStats::solve_seconds},
};

inline SchedulerStats& SchedulerStats::operator+=(
    const SchedulerStats& o) noexcept {
  for (const auto& f : kStatsCounters) this->*f.member += o.*f.member;
  for (const auto& f : kStatsGauges) this->*f.member += o.*f.member;
  return *this;
}

/// The window-constant inputs of the Eq. 8 costs: every region sampled once
/// per batch window.  Filled serially by the scheduler into its reused
/// snapshot, then only read, so all chunk solves of the window (pooled or
/// the spill re-solve) share one by const reference.
struct WindowSnapshot {
  /// ctx.footprint->sample(r, ctx.now): the controller's view of region r,
  /// sampled for all regions at once by sample_all before the history
  /// observe, which reads it.
  std::vector<footprint::Intensities> intensity;
  /// The fields of `intensity`, region-major, for the chunks' cost loop;
  /// fill_columns() copies them.
  std::vector<double> ci, ewif, wue, scarcity, pue;
  /// electricity_price(r, ctx.now) of ctx.footprint's environment, USD/kWh;
  /// 0 unless lambda_cost > 0 (nothing else reads it).
  std::vector<double> price;
  /// The weighted history term of Eq. 8,
  /// lambda_ref * (lambda_co2 * CO2ref_r + lambda_h2o * H2Oref_r); the
  /// costs read it only when enable_history is set.
  std::vector<double> history;

  /// Copies `intensity` into the columns, resizing them to its size.
  void fill_columns();
};

/// One chunk's share of a batch window: the jobs it must decide and the
/// per-region capacity quota reserved exclusively for it.  Quotas of the
/// plans returned by one `plan_chunks()` call are disjoint and sum to the
/// window's capacity, so no two chunks can place into the same server slot.
struct ChunkPlan {
  int index = 0;  ///< Commit order; chunk 0 holds the most-urgent jobs.
  std::vector<const dc::PendingJob*> jobs;
  std::vector<int> quota;  ///< Per-region slots this chunk alone may use.
};

/// Scratch for one chunk solve, reused window after window: the chunk's
/// Eq. 8-13 transportation model, the per-pair terms it is built from, the
/// per-region normaliser vectors, and the solution and solver scratch.
/// Each result slot owns one, so concurrent chunk solves share nothing.
struct ChunkWorkspace {
  /// The chunk's model.  WaterWiseScheduler::build_costs writes its hard
  /// form: job-major m x n costs (the normalized Eq. 8 cost, the history
  /// term and the tie-break epsilon), each pair allowed when its region
  /// has quota and its delay exceedance is not positive (Eq. 11), and the
  /// chunk's quota.  soften() switches it to the soft form in place.
  /// Every rung of the retry ladder reads it; the greedy rung places from
  /// the form the last attempt solved.
  sched::TransportProblem problem;
  /// Whether `problem` holds the soft form.
  bool soft = false;
  /// Job-major m x n: transfer latency minus the job's remaining delay
  /// allowance (Eq. 11); positive means the pair violates it.
  std::vector<double> exceedance;
  /// Job-major m x n: the pair's transfer latency, seconds.  A placed job
  /// starts when its package arrives, this long after the window.
  std::vector<double> latency;
  /// Per job: the Eq. 12 penalty per second of exceedance.
  std::vector<double> penalty_rate;
  /// Per region, for the job being costed: carbon, water, electricity cost
  /// and transfer stretch, before each is normalized by its max over the
  /// regions.  `usd` and `perf` are filled only when lambda_cost /
  /// lambda_perf is positive.
  std::vector<double> co2, h2o, usd, perf;
  /// Per job: the regions whose delay exceedance is not positive, as a
  /// bitmask (filled for chunks of at most sched::kHallMaxRegions
  /// regions), and the 2^n-entry scratch of the Hall test over them
  /// (sched::hall_verdict).
  std::vector<std::uint32_t> delay_masks;
  std::vector<int> hall;
  sched::TransportSolution solution;
  sched::TransportWorkspace solver;

  /// Switches `problem` from the hard form to the soft form (Eq. 12-13) in
  /// place: a pair whose exceedance is positive costs penalty_rate *
  /// exceedance more, and every pair is allowed where its region has
  /// quota.  Once the soft form is held it does nothing, so a retry never
  /// adds the penalty twice.
  void soften();
};

/// Outcome of one pure chunk solve: everything `commit()` needs, nothing
/// shared with any other chunk.  The scheduler keeps one slot per chunk
/// index and refills it every window, so its vectors keep their capacity.
/// A solve that throws leaves its slot unspecified; the window aborts.
struct ChunkResult {
  std::vector<dc::Decision> decisions;
  /// Quota slots the solve did not consume; returned to the spill pool.
  std::vector<int> leftover;
  /// Jobs the greedy rung could not place (quota exhausted, or the
  /// soft-disabled ablation's Eq. 11 forbids every region with quota):
  /// eligible for one serial spill re-solve against the pooled leftover
  /// quota.
  std::vector<const dc::PendingJob*> unplaced;
  SchedulerStats stats;  ///< Per-chunk delta, merged by commit().
  ChunkWorkspace workspace;
};

class WaterWiseScheduler final : public dc::Scheduler {
 public:
  explicit WaterWiseScheduler(WaterWiseConfig config = {});

  [[nodiscard]] std::string name() const override { return "WaterWise"; }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override;

  [[nodiscard]] const WaterWiseConfig& config() const noexcept {
    return config_;
  }
  /// Lifetime solver diagnostics, read from the metrics registry on each
  /// call (see the SchedulerStats comment).
  [[nodiscard]] SchedulerStats stats() const;

  /// The scheduler's metrics registry: one "sched.*" counter or gauge per
  /// SchedulerStats field.  Counters are deterministic; the gauges hold
  /// wall-clock seconds and are observational only.  Service-level metrics
  /// are the simulator's (dc::CampaignResult::service).
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

  /// Thread count the chunk fan-out actually uses: WW_SCHED_THREADS when
  /// set, else config().solver_threads, with 0 resolving to all cores.
  /// Throws std::invalid_argument when WW_SCHED_THREADS is set to anything
  /// but an integer in [0, 1024].
  [[nodiscard]] std::size_t effective_solver_threads() const;

  // --- The plan -> solve -> commit pipeline (public for tests/benches). ---

  /// Stage 1: splits `selected` (already urgency-ordered and capped at the
  /// window's total capacity) into chunks of at most max_jobs_per_solve and
  /// partitions `caps` into disjoint per-chunk quotas.  Each region is
  /// apportioned proportionally to chunk sizes (largest remainder, ties to
  /// the lower chunk index), then repaired so every chunk's quota total
  /// covers its job count.  Pure: depends only on the arguments and config.
  [[nodiscard]] std::vector<ChunkPlan> plan_chunks(
      const std::vector<const dc::PendingJob*>& selected,
      const std::vector<int>& caps) const;

  /// Stage 2: solves one chunk against its private quota (hard model, then
  /// the Algorithm-1 soft fallback; the hard model only when Hall's
  /// condition says it fits) and extracts decisions into `out`,
  /// overwriting it and reusing its buffers and workspace.  Costs come from
  /// the window's `snapshot`.  Const and writes only `out`, so it is safe
  /// to run concurrently for different plans into different slots.
  void solve_one(const ChunkPlan& plan, const dc::ScheduleContext& ctx,
                 const WindowSnapshot& snapshot, ChunkResult& out) const;

  /// solve_one's model build: the chunk's model against `quota` into `ws`
  /// from the window snapshot (its columns filled), in one pass over the
  /// jobs (span `sched.model_build`): the hard form of `ws.problem`, the
  /// exceedance, latency and penalty rate of every pair or job, and each
  /// job's delay mask.  Throws std::invalid_argument unless `quota` and
  /// the snapshot's columns have one entry per sampled region.
  void build_costs(const std::vector<const dc::PendingJob*>& chunk,
                   const std::vector<int>& quota,
                   const dc::ScheduleContext& ctx,
                   const WindowSnapshot& snapshot, ChunkWorkspace& ws) const;

 private:
  /// plan_chunks() into `plans`: fills the first N plans, reusing their
  /// buffers, and returns N.  `plans` grows when N exceeds its size and
  /// never shrinks, so entries past N keep their capacity for later
  /// windows.
  std::size_t fill_plans(const std::vector<const dc::PendingJob*>& selected,
                         const std::vector<int>& caps,
                         std::vector<ChunkPlan>& plans) const;

  /// Stage 3: merges the first `num_chunks` result slots in chunk-index
  /// order (decisions into the return value, stats into `window`), pools
  /// leftover quota, and re-solves spill-eligible jobs serially against
  /// the pool.  The only stage that mutates scheduler state.
  [[nodiscard]] std::vector<dc::Decision> commit(
      std::size_t num_chunks, const dc::ScheduleContext& ctx,
      SchedulerStats& window);

  /// Solves the form `ws.problem` holds (Eq. 8-13 as a transportation
  /// problem: job-major m x n costs, forbidden pairs masked out) with
  /// sched::transport_assign into `ws.solution`, which it returns; copies
  /// nothing.  `region[j]` is job j's region.  The solve count and time
  /// accumulate into `stats`; the time brackets only the solve.  Builds
  /// without NDEBUG certify every solve, optimal or infeasible, and throw
  /// std::logic_error on a failed certificate.
  const sched::TransportSolution& run_model(ChunkWorkspace& ws,
                                            SchedulerStats& stats) const;

  /// Whether the hard form in `ws` can be solved, decided by Hall's
  /// condition (sched::hall_verdict) over the delay masks build_costs
  /// wrote and the chunk's quota: the pairs the hard form allows.  The
  /// test reads 2^n counts, so it runs only where 2^n <= m * n, no more
  /// than the m x n work of the probe it may save; elsewhere it answers
  /// true and the probe decides.  Builds without NDEBUG solve every hard
  /// form the test rejects and throw std::logic_error unless it is
  /// infeasible.
  bool hard_form_fits(ChunkWorkspace& ws) const;

  /// Per-region degraded-mode state (see "Graceful degradation").  Updated
  /// once per batch window, serially, before the chunk fan-out.
  struct RegionHealth {
    enum class State { Normal, Degraded, Recovery };
    State state = State::Normal;
    int event_score = 0;     ///< Recent fault events (saturating).
    int clean_windows = 0;   ///< Consecutive event-free windows.
    int windows_in_state = 0;
    int max_capacity_seen = 0;
    double last_ci = 0.0;    ///< Last observed carbon intensity.
    double last_wi = 0.0;    ///< Last observed water intensity.
    double last_obs_time = -1.0;
    bool has_obs = false;
  };

  /// Advances every region's state machine on this window's observations
  /// (capacity losses, and jumps in the carbon and water intensities
  /// `ci_obs` / `wi_obs` the history learner observed, both read from the
  /// window snapshot), counts fault events
  /// and degraded windows into `window`, and applies the Degraded/Recovery
  /// hard-cap rails to `caps` in place.
  void update_region_health(const dc::ScheduleContext& ctx,
                            const std::vector<double>& ci_obs,
                            const std::vector<double>& wi_obs,
                            std::vector<int>& caps, SchedulerStats& window);

  /// Fills the price and history rows of `snap` for this window (see
  /// WindowSnapshot); the intensities are already sampled.
  void take_snapshot(const dc::ScheduleContext& ctx,
                     WindowSnapshot& snap) const;

  /// schedule() minus the observability wrapper (spans, the window
  /// counter and the queue-depth histogram); keeps the decision logic free
  /// of instrumentation.  All of the window's counters accumulate into
  /// `window`.  Fans the chunk solves out through one global_parallel_for
  /// call; a chunk solve's exception leaves as std::runtime_error
  /// "WaterWise: chunk <k> solve failed at window t=<now>: <message>", the
  /// lowest failing chunk's.
  [[nodiscard]] std::vector<dc::Decision> schedule_impl(
      const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx,
      SchedulerStats& window);

  /// Typed registry handles, resolved once at construction so the hot path
  /// never does string lookups: one per kStatsCounters / kStatsGauges row.
  struct Handles {
    std::array<obs::Counter, std::size(kStatsCounters)> stats_counters;
    std::array<obs::Gauge, std::size(kStatsGauges)> stats_gauges;
  };
  /// Folds one window's SchedulerStats delta into the registry.
  void fold_stats(const SchedulerStats& delta);

  WaterWiseConfig config_;
  std::unique_ptr<HistoryLearner> history_;
  obs::Registry registry_;
  Handles handles_;
  std::vector<RegionHealth> health_;
  // Window scratch, refilled every window so a steady-state window does not
  // allocate: the observed water intensities (the carbon intensities are
  // the snapshot's `ci` column), capacities, selection and snapshot, the
  // chunk plans with one result slot per chunk index (both only grow), and
  // commit's spill pool, spill plan and spill slot.
  std::vector<double> wi_;
  std::vector<int> caps_;
  std::vector<const dc::PendingJob*> selected_;
  WindowSnapshot snapshot_;
  std::vector<ChunkPlan> plans_;
  std::vector<ChunkResult> slots_;
  std::vector<int> spill_;
  std::vector<const dc::PendingJob*> unplaced_;
  ChunkPlan spill_plan_;
  ChunkResult spill_result_;
  // No scheduler-local pool: multi-chunk windows fan out through
  // util::global_parallel_for, so campaign scenario tasks and chunk
  // subtasks share one set of workers (no nested-pool oversubscription).
};

}  // namespace ww::core
