// Campaign benchmark: replays WaterWise campaigns through the public API
// (trace generator, environment/footprint model, simulator, scheduler) and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as one JSON object on the last line of stdout.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A workload is a set of campaigns, each over its own trace drawn from the
// seed; one repetition replays all of them with fresh schedulers.  A run
// sets up its inputs several times (setup_s is the median), runs one
// untimed repetition that doubles as the correctness reference, then
// repeats until --seconds have passed.  Every campaign run must reproduce
// its reference fingerprint.  Each timed run is scaled to a reference host
// speed by a kernel timed around it (campaignbench::host_scale); a timing
// metric takes, per campaign, the median of those scaled runs, then sums
// or averages over campaigns.  Latency quantiles come from the simulator's raw
// per-window samples (CampaignResult::overhead_series), never from the
// registry's fixed-bin service.* histograms.  Exit codes: 0 ok, 1 a
// correctness check failed, 2 bad arguments or a WW_* process switch is set.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "env/environment.hpp"
#include "footprint/footprint.hpp"
#include "obs/trace.hpp"
#include "trace/generator.hpp"
#include "util/timer.hpp"
#include "util/work_steal.hpp"

namespace {

using namespace ww;
using campaignbench::host_scale;
using campaignbench::median;
using campaignbench::quantile;
using campaignbench::time_reference_kernel;

/// Process-wide switches that each silently change the program measured.
constexpr const char* kProcessSwitches[] = {
    "WW_PRESOLVE", "WW_REFACTOR_EVERY_PIVOT", "WW_SCHED_THREADS",
    "WW_FAULT_SOLVES", "WW_TRACE"};

/// Spans whose self time the traced run reports: the benchmark's own spans
/// around its public calls, then the program's existing spans.
constexpr const char* kSpans[] = {
    "bench.campaign", "bench.schedule",    "sim.window",   "sim.apply",
    "sched.window",   "sched.chunk_solve", "sched.commit", "sched.spill",
    "milp.solve",     "milp.presolve",     "milp.lp"};

constexpr int kSetupRepeats = 5;

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

struct Workload {
  std::string name;
  /// One trace per campaign.  Several short campaigns rather than one long
  /// one keep each traced campaign under obs::Trace's per-thread event cap.
  std::vector<trace::TraceConfig> traces;
  double burst_s = 0.0;  ///< Submit times floored to this grid when > 0.
  double tol = 0.5;
  core::WaterWiseConfig scheduler;  ///< Timed runs are serial.
  /// When > 0, every campaign is also run once untimed on this many solver
  /// threads and must reproduce the serial fingerprint.  That run fans the
  /// chunks out over the work-stealing pool and supplies the pool counters.
  int check_threads = 0;
};

/// The workloads; README.md says why each exists.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const auto campaigns = [&](auto config, int count, double days) {
    for (int i = 0; i < count; ++i)
      w.traces.push_back(config(seed * 1000 + static_cast<std::uint64_t>(i),
                                days));
  };
  if (name == "borg-steady") {
    campaigns(trace::borg_config, 12, 1.0);
  } else if (name == "alibaba-peak") {
    campaigns(trace::alibaba_config, 12, 0.25);
  } else if (name == "burst-chunked") {
    campaigns(trace::borg_config, 4, 4.0);
    w.burst_s = 300.0;
    w.scheduler.max_jobs_per_solve = 25;
    w.check_threads = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// Everything one campaign reads, built by the timed set-up.
struct CampaignInput {
  std::vector<trace::Job> jobs;
  std::unique_ptr<env::Environment> env;
  std::unique_ptr<footprint::FootprintModel> fp;
};

struct Inputs {
  std::vector<CampaignInput> campaigns;
  std::size_t jobs = 0;
  double generate_s = 0.0;
  double env_s = 0.0;
};

Inputs build_inputs(const Workload& w) {
  Inputs in;
  for (const trace::TraceConfig& tc : w.traces) {
    CampaignInput c;
    const util::Stopwatch gen_watch;
    c.jobs = trace::generate_trace(tc);
    if (w.burst_s > 0.0)
      for (trace::Job& j : c.jobs)
        j.submit_time = std::floor(j.submit_time / w.burst_s) * w.burst_s;
    in.generate_s += gen_watch.elapsed_seconds();
    in.jobs += c.jobs.size();

    const util::Stopwatch env_watch;
    c.env = std::make_unique<env::Environment>(env::Environment::builtin());
    c.fp = std::make_unique<footprint::FootprintModel>(*c.env);
    in.env_s += env_watch.elapsed_seconds();
    in.campaigns.push_back(std::move(c));
  }
  return in;
}

/// Forwarding scheduler: records what the simulator does not, the batch
/// size of every window and the number of decisions returned.  Decision
/// latency comes from the simulator's own per-window timing.
class CountingScheduler final : public dc::Scheduler {
 public:
  explicit CountingScheduler(core::WaterWiseScheduler& inner)
      : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override {
    const obs::Span span("bench.schedule");
    std::vector<dc::Decision> decisions = inner_.schedule(batch, ctx);
    batch_sizes.push_back(static_cast<double>(batch.size()));
    decisions_returned += static_cast<long>(decisions.size());
    return decisions;
  }

  void on_job_finished(const trace::Job& job) override {
    inner_.on_job_finished(job);
  }

  std::vector<double> batch_sizes;
  long decisions_returned = 0;

 private:
  core::WaterWiseScheduler& inner_;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over one campaign's job count, carbon, water, violations and
/// jobs_per_region.
std::uint64_t fingerprint(const dc::CampaignResult& r) {
  campaignbench::Fingerprint fp;
  fp.add(r.num_jobs).add(r.total_carbon_g).add(r.total_water_l).add(
      r.violations);
  for (const long n : r.jobs_per_region) fp.add(n);
  return fp.value();
}

/// What one timed run of one campaign measured.
struct Sample {
  std::uint64_t fingerprint = 0;
  double sim_s = 0.0;       ///< Simulator::run wall.
  double schedule_s = 0.0;  ///< Summed schedule() wall, all windows.
  std::size_t windows = 0;
  double p50_s = 0.0, p99_s = 0.0;  ///< Quantiles of per-window latency.
  double cpu_s = 0.0;
  double solve_s = 0.0, presolve_s = 0.0;
  std::map<std::string, double> span_self_s;  ///< Traced runs only.
  double scale = 1.0;  ///< host_scale() of the kernel timed around the run.
};

/// A full campaign run: the sample plus what only the reference keeps.
struct Outcome {
  dc::CampaignResult result;
  core::SchedulerStats stats;
  std::vector<double> batch_sizes;
  long decisions_returned = 0;
  std::uint64_t tasks_run = 0, tasks_stolen = 0, steal_attempts = 0;
  Sample sample;
};

Outcome run_campaign(const Workload& w, const CampaignInput& c, bool traced,
                     bool record_jobs, int solver_threads) {
  core::WaterWiseConfig cfg = w.scheduler;
  cfg.solver_threads = solver_threads;
  core::WaterWiseScheduler scheduler(cfg);
  CountingScheduler counting(scheduler);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = w.tol;
  sim_cfg.record_jobs = record_jobs;
  dc::Simulator sim(*c.env, *c.fp, sim_cfg);

  obs::Trace& tr = obs::Trace::instance();
  tr.clear();
  tr.set_enabled(traced);
  const util::WorkStealingPool& pool = util::WorkStealingPool::global();
  const std::uint64_t run0 = pool.tasks_run();
  const std::uint64_t stolen0 = pool.tasks_stolen();
  const std::uint64_t attempts0 = pool.steal_attempts();
  Outcome out;
  Sample& s = out.sample;
  const double kernel_before_s = time_reference_kernel();
  const double cpu0 = cpu_seconds();
  const util::Stopwatch watch;
  {
    const obs::Span span("bench.campaign");
    out.result = sim.run(c.jobs, counting);
  }
  s.sim_s = watch.elapsed_seconds();
  s.cpu_s = cpu_seconds() - cpu0;
  tr.set_enabled(false);
  s.scale = host_scale(0.5 * (kernel_before_s + time_reference_kernel()));
  out.tasks_run = pool.tasks_run() - run0;
  out.tasks_stolen = pool.tasks_stolen() - stolen0;
  out.steal_attempts = pool.steal_attempts() - attempts0;
  out.stats = scheduler.stats();
  out.batch_sizes = std::move(counting.batch_sizes);
  out.decisions_returned = counting.decisions_returned;

  std::vector<double> latency_s;
  latency_s.reserve(out.result.overhead_series.size());
  for (const auto& [minute, seconds] : out.result.overhead_series)
    latency_s.push_back(seconds);
  s.fingerprint = fingerprint(out.result);
  s.schedule_s = out.result.decision_seconds_total;
  s.windows = latency_s.size();
  s.p50_s = quantile(latency_s, 0.50);
  s.p99_s = quantile(latency_s, 0.99);
  s.solve_s = out.stats.solve_seconds;
  s.presolve_s = out.stats.presolve_seconds;
  if (traced) {
    require(tr.dropped_events() == 0,
            "trace dropped " + std::to_string(tr.dropped_events()) +
                " event(s); refusing to report self times");
    s.span_self_s = campaignbench::fold_self_seconds(
        campaignbench::parse_chrome_trace(tr.to_chrome_json()));
    tr.clear();
  }
  return out;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

/// Every trace job placed exactly once, and every recorded output finite.
void check_reference(const CampaignInput& c, const dc::CampaignResult& r) {
  const std::vector<trace::Job>& jobs = c.jobs;
  require(r.jobs.size() == jobs.size(),
          "placed " + std::to_string(r.jobs.size()) + " of " +
              std::to_string(jobs.size()) + " trace jobs");
  std::vector<int> seen(jobs.size(), 0);
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < jobs.size(); ++i) index[jobs[i].id] = i;
  for (const dc::JobOutcome& o : r.jobs) {
    const auto it = index.find(o.job_id);
    require(it != index.end(), "placed unknown job " + std::to_string(o.job_id));
    require(++seen[it->second] == 1,
            "job " + std::to_string(o.job_id) + " placed twice");
    require(std::isfinite(o.carbon_g) && std::isfinite(o.water_l) &&
                std::isfinite(o.start_time) && std::isfinite(o.finish_time),
            "non-finite outcome for job " + std::to_string(o.job_id));
  }
  require(std::isfinite(r.total_carbon_g) && std::isfinite(r.total_water_l) &&
              std::isfinite(r.mean_exec_seconds) && r.mean_exec_seconds > 0.0,
          "non-finite campaign totals");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Timed runs, one list of samples per campaign.
using Runs = std::vector<std::vector<Sample>>;

/// Sum over campaigns of the median over each campaign's runs of the time
/// f, scaled to the reference host speed.
double campaign_sum(const Runs& runs,
                    const std::function<double(const Sample&)>& f) {
  double total = 0.0;
  for (const std::vector<Sample>& samples : runs) {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(f(s) * s.scale);
    total += median(v);
  }
  return total;
}

double campaign_mean(const Runs& runs,
                     const std::function<double(const Sample&)>& f) {
  return campaign_sum(runs, f) / static_cast<double>(runs.size());
}

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace_mode) {
  const Workload w = make_workload(workload, seed);
  const int threads = w.scheduler.solver_threads;
  const int pool_threads = std::max(threads, w.check_threads);

  // --- Set-up: pool creation once, then warm-up and inputs repeatedly, ----
  // each repeat scaled to the reference host speed like the timed runs.
  const util::Stopwatch pool_watch;
  util::WorkStealingPool& pool = util::WorkStealingPool::global();
  pool.ensure_workers(util::WorkStealingPool::resolve_threads(
      static_cast<std::size_t>(pool_threads)));
  const double pool_create_s = pool_watch.elapsed_seconds();
  std::vector<double> setup_s, generate_s, env_s;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double kernel_before_s = time_reference_kernel();
    const util::Stopwatch warm_watch;
    pool.parallel_for(4 * pool.size(), [](std::size_t) {});
    const double warm_s = warm_watch.elapsed_seconds();
    in = build_inputs(w);
    const double scale =
        host_scale(0.5 * (kernel_before_s + time_reference_kernel()));
    setup_s.push_back(scale * (warm_s + in.generate_s + in.env_s));
    generate_s.push_back(scale * in.generate_s);
    env_s.push_back(scale * in.env_s);
  }
  const std::size_t n_campaigns = in.campaigns.size();

  // --- Reference repetition: correctness checks, then the fingerprints. ---
  std::vector<Outcome> ref;
  for (const CampaignInput& c : in.campaigns)
    ref.push_back(run_campaign(w, c, false, true, threads));
  // Read before the timed repetitions, whose sample lists grow with the
  // number of repetitions a host manages in --seconds.
  const double rss_mb = peak_rss_mb();
  long placed = 0, violations = 0, decisions_returned = 0;
  double carbon_g = 0.0, water_l = 0.0, exec_s = 0.0;
  std::vector<long> per_region;
  std::vector<double> batch_sizes;
  core::SchedulerStats st;
  std::uint64_t tasks_run = 0, tasks_stolen = 0, steal_attempts = 0;
  std::size_t windows = 0;
  campaignbench::Fingerprint all_fp;
  for (std::size_t i = 0; i < n_campaigns; ++i) {
    const Outcome& o = ref[i];
    const dc::CampaignResult& r = o.result;
    check_reference(in.campaigns[i], r);
    placed += r.num_jobs;
    violations += r.violations;
    carbon_g += r.total_carbon_g;
    water_l += r.total_water_l;
    exec_s += r.mean_exec_seconds *
              static_cast<double>(in.campaigns[i].jobs.size());
    per_region.resize(r.jobs_per_region.size());
    for (std::size_t k = 0; k < per_region.size(); ++k)
      per_region[k] += r.jobs_per_region[k];
    batch_sizes.insert(batch_sizes.end(), o.batch_sizes.begin(),
                       o.batch_sizes.end());
    decisions_returned += o.decisions_returned;
    st += o.stats;
    windows += o.sample.windows;
    all_fp.add(o.sample.fingerprint);
  }
  const double jobs = static_cast<double>(in.jobs);
  const double mean_exec_s = exec_s / jobs;
  const long unplaced = static_cast<long>(in.jobs) - placed;
  std::cout << std::setprecision(17) << "fingerprint " << w.name
            << " seed=" << seed << ": " << hex(all_fp.value())
            << " (carbon_g=" << carbon_g << " water_l=" << water_l
            << " violations=" << violations << " jobs_per_region=";
  for (std::size_t k = 0; k < per_region.size(); ++k)
    std::cout << (k ? "/" : "") << per_region[k];
  std::cout << ")\n";
  if (w.check_threads > 0) {
    for (std::size_t i = 0; i < n_campaigns; ++i) {
      const Outcome o =
          run_campaign(w, in.campaigns[i], false, false, w.check_threads);
      require(o.sample.fingerprint == ref[i].sample.fingerprint,
              "solver_threads=" + std::to_string(w.check_threads) +
                  " fingerprint differs from solver_threads=" +
                  std::to_string(threads));
      tasks_run += o.tasks_run;
      tasks_stolen += o.tasks_stolen;
      steal_attempts += o.steal_attempts;
    }
    std::cout << "thread check: solver_threads=" << w.check_threads
              << " fingerprint matches solver_threads=" << threads << "\n";
  }

  // --- Timed repetitions (alternating untraced/traced under --trace 1). ---
  Runs plain(n_campaigns), traced(n_campaigns);
  std::size_t plain_reps = 0, traced_reps = 0;
  const util::Stopwatch budget;
  while (budget.elapsed_seconds() < seconds || plain_reps < 2 ||
         (trace_mode && traced_reps < 2)) {
    const bool t = trace_mode && plain_reps > traced_reps;
    for (std::size_t i = 0; i < n_campaigns; ++i) {
      Sample s = run_campaign(w, in.campaigns[i], t, false, threads).sample;
      require(s.fingerprint == ref[i].sample.fingerprint,
              std::string(t ? "traced" : "untraced") + " run of campaign " +
                  std::to_string(i) + ": fingerprint differs from the reference");
      (t ? traced : plain)[i].push_back(std::move(s));
    }
    ++(t ? traced_reps : plain_reps);
  }

  const auto jobs_per_s = [&](const Runs& runs) {
    return jobs / campaign_sum(runs, [](const Sample& s) { return s.sim_s; });
  };
  const auto latency_ms = [&](double Sample::*q) {
    return 1e3 * campaign_mean(plain, [q](const Sample& s) { return s.*q; });
  };

  std::cout << "context: nproc=" << std::thread::hardware_concurrency()
            << " pool_workers=" << pool.size()
            << " build=" << CAMPAIGNBENCH_BUILD_TYPE
            << " compiler=" << CAMPAIGNBENCH_COMPILER << "\n"
            << "input: " << n_campaigns << " campaign(s), " << in.jobs
            << " trace jobs, " << windows
            << " windows per repetition, mean execution " << mean_exec_s
            << " s\nsamples: " << plain_reps << " untraced and " << traced_reps
            << " traced run(s) of each campaign; unplaced_frac="
            << static_cast<double>(unplaced) / jobs << "\n";
  for (std::size_t i = 0; i < n_campaigns; ++i) {
    std::cout << "campaign " << i << ": " << in.campaigns[i].jobs.size()
              << " jobs, " << ref[i].sample.windows
              << " latency samples per run; raw wall s / p50 ms / p99 ms "
                 "and host scale:";
    for (const Sample& s : plain[i])
      std::cout << " " << s.sim_s << "/" << 1e3 * s.p50_s << "/"
                << 1e3 * s.p99_s << "/" << s.scale;
    std::cout << "\n";
  }

  std::vector<Metric> m;
  if (!trace_mode) {
    m = {
        {"setup_s", pool_create_s + median(setup_s), "s"},
        {"jobs_per_s", jobs_per_s(plain), "1/s"},
        {"decision_p50_ms", latency_ms(&Sample::p50_s), "ms"},
        {"decision_p99_ms", latency_ms(&Sample::p99_s), "ms"},
        {"carbon_g_per_job", carbon_g / jobs, "g"},
        {"water_l_per_job", water_l / jobs, "L"},
        {"on_time_pct", 100.0 * (1.0 - static_cast<double>(violations) / jobs),
         "%"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const auto count = [](auto v) { return static_cast<double>(v); };
    const double schedule_s =
        campaign_sum(plain, [](const Sample& s) { return s.schedule_s; });
    const double sim_s =
        campaign_sum(plain, [](const Sample& s) { return s.sim_s; });
    const double cpu_s =
        campaign_sum(plain, [](const Sample& s) { return s.cpu_s; });
    m = {
        {"trace.generate_s", median(generate_s), "s"},
        {"env.build_s", median(env_s), "s"},
        {"trace.jobs", jobs, "count"},
        {"dc.sim_self_s",
         campaign_sum(plain,
                  [](const Sample& s) { return s.sim_s - s.schedule_s; }),
         "s"},
        {"dc.windows", count(windows), "count"},
        {"dc.batch_p50", quantile(batch_sizes, 0.50), "count"},
        {"dc.batch_p99", quantile(batch_sizes, 0.99), "count"},
        {"dc.decisions_returned", count(decisions_returned), "count"},
        {"dc.decision_accept_ratio",
         ratio(count(placed), count(decisions_returned)), "ratio"},
        {"overhead_pct", 100.0 * schedule_s / count(windows) / mean_exec_s,
         "%"},
        {"core.schedule_s", schedule_s, "s"},
        {"core.self_s",
         campaign_sum(plain,
                  [](const Sample& s) { return s.schedule_s - s.solve_s; }),
         "s"},
        {"core.chunks", count(st.chunks_planned), "count"},
        {"core.spill_resolves", count(st.spill_resolves), "count"},
        {"core.deferred_jobs", count(st.deferred_jobs), "count"},
        {"core.soft_fallback_ratio",
         ratio(count(st.soft_fallbacks), count(st.chunks_planned)), "ratio"},
        {"milp.solves", count(st.milp_solves), "count"},
        {"milp.solve_s",
         campaign_sum(plain, [](const Sample& s) { return s.solve_s; }), "s"},
        {"milp.presolve_s",
         campaign_sum(plain, [](const Sample& s) { return s.presolve_s; }), "s"},
        {"milp.simplex_iterations", count(st.simplex_iterations), "count"},
        {"milp.iters_per_solve",
         ratio(count(st.simplex_iterations), count(st.milp_solves)), "ratio"},
        {"milp.nodes_per_solve",
         ratio(count(st.nodes_explored), count(st.milp_solves)), "ratio"},
        {"milp.refactorizations", count(st.refactorizations), "count"},
        {"milp.ft_updates", count(st.ft_updates), "count"},
        {"milp.presolve_rows_removed", count(st.presolve_rows_removed),
         "count"},
        {"pool.workers", count(pool.size()), "count"},
        {"pool.tasks_run", count(tasks_run), "count"},
        {"pool.tasks_stolen", count(tasks_stolen), "count"},
        {"pool.steal_success_ratio",
         ratio(count(tasks_stolen), count(steal_attempts)), "ratio"},
        {"proc.cpu_s", cpu_s, "s"},
        {"proc.cpu_per_wall", cpu_s / sim_s, "ratio"},
    };
    for (const char* span : kSpans)
      m.push_back({std::string("span.") + span + ".self_s",
                   campaign_sum(traced,
                            [span](const Sample& s) {
                              const auto it = s.span_self_s.find(span);
                              return it == s.span_self_s.end() ? 0.0
                                                               : it->second;
                            }),
                   "s"});
    m.push_back({"obs.trace_overhead_pct",
                 100.0 * (1.0 - jobs_per_s(traced) / jobs_per_s(plain)), "%"});
  }

  for (const Metric& x : m)
    require(std::isfinite(x.value), "metric " + x.name + " is not finite");
  for (const Metric& x : m)
    std::cout << "  " << std::left << std::setw(30) << x.name << " " << x.value
              << " " << x.unit << "\n";
  const long reps = static_cast<long>(plain_reps + traced_reps);
  std::cout << "{\"correct\": " << (unplaced == 0 ? "true" : "false")
            << ", \"attempted\": " << static_cast<long>(in.jobs) * reps
            << ", \"failed\": " << unplaced * reps << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << m[i].name << "\": {\"value\": "
              << m[i].value << ", \"unit\": \"" << m[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return unplaced == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kProcessSwitches) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "campaign_bench: " << name
                << " is set; it changes the program being measured. Unset it "
                   "and run again.\n";
      return 2;
    }
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    std::cerr << "usage: campaign_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    const double seconds = std::stod(args["--seconds"]);
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    return run(args["--workload"], std::stoull(args["--seed"]), seconds,
               args["--trace"] == "1");
  } catch (const CheckFailure& e) {
    std::cerr << "campaign_bench: check FAILED: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 2;
  }
}
