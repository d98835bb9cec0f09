// waterwise_sim: command-line campaign driver.
//
// Runs any scheduler over a generated or file-based trace and reports the
// figures of merit, optionally against a Baseline run of the same trace.
//
//   waterwise_sim --scheduler waterwise --trace borg --days 1 --tol 0.5
//   waterwise_sim --scheduler carbon-opt --trace alibaba --compare --jobs 2
//   waterwise_sim --lambda-sweep 0.3,0.5,0.7 --jobs 8
//   waterwise_sim --trace-file jobs.csv --scheduler waterwise
//       --lambda-co2 0.7 --dataset wri --out summary.csv --jobs-out jobs_out.csv
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/waterwise.hpp"
#include "dc/campaign_runner.hpp"
#include "obs/trace.hpp"
#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "sched/ecovisor.hpp"
#include "sched/greedy_opt.hpp"
#include "trace/generator.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace ww;

std::unique_ptr<dc::Scheduler> make_scheduler(const std::string& name,
                                              const core::WaterWiseConfig& cfg) {
  if (name == "waterwise") return std::make_unique<core::WaterWiseScheduler>(cfg);
  if (name == "baseline") return std::make_unique<sched::BaselineScheduler>();
  if (name == "round-robin") return std::make_unique<sched::RoundRobinScheduler>();
  if (name == "least-load") return std::make_unique<sched::LeastLoadScheduler>();
  if (name == "ecovisor") return std::make_unique<sched::EcovisorScheduler>();
  if (name == "carbon-opt")
    return std::make_unique<sched::GreedyOptScheduler>(sched::GreedyMetric::Carbon);
  if (name == "water-opt")
    return std::make_unique<sched::GreedyOptScheduler>(sched::GreedyMetric::Water);
  throw std::invalid_argument("unknown scheduler '" + name + "'");
}

void write_summary_header(util::CsvWriter& w) {
  w.write_row({"scheduler", "tol", "jobs", "carbon_g", "water_l", "cost_usd",
               "mean_service_norm", "violation_pct", "carbon_saving_pct",
               "water_saving_pct", "decision_seconds"});
}

void write_summary_row(util::CsvWriter& w, const dc::CampaignResult& res,
                       const dc::CampaignResult* base) {
  w.write_row({res.scheduler_name, util::format_double(res.tol),
               std::to_string(res.num_jobs),
               util::format_double(res.total_carbon_g),
               util::format_double(res.total_water_l),
               util::format_double(res.total_cost_usd),
               util::format_double(res.mean_service_norm()),
               util::format_double(res.violation_pct()),
               base ? util::format_double(res.carbon_saving_pct_vs(*base)) : "",
               base ? util::format_double(res.water_saving_pct_vs(*base)) : "",
               util::format_double(res.decision_seconds_total)});
}

void write_summary_csv(const std::string& path, const dc::CampaignResult& res,
                       const dc::CampaignResult* base) {
  std::ofstream out(path);
  util::CsvWriter w(out);
  write_summary_header(w);
  write_summary_row(w, res, base);
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    try {
      std::size_t pos = 0;
      const double v = std::stod(item, &pos);
      if (pos != item.size()) throw std::invalid_argument(item);
      out.push_back(v);
    } catch (const std::exception&) {
      throw std::invalid_argument("--lambda-sweep: '" + item +
                                  "' is not a number");
    }
  }
  if (out.empty())
    throw std::invalid_argument("expected a comma-separated number list, got '" +
                                csv + "'");
  return out;
}

/// When span tracing is on (--trace-out or WW_TRACE), writes the buffered
/// Chrome trace JSON to obs::Trace::output_path() and `metrics_json` next to
/// it, and prints a one-line summary.
void export_trace(const std::string& metrics_json) {
  obs::Trace& trace = obs::Trace::instance();
  if (!obs::Trace::enabled()) return;
  {
    std::ofstream out(trace.output_path());
    trace.write_chrome_json(out);
  }
  {
    std::ofstream out(trace.metrics_path());
    out << metrics_json;
  }
  std::cout << "[trace] wrote " << trace.event_count() << " event(s) to "
            << trace.output_path() << " (metrics: " << trace.metrics_path()
            << ")\n";
}

void write_jobs_csv(const std::string& path, const dc::CampaignResult& res) {
  std::ofstream out(path);
  util::CsvWriter w(out);
  w.write_row({"job_id", "home_region", "exec_region", "submit", "start",
               "finish", "carbon_g", "water_l", "violated"});
  for (const auto& o : res.jobs) {
    w.write_row({std::to_string(o.job_id), std::to_string(o.home_region),
                 std::to_string(o.exec_region),
                 util::format_double(o.submit_time),
                 util::format_double(o.start_time),
                 util::format_double(o.finish_time),
                 util::format_double(o.carbon_g),
                 util::format_double(o.water_l), o.violated ? "1" : "0"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("scheduler", "waterwise | baseline | round-robin | least-load | "
               "ecovisor | carbon-opt | water-opt", "waterwise")
      .define("trace", "borg | alibaba (generated)", "borg")
      .define("trace-file", "read jobs from a CSV instead of generating")
      .define("days", "simulated days for generated traces", "1.0")
      .define("seed", "trace generator seed", "7")
      .define("rate-multiplier", "arrival-rate multiplier", "1.0")
      .define("tol", "delay tolerance fraction (0.5 = 50%)", "0.5")
      .define("capacity-scale", "server-count multiplier per region", "1.0")
      .define("batch-window", "max seconds between controller batches", "60")
      .define("lambda-co2", "carbon objective weight", "0.5")
      .define("lambda-ref", "history-learner weight", "0.1")
      .define("lambda-cost", "cost-objective extension weight", "0")
      .define("lambda-perf", "performance-objective extension weight", "0")
      .define("dataset", "em | wri water dataset", "em")
      .define("out", "write a one-row summary CSV here")
      .define("jobs-out", "write per-job outcomes CSV here")
      .define("jobs", "campaign worker threads (0 = all cores)", "1")
      .define("lambda-sweep", "comma-separated lambda_CO2 list; runs the "
              "sweep + Baseline as a parallel campaign")
      .define("trace-out", "write Chrome trace-event JSON here (enables "
              "span tracing; WW_TRACE=<path> is equivalent)")
      .define_bool("compare", "also run Baseline and report savings")
      .define_bool("help", "show this help");

  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (flags.get_bool("help")) {
    std::cout << "waterwise_sim — WaterWise campaign driver\n" << flags.help();
    return 0;
  }

  obs::Trace::instance().configure_from_env();
  if (flags.has("trace-out")) {
    obs::Trace::instance().set_output_path(flags.get("trace-out"));
    obs::Trace::instance().set_enabled(true);
  }

  try {
    // --- environment ------------------------------------------------------
    env::EnvironmentConfig env_cfg;
    if (flags.get("dataset") == "wri")
      env_cfg.dataset = env::WaterDataset::WorldResourcesInstitute;
    else if (flags.get("dataset") != "em")
      throw std::invalid_argument("--dataset must be em or wri");
    const env::Environment env = env::Environment::builtin(env_cfg);
    const footprint::FootprintModel footprint(env);

    // --- trace --------------------------------------------------------------
    std::vector<trace::Job> jobs;
    if (flags.has("trace-file")) {
      std::ifstream in(flags.get("trace-file"));
      if (!in) throw std::runtime_error("cannot open " + flags.get("trace-file"));
      jobs = trace::read_trace_csv(in);
    } else {
      auto tcfg = flags.get("trace") == "alibaba"
                      ? trace::alibaba_config(
                            static_cast<std::uint64_t>(flags.get_long("seed", 7)),
                            flags.get_double("days", 1.0))
                      : trace::borg_config(
                            static_cast<std::uint64_t>(flags.get_long("seed", 7)),
                            flags.get_double("days", 1.0));
      tcfg.rate_multiplier = flags.get_double("rate-multiplier", 1.0);
      jobs = trace::generate_trace(tcfg);
    }

    // --- simulator ----------------------------------------------------------
    dc::SimConfig sim_cfg;
    sim_cfg.tol = flags.get_double("tol", 0.5);
    sim_cfg.capacity_scale = flags.get_double("capacity-scale", 1.0);
    sim_cfg.batch_window_s = flags.get_double("batch-window", 60.0);
    sim_cfg.record_jobs = flags.has("jobs-out");
    dc::Simulator sim(env, footprint, sim_cfg);

    core::WaterWiseConfig ww_cfg;
    ww_cfg.lambda_co2 = flags.get_double("lambda-co2", 0.5);
    ww_cfg.lambda_h2o = 1.0 - ww_cfg.lambda_co2;
    ww_cfg.lambda_ref = flags.get_double("lambda-ref", 0.1);
    ww_cfg.lambda_cost = flags.get_double("lambda-cost", 0.0);
    ww_cfg.lambda_perf = flags.get_double("lambda-perf", 0.0);

    const long jobs_flag = flags.get_long("jobs", 1);
    if (jobs_flag < 0)
      throw std::invalid_argument("--jobs must be >= 0 (0 = all cores)");
    dc::CampaignConfig campaign_cfg;
    campaign_cfg.jobs = static_cast<std::size_t>(jobs_flag);
    campaign_cfg.seed = static_cast<std::uint64_t>(flags.get_long("seed", 7));

    // --- lambda-sweep campaign mode -----------------------------------------
    if (flags.has("lambda-sweep")) {
      if (flags.has("jobs-out"))
        throw std::invalid_argument(
            "--jobs-out is per-run output; not supported with --lambda-sweep");
      if (flags.has("scheduler"))
        throw std::invalid_argument(
            "--lambda-sweep always sweeps WaterWise vs Baseline; "
            "--scheduler is not supported");
      if (flags.get_bool("compare"))
        throw std::invalid_argument(
            "--lambda-sweep already compares against Baseline; "
            "--compare is not supported");
      sim_cfg.record_jobs = false;  // no per-job consumers in sweep mode
      const auto lambdas = parse_double_list(flags.get("lambda-sweep"));
      dc::CampaignRunner runner(campaign_cfg);
      runner.add_baseline("", "Baseline", [&](dc::ScenarioContext&) {
        sched::BaselineScheduler baseline;
        dc::Simulator s(env, footprint, sim_cfg);
        return s.run(jobs, baseline);
      });
      for (const double lambda : lambdas) {
        runner.add("waterwise lambda_CO2=" + util::Table::fixed(lambda, 2),
                   [&, lambda](dc::ScenarioContext&) {
                     core::WaterWiseConfig cfg = ww_cfg;
                     cfg.lambda_co2 = lambda;
                     cfg.lambda_h2o = 1.0 - lambda;
                     core::WaterWiseScheduler ww(cfg);
                     dc::Simulator s(env, footprint, sim_cfg);
                     return s.run(jobs, ww);
                   });
      }
      std::cout << "Running " << runner.size() << "-scenario lambda sweep on "
                << jobs.size() << " jobs (--jobs "
                << (campaign_cfg.jobs == 0 ? std::string("all cores")
                                           : std::to_string(campaign_cfg.jobs))
                << ")...\n";
      const auto outcomes = runner.run_all();
      dc::CampaignRunner::aggregate(outcomes).print(std::cout);
      if (flags.has("out")) {
        std::ofstream csv(flags.get("out"));
        util::CsvWriter w(csv);
        write_summary_header(w);
        for (const auto& o : outcomes) {
          dc::CampaignResult labelled = o.result;
          labelled.scheduler_name = o.label;  // distinguishes the lambdas
          write_summary_row(w, labelled,
                            o.baseline ? nullptr : &outcomes[0].result);
        }
      }
      // The metrics dump: each scenario's service registry, by label.
      std::string metrics = "{";
      for (const auto& o : outcomes)
        metrics += (metrics.size() > 1 ? ",\n\"" : "\n\"") + o.label +
                   "\": {\"service\": " + o.result.service.to_json() + "}";
      export_trace(metrics + "}\n");
      return 0;
    }

    const auto scheduler = make_scheduler(flags.get("scheduler"), ww_cfg);
    std::cout << "Running " << scheduler->name() << " on " << jobs.size()
              << " jobs (tol " << sim_cfg.tol * 100 << "%)...\n";

    dc::CampaignResult res;
    std::unique_ptr<dc::CampaignResult> base;
    if (flags.get_bool("compare") && flags.get("scheduler") != "baseline") {
      // Main run and Baseline are independent scenarios; --jobs 2 overlaps
      // them on two cores.
      dc::CampaignRunner runner(campaign_cfg);
      runner.add(flags.get("scheduler"), [&](dc::ScenarioContext&) {
        dc::Simulator s(env, footprint, sim_cfg);
        return s.run(jobs, *scheduler);
      });
      runner.add_baseline("", "baseline", [&](dc::ScenarioContext&) {
        sched::BaselineScheduler baseline;
        dc::Simulator s(env, footprint, sim_cfg);
        return s.run(jobs, baseline);
      });
      auto outcomes = runner.run_all();
      res = std::move(outcomes[0].result);
      base = std::make_unique<dc::CampaignResult>(std::move(outcomes[1].result));
    } else {
      res = sim.run(jobs, *scheduler);
    }

    // --- report -------------------------------------------------------------
    util::Table table({"Metric", "Value"});
    table.add_row({"scheduler", res.scheduler_name});
    table.add_row({"jobs", std::to_string(res.num_jobs)});
    table.add_row({"carbon (kgCO2)", util::Table::fixed(res.total_carbon_g / 1e3, 2)});
    table.add_row({"water (kL)", util::Table::fixed(res.total_water_l / 1e3, 2)});
    table.add_row({"electricity cost (USD)", util::Table::fixed(res.total_cost_usd, 2)});
    table.add_row({"mean service norm", util::Table::fixed(res.mean_service_norm(), 3) + "x"});
    table.add_row({"violations", util::Table::pct(res.violation_pct())});
    table.add_row({"decision time (s)", util::Table::fixed(res.decision_seconds_total, 3)});
    if (base) {
      table.add_row({"carbon saving vs baseline", util::Table::pct(res.carbon_saving_pct_vs(*base))});
      table.add_row({"water saving vs baseline", util::Table::pct(res.water_saving_pct_vs(*base))});
      table.add_row({"cost saving vs baseline", util::Table::pct(res.cost_saving_pct_vs(*base))});
    }
    table.print(std::cout);

    if (flags.has("out")) write_summary_csv(flags.get("out"), res, base.get());
    if (flags.has("jobs-out")) write_jobs_csv(flags.get("jobs-out"), res);
    // The metrics dump: the campaign's service registry, plus WaterWise's
    // solver counters when it ran.
    const auto* ww =
        dynamic_cast<const core::WaterWiseScheduler*>(scheduler.get());
    std::string metrics = "{\"service\": " + res.service.to_json();
    if (ww != nullptr) metrics += ", \"sched\": " + ww->registry().to_json();
    export_trace(metrics + "}\n");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
