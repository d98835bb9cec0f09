// Umbrella header: everything a downstream user needs to run WaterWise
// campaigns.  Link against the CMake target `ww::waterwise`.
//
//   #include "waterwise.hpp"
//
//   const ww::env::Environment env = ww::env::Environment::builtin();
//   const ww::footprint::FootprintModel footprint(env);
//   const auto jobs = ww::trace::generate_trace(ww::trace::borg_config());
//   ww::dc::Simulator sim(env, footprint, {});
//   ww::core::WaterWiseScheduler scheduler;
//   const ww::dc::CampaignResult result = sim.run(jobs, scheduler);
#pragma once

// Substrates.
#include "env/environment.hpp"    // regions, energy mixes, weather, WSF
#include "footprint/footprint.hpp"// Eq. 1-6 carbon/water model
#include "trace/generator.hpp"    // Borg-/Alibaba-like traces

// Simulation.
#include "dc/metrics.hpp"
#include "dc/scheduler.hpp"
#include "dc/simulator.hpp"

// Policies.
#include "core/waterwise.hpp"     // the paper's scheduler
#include "sched/basic.hpp"        // Baseline / Round-Robin / Least-Load
#include "sched/ecovisor.hpp"
#include "sched/greedy_opt.hpp"   // Carbon-/Water-Greedy-Opt oracles

// Utilities commonly used alongside.
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
