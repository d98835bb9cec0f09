// Parallel campaign engine: fans independent Simulator runs out through
// util::global_parallel_for with shared-nothing per-scenario state.
//
// A campaign is an ordered list of scenarios (lambda sweeps, capacity
// scaling, region subsets, ...).  Each scenario body builds everything it
// needs — environment, footprint model, scheduler, simulator — so scenarios
// never share mutable state and can run on any thread.  Determinism is
// preserved under parallelism by construction: every scenario draws its
// randomness from an Rng stream derived from (campaign seed, scenario index,
// scenario label), never from execution order or thread identity, and
// outcomes are returned in add() order.  The same campaign therefore
// produces byte-identical aggregated results at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dc/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ww::dc {

/// Per-scenario execution context handed to the scenario body.
struct ScenarioContext {
  std::size_t index = 0;  ///< Position in add() order.
  /// Deterministic stream derived from the campaign seed + index + label;
  /// identical regardless of which thread runs the scenario.
  util::Rng rng;
};

/// One independent unit of work in a campaign.
struct Scenario {
  /// Scenarios sharing a group are compared against that group's baseline
  /// in aggregate(); empty group means the campaign-wide group.
  std::string group;
  std::string label;
  bool baseline = false;  ///< Reference row for savings within its group.
  std::function<CampaignResult(ScenarioContext&)> run;
};

/// A finished scenario: its identity plus the simulator result.
struct ScenarioOutcome {
  std::string group;
  std::string label;
  bool baseline = false;
  CampaignResult result;
  double wall_seconds = 0.0;  ///< Wall-clock time of this scenario body.
};

struct CampaignConfig {
  /// Threads for the scenario fan-out, passed to util::global_parallel_for:
  /// 1 runs scenarios inline on the calling thread, in add() order, without
  /// touching the pool; N grows the global work-stealing pool to at least N
  /// workers; 0 selects hardware concurrency.  Scenario tasks and the chunk
  /// subtasks their schedulers spawn share those workers.
  std::size_t jobs = 0;
  /// Master seed; per-scenario streams are derived children.
  std::uint64_t seed = 7;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config = {});

  /// Adds a scenario; returns *this for chaining.
  CampaignRunner& add(Scenario scenario);
  /// Convenience: ungrouped, non-baseline scenario.
  CampaignRunner& add(std::string label,
                      std::function<CampaignResult(ScenarioContext&)> run);
  /// Convenience: marks the group's reference row.
  CampaignRunner& add_baseline(
      std::string group, std::string label,
      std::function<CampaignResult(ScenarioContext&)> run);

  [[nodiscard]] std::size_t size() const noexcept { return scenarios_.size(); }
  [[nodiscard]] const CampaignConfig& config() const noexcept {
    return config_;
  }

  /// Runs every scenario through util::global_parallel_for(jobs, ...) and
  /// returns outcomes in add() order.  The exception of the lowest-index
  /// failing scenario (in add() order) is rethrown.
  [[nodiscard]] std::vector<ScenarioOutcome> run_all();

  /// Merges outcomes into one comparison table: absolute figures of merit
  /// per scenario plus carbon/water savings against the scenario's group
  /// baseline where one exists.  Row order follows outcome order, so the
  /// table is byte-identical for any thread count.
  [[nodiscard]] static util::Table aggregate(
      const std::vector<ScenarioOutcome>& outcomes);

  /// Sums the headline totals across outcomes (campaign-level ledger).
  [[nodiscard]] static CampaignResult merged_totals(
      const std::vector<ScenarioOutcome>& outcomes);

 private:
  CampaignConfig config_;
  std::vector<Scenario> scenarios_;
};

}  // namespace ww::dc
