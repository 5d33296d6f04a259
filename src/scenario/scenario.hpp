// Reproducible experiment scenarios.
//
//  * citysee_field      — a 286-node CitySee-like urban deployment reporting
//                         every 10 minutes for N days, with ambient
//                         background hazards so the history logs contain the
//                         natural exceptions VN2 trains on (paper §III-C).
//  * citysee_with_episode — the Fig. 6 field study: a longer run with a
//                         scripted multi-fault degradation window (routing
//                         loops + contention + node failures), the paper's
//                         "Sep 20–22" PRR dip.
//  * testbed            — the Fig. 5 testbed: 45 TelosB nodes on a 9×5 grid,
//                         3-minute reports, two hours, with nodes removed
//                         and re-inserted every 10 minutes. Removal can be
//                         local (scenario 1) or expansive (scenario 2).
#pragma once

#include <cstdint>
#include <vector>

#include "wsn/faults.hpp"
#include "wsn/simulator.hpp"

namespace vn2::scenario {

/// A ready-to-run experiment: simulator config + fault schedule.
struct ScenarioBundle {
  wsn::SimConfig config;
  std::vector<wsn::FaultCommand> faults;

  /// Builds the simulator with every fault injected. The result is a
  /// prvalue, so callers initialize their simulator in place from it.
  [[nodiscard]] wsn::Simulator make_simulator() const;
};

// ---------------------------------------------------------------------------

struct CityseeParams {
  std::size_t node_count = 286;
  /// Square deployment area side. 500 m at 286 nodes makes marginal links
  /// the norm, giving the ~0.85 baseline PRR texture of the real CitySee.
  double area_m = 500.0;
  double days = 7.0;
  wsn::Time report_period = 600.0;
  wsn::Time beacon_period = 120.0;
  std::uint64_t seed = 20110801;  ///< Paper: data from Aug. 1, 2011.
  /// Sprinkle ambient hazards (link fades, noise, reboots, loops, bursts)
  /// through the run so exception states exist to learn from.
  bool background_hazards = true;
  /// Average background hazards injected per simulated day.
  double hazards_per_day = 12.0;
};

ScenarioBundle citysee_field(const CityseeParams& params = {});

struct CityseeEpisodeParams {
  CityseeParams base;            ///< base.days is the total run length.
  wsn::Time episode_start = 0.0; ///< Defaults set in the builder if zero.
  wsn::Time episode_end = 0.0;
  /// Fault mix inside the episode window (counts). Failed nodes are
  /// repaired (rebooted) a few hours after the window so PRR recovers to
  /// baseline, as in the paper's Fig. 6(a).
  std::size_t loops = 18;
  std::size_t jammers = 10;
  std::size_t node_failures = 15;
  std::size_t congestion_bursts = 6;
};

/// Fig. 6: a 13-day run whose middle window (days 6–8 unless overridden)
/// carries the scripted loop/contention/failure episode.
ScenarioBundle citysee_with_episode(CityseeEpisodeParams params = {});

// ---------------------------------------------------------------------------

enum class RemovalPattern : std::uint8_t {
  kLocal,      ///< Scenario 1: removals clustered in one area.
  kExpansive,  ///< Scenario 2: removals spread across the whole testbed.
};

struct TestbedParams {
  std::size_t grid_rows = 9;
  std::size_t grid_cols = 5;
  double spacing_m = 7.0;
  wsn::Time report_period = 180.0;  ///< Paper: every three minutes.
  wsn::Time beacon_period = 30.0;
  wsn::Time duration = 2.0 * 3600.0;
  /// Every cycle_period, remove `removals_per_cycle` nodes; re-insert some
  /// of them the following cycle (paper: 5–7 nodes every 10 minutes).
  wsn::Time cycle_period = 600.0;
  std::size_t removals_min = 5;
  std::size_t removals_max = 7;
  RemovalPattern pattern = RemovalPattern::kExpansive;
  std::uint64_t seed = 1340;  ///< Paper: experiments start at 13:40.
};

ScenarioBundle testbed(const TestbedParams& params = {});

/// Small network for unit/integration tests: `count` nodes in a grid.
/// The default 8 m spacing keeps everything within one or two hops of the
/// sink; spacing ≳ 16 m forces genuinely multi-hop routes (needed to
/// exercise loops, relay failures, and forwarding behaviour).
ScenarioBundle tiny(std::size_t count = 9, wsn::Time duration = 1800.0,
                    std::uint64_t seed = 7, double spacing_m = 8.0);

}  // namespace vn2::scenario
