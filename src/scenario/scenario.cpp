#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "core/contracts.hpp"

namespace vn2::scenario {

using wsn::FaultCommand;
using wsn::Position;
using wsn::Time;

wsn::Simulator ScenarioBundle::make_simulator() const {
  return wsn::Simulator(config, faults);
}

namespace {

/// Perturbed-grid layout: near-uniform coverage with organic irregularity,
/// sink at the area center (CitySee collects through one TelosB sink).
std::vector<Position> urban_layout(std::size_t count, double area_m,
                                   std::mt19937_64& rng) {
  std::vector<Position> positions;
  positions.reserve(count);
  positions.push_back({area_m / 2.0, area_m / 2.0});  // sink

  const auto side =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(count))));
  const double cell = area_m / static_cast<double>(side);
  std::uniform_real_distribution<double> jitter(-0.35 * cell, 0.35 * cell);
  for (std::size_t r = 0; r < side && positions.size() < count; ++r) {
    for (std::size_t c = 0; c < side && positions.size() < count; ++c) {
      Position p{(static_cast<double>(c) + 0.5) * cell + jitter(rng),
                 (static_cast<double>(r) + 0.5) * cell + jitter(rng)};
      p.x = std::clamp(p.x, 0.0, area_m);
      p.y = std::clamp(p.y, 0.0, area_m);
      // Keep clear of the sink cell so ids and the layout stay 1:1.
      if (distance(p, positions.front()) < 1.0) p.x += 2.0;
      positions.push_back(p);
    }
  }
  return positions;
}

FaultCommand region_fault(FaultCommand::Type type, Position center,
                          double radius, Time start, Time end,
                          double magnitude) {
  FaultCommand cmd;
  cmd.type = type;
  cmd.center = center;
  cmd.radius_m = radius;
  cmd.start = start;
  cmd.end = end;
  cmd.magnitude = magnitude;
  return cmd;
}

FaultCommand node_fault(FaultCommand::Type type, wsn::NodeId node, Time start,
                        Time end = 0.0, double magnitude = 0.0) {
  FaultCommand cmd;
  cmd.type = type;
  cmd.node = node;
  cmd.start = start;
  cmd.end = end;
  cmd.magnitude = magnitude;
  return cmd;
}

/// Ambient hazards: the "wide range of failures" a deployed WSN encounters.
/// Drawn with fixed per-scenario seeds so traces are reproducible.
void sprinkle_background(ScenarioBundle& bundle, double area_m, Time duration,
                         double hazards_per_day, std::mt19937_64& rng) {
  const auto node_count =
      static_cast<wsn::NodeId>(bundle.config.positions.size());
  std::uniform_real_distribution<double> coord(0.0, area_m);
  std::uniform_int_distribution<wsn::NodeId> any_node(1, node_count - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  const auto total = static_cast<std::size_t>(
      hazards_per_day * duration / 86400.0);
  // Leave the first hour alone: the routing tree is still forming. A run
  // no longer than that has no time left for ambient hazards.
  if (duration <= 3600.0) return;
  std::uniform_real_distribution<double> when(3600.0, duration);

  for (std::size_t i = 0; i < total; ++i) {
    const Time start = when(rng);
    const double kind = unit(rng);
    if (kind < 0.25) {
      // Link fade between a node and whoever routes through it.
      const wsn::NodeId a = any_node(rng);
      wsn::NodeId b = any_node(rng);
      if (b == a) b = (b % (node_count - 1)) + 1;
      FaultCommand cmd = node_fault(FaultCommand::Type::kLinkDegradation, a,
                                    start, start + 1800.0, 12.0);
      cmd.peer = b;
      bundle.faults.push_back(cmd);
    } else if (kind < 0.45) {
      bundle.faults.push_back(region_fault(
          FaultCommand::Type::kNoiseRise, {coord(rng), coord(rng)},
          60.0, start, start + 2400.0, 8.0));
    } else if (kind < 0.60) {
      bundle.faults.push_back(node_fault(FaultCommand::Type::kNodeReboot,
                                         any_node(rng), start));
    } else if (kind < 0.72) {
      bundle.faults.push_back(node_fault(FaultCommand::Type::kForcedLoop,
                                         any_node(rng), start,
                                         start + 1200.0));
    } else if (kind < 0.82) {
      bundle.faults.push_back(region_fault(
          FaultCommand::Type::kCongestionBurst, {coord(rng), coord(rng)},
          50.0, start, start + 900.0, 0.2));
    } else if (kind < 0.92) {
      bundle.faults.push_back(region_fault(
          FaultCommand::Type::kTemperatureSpike, {coord(rng), coord(rng)},
          80.0, start, start + 3600.0, 15.0));
    } else {
      // Strong enough for a clearly visible voltage sag (z ≫ 1 against the
      // ~0 baseline voltage variation), weak enough that even a hot relay
      // survives — ambient hazards must not erode the network permanently;
      // killing a bridge node would partition a sparse deployment for the
      // rest of the run.
      bundle.faults.push_back(node_fault(FaultCommand::Type::kBatteryDrain,
                                         any_node(rng), start,
                                         start + 7200.0, 60.0));
    }
  }
}

}  // namespace

ScenarioBundle citysee_field(const CityseeParams& params) {
  if (params.node_count < 2)
    throw std::invalid_argument("citysee_field: need at least 2 nodes");

  std::mt19937_64 rng(params.seed);
  ScenarioBundle bundle;
  bundle.config.positions =
      urban_layout(params.node_count, params.area_m, rng);
  bundle.config.duration = params.days * 86400.0;
  bundle.config.report_period = params.report_period;
  bundle.config.beacon_period = params.beacon_period;
  bundle.config.seed = params.seed ^ 0xC17e5eeULL;

  if (params.background_hazards) {
    sprinkle_background(bundle, params.area_m, bundle.config.duration,
                        params.hazards_per_day, rng);
  }
  return bundle;
}

ScenarioBundle citysee_with_episode(CityseeEpisodeParams params) {
  if (params.base.days < 3.0) params.base.days = 13.0;
  ScenarioBundle bundle = citysee_field(params.base);

  Time start = params.episode_start;
  Time end = params.episode_end;
  if (start <= 0.0 || end <= start) {
    // Paper: degradation spans days 6–8 of a 13-day window (Sep 20–22 of
    // Sep 14–27).
    start = 6.0 * 86400.0;
    end = 8.0 * 86400.0;
  }

  std::mt19937_64 rng(params.base.seed ^ 0xEB150DEULL);
  const double area = params.base.area_m;
  const auto node_count =
      static_cast<wsn::NodeId>(bundle.config.positions.size());
  std::uniform_real_distribution<double> coord(0.1 * area, 0.9 * area);
  std::uniform_int_distribution<wsn::NodeId> any_node(1, node_count - 1);
  std::uniform_real_distribution<double> when(start, end);

  for (std::size_t i = 0; i < params.loops; ++i) {
    const Time t = when(rng);
    bundle.faults.push_back(node_fault(FaultCommand::Type::kForcedLoop,
                                       any_node(rng), t, t + 5400.0));
  }
  for (std::size_t i = 0; i < params.jammers; ++i) {
    const Time t = when(rng);
    bundle.faults.push_back(region_fault(FaultCommand::Type::kJammer,
                                         {coord(rng), coord(rng)}, 150.0, t,
                                         t + 21600.0, 0.75));
  }
  for (std::size_t i = 0; i < params.congestion_bursts; ++i) {
    const Time t = when(rng);
    bundle.faults.push_back(region_fault(FaultCommand::Type::kCongestionBurst,
                                         {coord(rng), coord(rng)}, 100.0, t,
                                         t + 7200.0, 1.0));
  }
  std::uniform_real_distribution<double> repair_delay(2.0 * 3600.0,
                                                      8.0 * 3600.0);
  for (std::size_t i = 0; i < params.node_failures; ++i) {
    const wsn::NodeId victim = any_node(rng);
    bundle.faults.push_back(node_fault(FaultCommand::Type::kNodeFailure,
                                       victim, when(rng)));
    // Operators repair failed nodes shortly after the episode — the paper's
    // Fig. 6(a) PRR returns to its healthy baseline after Sep 22.
    bundle.faults.push_back(node_fault(FaultCommand::Type::kNodeReboot,
                                       victim, end + repair_delay(rng)));
  }
  return bundle;
}

ScenarioBundle testbed(const TestbedParams& params) {
  std::mt19937_64 rng(params.seed);
  ScenarioBundle bundle;

  // Node 0 (sink) sits just outside the grid edge, like a gateway mote —
  // one spacing from the nearest node and √2 spacings from two more, so a
  // single unlucky shadowing draw cannot sever the whole network.
  bundle.config.positions.push_back({-params.spacing_m, 0.0});
  for (std::size_t r = 0; r < params.grid_rows; ++r)
    for (std::size_t c = 0; c < params.grid_cols; ++c)
      bundle.config.positions.push_back(
          {static_cast<double>(c) * params.spacing_m,
           static_cast<double>(r) * params.spacing_m});

  bundle.config.duration = params.duration;
  bundle.config.report_period = params.report_period;
  bundle.config.beacon_period = params.beacon_period;
  bundle.config.seed = params.seed ^ 0x7e57bedULL;

  const auto node_count =
      static_cast<wsn::NodeId>(bundle.config.positions.size());

  // Removal/re-insert schedule: every cycle remove 5–7 nodes, and put the
  // previous cycle's removals back at the start of the next cycle.
  std::uniform_int_distribution<std::size_t> removal_count(
      params.removals_min, params.removals_max);
  std::vector<wsn::NodeId> previously_removed;
  // Skip cycle 0: the routing tree is still forming.
  for (Time t = params.cycle_period; t + params.cycle_period <= params.duration;
       t += params.cycle_period) {
    // Re-insert last cycle's nodes (node reboot events).
    for (wsn::NodeId id : previously_removed)
      bundle.faults.push_back(
          node_fault(FaultCommand::Type::kNodeReboot, id, t + 5.0));
    previously_removed.clear();

    // Choose this cycle's removals.
    const std::size_t k = removal_count(rng);
    std::vector<wsn::NodeId> candidates;
    if (params.pattern == RemovalPattern::kLocal) {
      // Cluster around a random anchor: pick the k grid-nearest nodes.
      std::uniform_int_distribution<wsn::NodeId> anchor_dist(1, node_count - 1);
      const wsn::NodeId anchor = anchor_dist(rng);
      const Position center = bundle.config.positions[anchor];
      std::vector<wsn::NodeId> all;
      for (wsn::NodeId id = 1; id < node_count; ++id) all.push_back(id);
      std::sort(all.begin(), all.end(), [&](wsn::NodeId a, wsn::NodeId b) {
        return distance(bundle.config.positions[a], center) <
               distance(bundle.config.positions[b], center);
      });
      candidates.assign(all.begin(), all.begin() + static_cast<long>(k));
    } else {
      // Expansive: uniform without replacement across the whole testbed.
      std::vector<wsn::NodeId> all;
      for (wsn::NodeId id = 1; id < node_count; ++id) all.push_back(id);
      std::shuffle(all.begin(), all.end(), rng);
      candidates.assign(all.begin(), all.begin() + static_cast<long>(k));
    }

    // Removals sit mid-cycle, well apart from the re-insertions at the
    // cycle boundary, so failure and reboot manifestations do not overlap
    // in time (the Fig. 5(g) ground-truth comparison needs them separable).
    std::uniform_real_distribution<double> offset(0.45 * params.cycle_period,
                                                  0.55 * params.cycle_period);
    for (wsn::NodeId id : candidates) {
      bundle.faults.push_back(
          node_fault(FaultCommand::Type::kNodeFailure, id, t + offset(rng)));
      previously_removed.push_back(id);
    }
  }
  return bundle;
}

ScenarioBundle tiny(std::size_t count, Time duration, std::uint64_t seed,
                    double spacing_m) {
  VN2_CHECK(count > 0, "scenario::tiny: need at least one node");
  TestbedParams params;
  params.grid_rows = std::max<std::size_t>(1, count / 3);
  params.grid_cols = std::max<std::size_t>(1, (count + params.grid_rows - 1) /
                                                  params.grid_rows);
  params.spacing_m = spacing_m;
  params.duration = duration;
  params.report_period = 60.0;
  params.beacon_period = 10.0;
  params.cycle_period = duration * 2;  // No removals by default.
  params.seed = seed;
  ScenarioBundle bundle = testbed(params);
  bundle.faults.clear();
  return bundle;
}

}  // namespace vn2::scenario
