// Physics- and instrumentation-level behaviours of the simulator: the
// mechanisms that give each Table-I hazard its metric signature.
#include <gtest/gtest.h>

#include <cmath>

#include "scenario/scenario.hpp"
#include "trace/trace.hpp"
#include "wsn/simulator.hpp"

namespace vn2::wsn {
namespace {

using metrics::MetricId;

TEST(Physics, TemperatureSpikeAcceleratesReporting) {
  // Clock drift: a heat wave makes crystals run off-nominal, changing the
  // packet pacing (Table I, "unstable clock").
  auto make = [](bool spike) {
    scenario::ScenarioBundle bundle = scenario::tiny(9, 7200.0, 5);
    if (spike) {
      FaultCommand cmd;
      cmd.type = FaultCommand::Type::kTemperatureSpike;
      cmd.center = {8.0, 8.0};
      cmd.radius_m = 200.0;
      cmd.start = 600.0;
      cmd.end = 7200.0;
      cmd.magnitude = 40.0;
      bundle.faults.push_back(cmd);
    }
    return bundle.make_simulator().run();
  };
  const SimulationResult normal = make(false);
  const SimulationResult heated = make(true);
  // Hotter clock → shorter intervals → more report packets originated.
  // A +40 °C spike gives drift ≈ 2e-5·43² ≈ 3.7%; expect a clear majority
  // of it network-wide.
  EXPECT_GT(heated.originations.size(), normal.originations.size() * 1.02);
}

TEST(Physics, NoiseRiseShowsInReportedRssi) {
  // The RSSI register measures total power: a noise flood is visible on
  // weak links' reported RSSI (the paper's "NeighborRssi" hazard row).
  scenario::ScenarioBundle bundle = scenario::tiny(9, 3600.0, 5, 18.0);
  FaultCommand cmd;
  cmd.type = FaultCommand::Type::kNoiseRise;
  cmd.center = {18.0, 18.0};
  cmd.radius_m = 200.0;
  cmd.start = 1800.0;
  cmd.end = 3600.0;
  cmd.magnitude = 12.0;
  bundle.faults.push_back(cmd);
  Simulator sim = bundle.make_simulator();

  sim.run_until(1795.0);
  double before = 0.0;
  std::size_t before_count = 0;
  for (NodeId id = 1; id < sim.node_count(); ++id) {
    for (const NeighborEntry& entry : sim.node(id).table().slots()) {
      if (!entry.occupied()) continue;
      before += entry.rssi_dbm;
      ++before_count;
    }
  }
  sim.run_until(3500.0);
  double during = 0.0;
  std::size_t during_count = 0;
  for (NodeId id = 1; id < sim.node_count(); ++id) {
    for (const NeighborEntry& entry : sim.node(id).table().slots()) {
      if (!entry.occupied()) continue;
      during += entry.rssi_dbm;
      ++during_count;
    }
  }
  ASSERT_GT(before_count, 0u);
  ASSERT_GT(during_count, 0u);
  EXPECT_GT(during / static_cast<double>(during_count),
            before / static_cast<double>(before_count) + 1.0);
}

TEST(Physics, VoltageMetricIsAdcQuantized) {
  scenario::ScenarioBundle bundle = scenario::tiny(9, 1800.0, 5);
  Simulator sim = bundle.make_simulator();
  sim.run_until(1800.0);
  for (NodeId id = 1; id < sim.node_count(); ++id) {
    const double v = sim.node(id).metric(MetricId::kVoltage);
    if (v == 0.0) continue;  // Never sampled yet.
    const double steps = v / 0.003;
    EXPECT_NEAR(steps, std::round(steps), 1e-6) << "node " << id;
  }
}

TEST(Physics, PathMetricsReflectTopologyDepth) {
  // A 6-hop deterministic chain: far nodes must report longer paths and
  // larger path ETX than near ones.
  SimConfig config;
  for (int i = 0; i <= 6; ++i) config.positions.push_back({25.0 * i, 0.0});
  config.duration = 1800.0;
  config.report_period = 60.0;
  config.beacon_period = 10.0;
  config.seed = 3;
  config.radio.shadowing_stddev_db = 0.0;
  Simulator sim(config);
  sim.run_until(1800.0);
  EXPECT_GT(sim.node(6).metric(MetricId::kPathLength),
            sim.node(1).metric(MetricId::kPathLength));
  EXPECT_GT(sim.node(6).metric(MetricId::kPathEtx),
            sim.node(1).metric(MetricId::kPathEtx));
  EXPECT_GE(sim.node(6).metric(MetricId::kPathLength), 4.0);
}

TEST(Physics, ForwardCounterOnlyOnRelays) {
  SimConfig config;
  for (int i = 0; i <= 3; ++i) config.positions.push_back({25.0 * i, 0.0});
  config.duration = 1800.0;
  config.report_period = 60.0;
  config.beacon_period = 10.0;
  config.seed = 3;
  config.radio.shadowing_stddev_db = 0.0;
  Simulator sim(config);
  sim.run_until(1800.0);
  // Node 1 relays for 2 and 3; node 3 is a leaf.
  EXPECT_GT(sim.node(1).metric(MetricId::kForwardCounter), 10.0);
  EXPECT_DOUBLE_EQ(sim.node(3).metric(MetricId::kForwardCounter), 0.0);
}

TEST(Physics, SensorMetricsTrackEnvironment) {
  scenario::ScenarioBundle bundle = scenario::tiny(9, 3600.0, 5);
  Simulator sim = bundle.make_simulator();
  sim.run_until(3600.0);
  const Node& node = sim.node(1);
  const double ambient =
      sim.environment().temperature_c(node.position(), 3600.0);
  // Within jitter (3%) plus the report-sampling offset.
  EXPECT_NEAR(node.metric(MetricId::kTemperature), ambient,
              0.15 * std::abs(ambient) + 2.0);
  EXPECT_GT(node.metric(MetricId::kHumidity), 0.0);
  EXPECT_NEAR(node.metric(MetricId::kVoltage), node.voltage(), 0.004);
}

TEST(Physics, DeadNodesHoldTheirLastState) {
  scenario::ScenarioBundle bundle = scenario::tiny(9, 1800.0, 5);
  Simulator sim = bundle.make_simulator();
  sim.run_until(900.0);
  sim.mutable_node(4).fail();
  const double tx_at_death = sim.node(4).metric(MetricId::kTransmitCounter);
  sim.run_until(1800.0);
  EXPECT_DOUBLE_EQ(sim.node(4).metric(MetricId::kTransmitCounter),
                   tx_at_death);
}

TEST(Physics, LatencySpilloverKeepsPrrNearUnity) {
  // Per-window PRR can exceed 1 slightly (arrival-time binning). The
  // overall ratio cannot: duplicate suppression is keyed on (origin, seq,
  // hops) like CTP's THL, so a retransmitted copy that took a
  // different-length path is occasionally delivered twice, but the PRR
  // counts each report once.
  scenario::ScenarioBundle bundle = scenario::tiny(16, 7200.0, 9);
  const SimulationResult result = bundle.make_simulator().run();
  EXPECT_LE(trace::overall_prr(result), 1.0);
  for (const trace::PrrPoint& p : trace::prr_series(result, 600.0))
    EXPECT_LE(p.prr(), 1.15);
}

}  // namespace
}  // namespace vn2::wsn
