#include "wsn/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <type_traits>

#include "scenario/scenario.hpp"

namespace vn2::wsn {
namespace {

using metrics::MetricId;

/// 3×3 grid + sink, 30 min, 1-min reports — the workhorse fixture.
scenario::ScenarioBundle small_bundle(std::uint64_t seed = 7) {
  return scenario::tiny(9, 1800.0, seed);
}

TEST(Simulator, RejectsDegenerateTopologies) {
  SimConfig config;
  config.positions = {{0, 0}};
  EXPECT_THROW(Simulator sim(config), std::invalid_argument);
}

TEST(Simulator, TreeFormsAndSinkCollects) {
  auto bundle = small_bundle();
  Simulator sim = bundle.make_simulator();
  SimulationResult result = sim.run();

  EXPECT_GT(result.sink_log.size(), 100u);
  EXPECT_GT(result.originations.size(), 0u);
  // A dense grid at short range should deliver nearly everything.
  const double prr = static_cast<double>(result.sink_log.size()) /
                     static_cast<double>(result.originations.size());
  EXPECT_GT(prr, 0.85);

  // After the run every live node has a route.
  for (NodeId id = 1; id < sim.node_count(); ++id) {
    EXPECT_TRUE(sim.node(id).alive());
    EXPECT_TRUE(sim.node(id).has_parent()) << "node " << id;
  }
}

TEST(Simulator, DeterministicGivenSeed) {
  auto b1 = small_bundle(11);
  auto b2 = small_bundle(11);
  SimulationResult r1 = b1.make_simulator().run();
  SimulationResult r2 = b2.make_simulator().run();
  EXPECT_EQ(r1.sink_log.size(), r2.sink_log.size());
  EXPECT_EQ(r1.stats.data_transmissions, r2.stats.data_transmissions);
  EXPECT_EQ(r1.stats.beacons_sent, r2.stats.beacons_sent);
  auto b3 = small_bundle(12);
  SimulationResult r3 = b3.make_simulator().run();
  EXPECT_NE(r1.stats.data_transmissions, r3.stats.data_transmissions);
}

// Scheduled events point at the simulator, so it can neither copy nor move.
static_assert(!std::is_copy_constructible_v<Simulator>);
static_assert(!std::is_move_constructible_v<Simulator>);

TEST(Simulator, RunsOnlyOnce) {
  auto bundle = small_bundle();
  Simulator sim = bundle.make_simulator();
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_THROW(sim.run_until(bundle.config.duration), std::logic_error);
}

TEST(Simulator, RunHandsOverTheLogsASnapshotCopies) {
  auto bundle = small_bundle(13);
  FaultCommand failure;
  failure.type = FaultCommand::Type::kNodeFailure;
  failure.node = 4;
  failure.start = 600.0;
  bundle.faults.push_back(failure);
  Simulator sim = bundle.make_simulator();
  sim.run_until(bundle.config.duration);
  const SimulationResult snapshot = sim.snapshot_result();
  const SimulationResult result = sim.run();

  ASSERT_FALSE(snapshot.sink_log.empty());
  ASSERT_EQ(result.sink_log.size(), snapshot.sink_log.size());
  for (std::size_t i = 0; i < result.sink_log.size(); ++i) {
    const SinkPacketRecord& a = result.sink_log[i];
    const SinkPacketRecord& b = snapshot.sink_log[i];
    EXPECT_EQ(a.recv_time, b.recv_time) << "record " << i;
    EXPECT_EQ(a.origin, b.origin) << "record " << i;
    EXPECT_EQ(a.epoch, b.epoch) << "record " << i;
    EXPECT_EQ(a.type, b.type) << "record " << i;
    EXPECT_EQ(a.values, b.values) << "record " << i;
    EXPECT_EQ(a.hops, b.hops) << "record " << i;
  }
  ASSERT_EQ(result.originations.size(), snapshot.originations.size());
  for (std::size_t i = 0; i < result.originations.size(); ++i) {
    EXPECT_EQ(result.originations[i].time, snapshot.originations[i].time);
    EXPECT_EQ(result.originations[i].origin, snapshot.originations[i].origin);
    EXPECT_EQ(result.originations[i].epoch, snapshot.originations[i].epoch);
    EXPECT_EQ(result.originations[i].type, snapshot.originations[i].type);
  }
  ASSERT_EQ(result.ground_truth.size(), 1u);
  ASSERT_EQ(snapshot.ground_truth.size(), 1u);
  EXPECT_EQ(result.ground_truth[0].hazard, snapshot.ground_truth[0].hazard);
  EXPECT_EQ(result.ground_truth[0].affected_nodes,
            snapshot.ground_truth[0].affected_nodes);
  EXPECT_EQ(result.stats.packets_at_sink, snapshot.stats.packets_at_sink);
}

TEST(Simulator, CountersAreMonotoneWithoutReboots) {
  auto bundle = small_bundle(3);
  Simulator sim = bundle.make_simulator();

  std::array<std::array<double, metrics::kMetricCount>, 10> previous{};
  for (Time t = 200.0; t <= 1800.0; t += 200.0) {
    sim.run_until(t);
    for (NodeId id = 0; id < sim.node_count(); ++id) {
      for (MetricId metric : metrics::all_metrics()) {
        if (metrics::kind(metric) != metrics::MetricKind::kCounter) continue;
        const double now = sim.node(id).metric(metric);
        EXPECT_GE(now, previous[id][metrics::index_of(metric)])
            << "counter " << metrics::name(metric) << " regressed on node "
            << id << " at t=" << t;
        previous[id][metrics::index_of(metric)] = now;
      }
    }
  }
}

TEST(Simulator, PacketsCarryCorrectBlocks) {
  auto bundle = small_bundle(5);
  SimulationResult result = bundle.make_simulator().run();
  ASSERT_FALSE(result.sink_log.empty());
  for (const SinkPacketRecord& record : result.sink_log) {
    const BlockRange range = block_range(record.type);
    EXPECT_EQ(record.values.size(), range.count);
    EXPECT_GT(record.hops, 0u);
    EXPECT_NE(record.origin, kSinkId);
  }
}

TEST(Simulator, NodeFailureSilencesNodeAndStressesNeighbors) {
  auto bundle = small_bundle(9);
  FaultCommand failure;
  failure.type = FaultCommand::Type::kNodeFailure;
  failure.node = 5;
  failure.start = 900.0;
  bundle.faults.push_back(failure);

  Simulator sim = bundle.make_simulator();
  sim.run_until(1800.0);
  EXPECT_FALSE(sim.node(5).alive());

  SimulationResult result = sim.snapshot_result();
  // No originations from node 5 after the failure.
  for (const Origination& o : result.originations) {
    if (o.origin == 5) {
      EXPECT_LT(o.time, 910.0);
    }
  }
  // Ground truth recorded.
  ASSERT_EQ(result.ground_truth.size(), 1u);
  EXPECT_EQ(result.ground_truth[0].hazard, metrics::HazardEvent::kNodeFailure);
}

TEST(Simulator, ChildrenOfFailedNodeReRoute) {
  auto bundle = small_bundle(13);
  Simulator sim = bundle.make_simulator();
  sim.run_until(600.0);
  // Find a node whose parent is not the sink, fail that parent.
  NodeId victim = kInvalidNode, parent = kInvalidNode;
  for (NodeId id = 1; id < sim.node_count(); ++id) {
    if (sim.node(id).has_parent() && sim.node(id).parent() != kSinkId) {
      victim = id;
      parent = sim.node(id).parent();
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode) << "grid too flat for a multi-hop route";
  sim.mutable_node(parent).fail();
  sim.run_until(1800.0);
  // The orphan must have found a different parent and kept reporting.
  EXPECT_TRUE(sim.node(victim).has_parent());
  EXPECT_NE(sim.node(victim).parent(), parent);
  EXPECT_GT(sim.node(victim).metric(MetricId::kParentChangeCounter), 1.0);
}

TEST(Simulator, RebootResetsCountersMidRun) {
  auto bundle = small_bundle(17);
  FaultCommand reboot;
  reboot.type = FaultCommand::Type::kNodeReboot;
  reboot.node = 3;
  reboot.start = 1200.0;
  bundle.faults.push_back(reboot);

  Simulator sim = bundle.make_simulator();
  sim.run_until(1199.0);
  const double before = sim.node(3).metric(MetricId::kTransmitCounter);
  EXPECT_GT(before, 0.0);
  sim.run_until(1205.0);
  EXPECT_LT(sim.node(3).metric(MetricId::kTransmitCounter), before);
  sim.run_until(1800.0);
  // The node rejoined: it transmits again and has a parent.
  EXPECT_TRUE(sim.node(3).alive());
  EXPECT_GT(sim.node(3).metric(MetricId::kTransmitCounter), 0.0);
  EXPECT_TRUE(sim.node(3).has_parent());
}

/// A 6-hop chain (spacing beyond single-hop reach of the sink) so that
/// multi-hop routes — and therefore loops — are possible.
scenario::ScenarioBundle chain_bundle(std::uint64_t seed) {
  scenario::ScenarioBundle bundle;
  for (int i = 0; i <= 6; ++i)
    bundle.config.positions.push_back({25.0 * i, 0.0});
  bundle.config.duration = 3600.0;
  bundle.config.report_period = 60.0;
  bundle.config.beacon_period = 10.0;
  bundle.config.seed = seed;
  // Deterministic links: 25 m hops are solid, 50 m skips are out of range,
  // so the chain is guaranteed connected and guaranteed multi-hop.
  bundle.config.radio.shadowing_stddev_db = 0.0;
  return bundle;
}

TEST(Simulator, ChainTopologyIsMultiHop) {
  auto bundle = chain_bundle(19);
  Simulator sim = bundle.make_simulator();
  sim.run_until(600.0);
  // The far end must route through intermediates, not directly to the sink.
  EXPECT_TRUE(sim.node(6).has_parent());
  EXPECT_NE(sim.node(6).parent(), kSinkId);
}

TEST(Simulator, ForcedLoopTriggersLoopCounters) {
  auto bundle = chain_bundle(21);
  FaultCommand loop;
  // Node 2 routes toward the sink; node 3 routes through node 2. Pinning
  // node 2's parent to node 3 creates a 2↔3 cycle.
  loop.type = FaultCommand::Type::kForcedLoop;
  loop.node = 2;
  loop.start = 600.0;
  loop.end = 1800.0;
  bundle.faults.push_back(loop);

  Simulator sim = bundle.make_simulator();
  SimulationResult result = sim.run();
  double total_loops = 0.0;
  for (NodeId id = 0; id < sim.node_count(); ++id)
    total_loops += sim.node(id).metric(MetricId::kLoopCounter);
  EXPECT_GT(total_loops + static_cast<double>(result.stats.loops_detected),
            0.0);
  // The loop burns extra transmissions and duplicates while it lasts.
  EXPECT_GT(result.stats.duplicates, 0u);
}

TEST(Simulator, JammerRaisesBackoffsAndHurtsDelivery) {
  auto clean = small_bundle(25);
  SimulationResult baseline = clean.make_simulator().run();

  auto jammed = small_bundle(25);
  FaultCommand jam;
  jam.type = FaultCommand::Type::kJammer;
  jam.center = {8.0, 8.0};
  jam.radius_m = 60.0;
  jam.start = 300.0;
  jam.end = 1500.0;
  jam.magnitude = 0.7;
  jammed.faults.push_back(jam);
  SimulationResult result = jammed.make_simulator().run();

  // In a dense short-range network, 30 retransmissions paper over most
  // jamming losses — the jam's signature is the contention cost, not lost
  // delivery: backoffs and NOACK retries surge.
  EXPECT_GT(result.stats.mac_backoffs, 2 * baseline.stats.mac_backoffs + 10);
  EXPECT_GT(result.stats.noack_retransmits, baseline.stats.noack_retransmits);
  EXPECT_GT(result.stats.data_transmissions, baseline.stats.data_transmissions);
}

TEST(Simulator, BatteryDrainCausesBrownOut) {
  auto bundle = small_bundle(29);
  FaultCommand drain;
  drain.type = FaultCommand::Type::kBatteryDrain;
  drain.node = 4;
  drain.start = 120.0;
  drain.end = 1800.0;
  drain.magnitude = 50000.0;
  bundle.faults.push_back(drain);

  Simulator sim = bundle.make_simulator();
  sim.run_until(1800.0);
  EXPECT_FALSE(sim.node(4).alive());
  EXPECT_LT(sim.node(4).voltage(), 2.8);
}

TEST(Simulator, CongestionBurstOverflowsQueues) {
  auto bundle = small_bundle(33);
  FaultCommand burst;
  burst.type = FaultCommand::Type::kCongestionBurst;
  burst.center = {8.0, 8.0};
  burst.radius_m = 60.0;
  burst.start = 600.0;
  burst.end = 900.0;
  burst.magnitude = 4.0;  // 4 extra packets/s per node — heavy.
  bundle.faults.push_back(burst);

  SimulationResult result = bundle.make_simulator().run();
  auto clean = small_bundle(33);
  SimulationResult baseline = clean.make_simulator().run();
  EXPECT_GT(result.stats.queue_overflows + result.stats.noack_retransmits,
            baseline.stats.queue_overflows + baseline.stats.noack_retransmits);
}

TEST(Simulator, RadioOnTimeAccrues) {
  auto bundle = small_bundle(37);
  Simulator sim = bundle.make_simulator();
  sim.run_until(1800.0);
  for (NodeId id = 1; id < sim.node_count(); ++id)
    EXPECT_GT(sim.node(id).metric(MetricId::kRadioOnTime), 0.0);
}

TEST(Simulator, GroundTruthBlastRadius) {
  auto bundle = small_bundle(41);
  FaultCommand jam;
  jam.type = FaultCommand::Type::kJammer;
  jam.center = {0.0, 0.0};
  jam.radius_m = 10.0;
  jam.start = 100.0;
  jam.end = 200.0;
  jam.magnitude = 0.5;
  bundle.faults.push_back(jam);
  Simulator sim = bundle.make_simulator();
  SimulationResult result = sim.snapshot_result();
  ASSERT_EQ(result.ground_truth.size(), 1u);
  EXPECT_FALSE(result.ground_truth[0].affected_nodes.empty());
  // Every affected node is inside the radius.
  for (NodeId id : result.ground_truth[0].affected_nodes)
    EXPECT_LE(distance(sim.node(id).position(), jam.center), jam.radius_m);
}

TEST(Simulator, NeighborsInRangeSymmetry) {
  auto bundle = small_bundle(45);
  Simulator sim = bundle.make_simulator();
  for (NodeId u = 0; u < sim.node_count(); ++u) {
    for (NodeId w : sim.neighbors_in_range(u)) {
      const auto& back = sim.neighbors_in_range(w);
      EXPECT_NE(std::find(back.begin(), back.end(), u), back.end())
          << "asymmetric in-range relation " << u << "<->" << w;
    }
  }
}

}  // namespace
}  // namespace vn2::wsn
