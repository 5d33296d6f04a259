#include "wsn/node.hpp"

#include <gtest/gtest.h>

namespace vn2::wsn {
namespace {

using metrics::MetricId;

Node make_node(NodeId id = 1) { return Node(id, {0.0, 0.0}, NodeParams{}); }

TEST(Node, InitialState) {
  Node node = make_node(7);
  EXPECT_EQ(node.id(), 7);
  EXPECT_TRUE(node.alive());
  EXPECT_DOUBLE_EQ(node.voltage(), 3.2);
  EXPECT_FALSE(node.has_parent());
  EXPECT_TRUE(node.queue_empty());
  for (MetricId id : metrics::all_metrics())
    EXPECT_DOUBLE_EQ(node.metric(id), 0.0);
}

TEST(Node, MetricBumpAndSet) {
  Node node = make_node();
  node.bump(MetricId::kLoopCounter);
  node.bump(MetricId::kLoopCounter, 2.0);
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kLoopCounter), 3.0);
  node.set_metric(MetricId::kVoltage, 2.9);
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kVoltage), 2.9);
}

TEST(Node, DrainAndBrownOut) {
  Node node = make_node();
  EXPECT_FALSE(node.brown_out());
  node.drain(0.35);
  EXPECT_NEAR(node.voltage(), 2.85, 1e-12);
  EXPECT_FALSE(node.brown_out());
  node.drain(0.10);
  EXPECT_TRUE(node.brown_out());
  // Drain multiplier scales consumption (battery-drain fault).
  Node drained = make_node();
  drained.set_battery_drain_multiplier(10.0);
  drained.drain(0.035);
  EXPECT_NEAR(drained.voltage(), 2.85, 1e-12);
}

TEST(Node, VoltageNeverNegative) {
  Node node = make_node();
  node.drain(100.0);
  EXPECT_DOUBLE_EQ(node.voltage(), 0.0);
}

TEST(Node, ClockScaleQuadraticInTemperature) {
  Node node = make_node();
  const double at25 = node.clock_scale(25.0);
  EXPECT_DOUBLE_EQ(at25, 1.0);
  const double at35 = node.clock_scale(35.0);
  const double at45 = node.clock_scale(45.0);
  EXPECT_LT(at35, 1.0);   // Hotter → faster crystal here → shorter intervals.
  EXPECT_LT(at45, at35);  // Quadratic growth of drift.
  // Symmetric: cold drifts too.
  EXPECT_DOUBLE_EQ(node.clock_scale(15.0), at35);
  // Clamped.
  EXPECT_GE(node.clock_scale(200.0), 0.5);
}

TEST(Node, QueueAdmissionAndOverflow) {
  NodeParams params;
  params.queue_capacity = 2;
  Node node(1, {0, 0}, params);
  DataPacket p;
  p.origin = 5;
  EXPECT_TRUE(node.enqueue(p));
  EXPECT_TRUE(node.enqueue(p));
  EXPECT_FALSE(node.enqueue(p));  // Overflow.
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kOverflowDropCounter), 1.0);
  EXPECT_EQ(node.queue_size(), 2u);
}

TEST(Node, QueueFifoAndPop) {
  Node node = make_node();
  DataPacket a, b;
  a.origin_seq = 1;
  b.origin_seq = 2;
  node.enqueue(a);
  node.enqueue(b);
  node.retransmit_count = 5;
  EXPECT_EQ(node.queue_front().origin_seq, 1u);
  node.pop_front();
  EXPECT_EQ(node.retransmit_count, 0u);  // Pop resets the retry counter.
  EXPECT_EQ(node.queue_front().origin_seq, 2u);
}

TEST(Node, QueueFrontOnEmptyThrows) {
  Node node = make_node();
  EXPECT_THROW((void)node.queue_front(), std::logic_error);
  EXPECT_THROW(node.pop_front(), std::logic_error);
}

TEST(Node, DuplicateDetection) {
  Node node = make_node();
  EXPECT_FALSE(node.check_duplicate(3, 100));
  EXPECT_TRUE(node.check_duplicate(3, 100));
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kDuplicateCounter), 1.0);
  EXPECT_FALSE(node.check_duplicate(3, 101));
  EXPECT_FALSE(node.check_duplicate(4, 100));  // Different origin.
  EXPECT_FALSE(node.check_duplicate(0, 0));  // An empty slot is not key 0.
  EXPECT_TRUE(node.check_duplicate(0, 0));
}

TEST(Node, DuplicateCacheEvictsOldest) {
  Node node = make_node();
  constexpr auto kFull = static_cast<std::uint32_t>(Node::kDuplicateCacheSize);
  for (std::uint32_t s = 0; s <= kFull; ++s) node.check_duplicate(1, s);
  // Seq 0 was evicted by seq kFull → seen again as fresh.
  EXPECT_FALSE(node.check_duplicate(1, 0));
  // Seq kFull is still cached.
  EXPECT_TRUE(node.check_duplicate(1, kFull));
}

TEST(Node, FailStopsEverything) {
  Node node = make_node();
  DataPacket p;
  node.enqueue(p);
  node.sending = true;
  node.fail();
  EXPECT_FALSE(node.alive());
  EXPECT_TRUE(node.queue_empty());
  EXPECT_FALSE(node.sending);
}

TEST(Node, RebootResetsVolatileStateButNotBattery) {
  Node node = make_node();
  node.bump(MetricId::kTransmitCounter, 500.0);
  node.set_route(3, 2.5);
  node.drain(0.05);
  node.table().on_beacon(3, -60.0, 0, 1.0, 0.0);
  node.check_duplicate(9, 1);
  node.fail();
  node.reboot(1234.0);

  EXPECT_TRUE(node.alive());
  EXPECT_DOUBLE_EQ(node.boot_time(), 1234.0);
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kTransmitCounter), 0.0);
  EXPECT_FALSE(node.has_parent());
  EXPECT_EQ(node.table().occupancy(), 0u);
  EXPECT_FALSE(node.check_duplicate(9, 1));  // Cache forgotten.
  EXPECT_NEAR(node.voltage(), 3.15, 1e-12);  // Battery does NOT reset.
}

TEST(Node, RouteManagement) {
  Node node = make_node();
  node.set_route(4, 3.2);
  EXPECT_TRUE(node.has_parent());
  EXPECT_EQ(node.parent(), 4);
  EXPECT_DOUBLE_EQ(node.path_etx(), 3.2);
  node.clear_route();
  EXPECT_FALSE(node.has_parent());
  EXPECT_DOUBLE_EQ(node.path_etx(), NeighborTable::kEtxCap);
}

TEST(Node, RefreshNeighborMetricsMapsSlots) {
  Node node = make_node();
  node.table().on_beacon(5, -72.0, 0, 2.0, 0.0);
  node.table().on_beacon(6, -80.0, 0, 3.0, 0.0);
  node.refresh_neighbor_metrics();
  // Slot 0 → RSSI reported as offset above -100 dBm.
  EXPECT_NEAR(node.metric(metrics::neighbor_rssi(0)), 28.0, 1e-9);
  EXPECT_NEAR(node.metric(metrics::neighbor_rssi(1)), 20.0, 1e-9);
  EXPECT_GT(node.metric(metrics::neighbor_etx(0)), 0.0);
  EXPECT_DOUBLE_EQ(node.metric(metrics::neighbor_rssi(2)), 0.0);
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kNeighborNum), 2.0);
  // Eviction zeroes the slot at next refresh.
  node.table().evict(5);
  node.refresh_neighbor_metrics();
  EXPECT_DOUBLE_EQ(node.metric(metrics::neighbor_rssi(0)), 0.0);
  EXPECT_DOUBLE_EQ(node.metric(MetricId::kNeighborNum), 1.0);
}

TEST(Node, SequenceNumbersMonotone) {
  Node node = make_node();
  EXPECT_EQ(node.next_beacon_seq(), 0u);
  EXPECT_EQ(node.next_beacon_seq(), 1u);
  EXPECT_EQ(node.next_data_seq(), 0u);
  EXPECT_EQ(node.next_data_seq(), 1u);
  node.reboot(0.0);
  EXPECT_EQ(node.next_beacon_seq(), 0u);  // Reset on reboot.
}

}  // namespace
}  // namespace vn2::wsn
