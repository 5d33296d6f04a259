#include "wsn/node.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace vn2::wsn {

using metrics::MetricId;

Node::Node(NodeId id, Position position, NodeParams params)
    : id_(id), position_(position), params_(params),
      voltage_(params.initial_voltage) {}

void Node::fail() {
  alive_ = false;
  sending = false;
  queue_.clear();
}

void Node::reboot(Time now) {
  alive_ = true;
  boot_time_ = now;
  // Volatile state is lost on reboot: counters restart at zero (their diffs
  // at the sink go sharply negative — part of the reboot signature), the
  // routing state and caches are rebuilt from scratch.
  metrics_.fill(0.0);
  table_.clear();
  parent_ = kInvalidNode;
  path_etx_ = 0.0;
  route_pinned_ = false;
  beacon_seq_ = 0;
  data_seq_ = 0;
  queue_.clear();
  duplicate_count_ = 0;
  duplicate_next_ = 0;
  retransmit_count = 0;
  sending = false;
  channel_activity = 0.0;
  report_epoch = 0;
  beacon_interval = 0.0;
}

void Node::drain(double volts) noexcept {
  voltage_ = std::max(0.0, voltage_ - volts * drain_multiplier_);
}

bool Node::brown_out() const noexcept {
  return voltage_ < params_.shutdown_voltage;
}

double Node::clock_scale(double temperature_c) const noexcept {
  const double dt = temperature_c - 25.0;
  // Crystal frequency error grows quadratically away from the calibration
  // temperature; a fast oscillator shortens intervals (scale < 1).
  const double drift = params_.clock_drift_coeff * dt * dt;
  return std::clamp(1.0 - drift, 0.5, 1.5);
}

void Node::refresh_neighbor_metrics() {
  const auto& slots = table_.slots();
  for (std::size_t i = 0; i < NeighborTable::kSlots; ++i) {
    const NeighborEntry& entry = slots[i];
    if (entry.occupied()) {
      // Report RSSI as a non-negative magnitude above a -100 dBm reference
      // so the metric, like the paper's, lives on a positive scale.
      set_metric(metrics::neighbor_rssi(i),
                 std::max(0.0, entry.rssi_dbm + 100.0));
      set_metric(metrics::neighbor_etx(i), entry.link_etx());
    } else {
      set_metric(metrics::neighbor_rssi(i), 0.0);
      set_metric(metrics::neighbor_etx(i), 0.0);
    }
  }
  set_metric(MetricId::kNeighborNum,
             static_cast<double>(table_.occupancy()));
}

void Node::set_route(NodeId parent, double path_etx) noexcept {
  parent_ = parent;
  path_etx_ = path_etx;
}

void Node::clear_route() noexcept {
  parent_ = kInvalidNode;
  path_etx_ = NeighborTable::kEtxCap;
}

bool Node::enqueue(DataPacket packet) {
  if (queue_.size() >= params_.queue_capacity) {
    bump(MetricId::kOverflowDropCounter);
    return false;
  }
  queue_.push_back(std::move(packet));
  return true;
}

DataPacket& Node::queue_front() {
  if (queue_.empty()) throw std::logic_error("queue_front: empty queue");
  return queue_.front();
}

void Node::pop_front() {
  if (queue_.empty()) throw std::logic_error("pop_front: empty queue");
  queue_.pop_front();
  retransmit_count = 0;
}

bool Node::check_duplicate(NodeId origin, std::uint32_t seq) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(origin) << 32) | seq;
  // Only filled slots are searched, so an empty slot never matches key 0.
  const auto filled = duplicate_keys_.begin() +
                      static_cast<std::ptrdiff_t>(duplicate_count_);
  if (std::find(duplicate_keys_.begin(), filled, key) != filled) {
    bump(MetricId::kDuplicateCounter);
    return true;
  }
  duplicate_keys_[duplicate_next_] = key;
  duplicate_next_ = (duplicate_next_ + 1) % kDuplicateCacheSize;
  duplicate_count_ = std::min(duplicate_count_ + 1, kDuplicateCacheSize);
  return false;
}

}  // namespace vn2::wsn
