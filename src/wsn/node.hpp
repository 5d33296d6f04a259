// Per-node state: TelosB-like hardware model (battery, temperature-dependent
// clock drift, radio duty cycle), the 43 injected metrics, routing state,
// transmit queue, and duplicate cache.
//
// Protocol *logic* (who transmits what when) lives in Simulator; Node is the
// state it acts on, with small self-contained behaviors (counter updates,
// battery integration, queue admission) implemented here so they can be unit
// tested without a full simulation.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>

#include "metrics/schema.hpp"
#include "wsn/neighbor_table.hpp"
#include "wsn/packet.hpp"
#include "wsn/types.hpp"

namespace vn2::wsn {

struct NodeParams {
  /// Fresh 2×AA pack. The ~0.4 V headroom above shutdown means no node
  /// browns out from ordinary duty inside a two-week experiment — only
  /// battery faults (or months of runtime) get a mote to 2.8 V.
  double initial_voltage = 3.2;
  double shutdown_voltage = 2.8;   ///< Paper: node stops working below 2.8 V.
  /// Volts consumed per second of radio-on time. Tuned so an idle mote
  /// lasts months, and a busy relay (tens of thousands of transmissions a
  /// day) sags visibly but survives a two-week experiment — the TelosB
  /// 2×AA envelope.
  double drain_per_radio_second = 2.5e-6;
  /// Volts consumed per transmission (tx cost beyond listening).
  double drain_per_transmission = 4.0e-8;
  /// Quadratic clock-drift coefficient: drift = coeff · (T − 25 °C)².
  double clock_drift_coeff = 2.0e-5;
  std::size_t queue_capacity = 12;
  std::size_t max_retransmissions = 30;  ///< Paper: drop after 30 tries.
};

class Node {
 public:
  /// (origin, seq) keys the duplicate cache remembers.
  static constexpr std::size_t kDuplicateCacheSize = 64;

  Node(NodeId id, Position position, NodeParams params);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const Position& position() const noexcept { return position_; }

  // --- liveness ------------------------------------------------------------
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  void fail();                ///< Node disappears (hardware death / removal).
  void reboot(Time now);      ///< Restart: counters and volatile state reset.
  [[nodiscard]] Time boot_time() const noexcept { return boot_time_; }

  // --- battery / clock -----------------------------------------------------
  [[nodiscard]] double voltage() const noexcept { return voltage_; }
  void drain(double volts) noexcept;
  void set_battery_drain_multiplier(double m) noexcept { drain_multiplier_ = m; }
  [[nodiscard]] double battery_drain_multiplier() const noexcept {
    return drain_multiplier_;
  }
  /// True once voltage fell below the shutdown threshold.
  [[nodiscard]] bool brown_out() const noexcept;
  /// Multiplies nominal timer intervals; >1 = slow clock, <1 = fast clock.
  [[nodiscard]] double clock_scale(double temperature_c) const noexcept;

  // --- metrics ---------------------------------------------------------------
  [[nodiscard]] double metric(metrics::MetricId id) const noexcept {
    return metrics_[metrics::index_of(id)];
  }
  void set_metric(metrics::MetricId id, double v) noexcept {
    metrics_[metrics::index_of(id)] = v;
  }
  void bump(metrics::MetricId id, double delta = 1.0) noexcept {
    metrics_[metrics::index_of(id)] += delta;
  }
  [[nodiscard]] const std::array<double, metrics::kMetricCount>& metrics()
      const noexcept {
    return metrics_;
  }
  /// Copies the C2 block (neighbor RSSI / ETX) out of the routing table.
  void refresh_neighbor_metrics();

  // --- routing ---------------------------------------------------------------
  NeighborTable& table() noexcept { return table_; }
  [[nodiscard]] const NeighborTable& table() const noexcept { return table_; }

  [[nodiscard]] NodeId parent() const noexcept { return parent_; }
  [[nodiscard]] bool has_parent() const noexcept {
    return parent_ != kInvalidNode;
  }
  [[nodiscard]] double path_etx() const noexcept { return path_etx_; }
  void set_route(NodeId parent, double path_etx) noexcept;
  void clear_route() noexcept;
  /// True while a fault pins the parent pointer (forced-loop injection).
  [[nodiscard]] bool route_pinned() const noexcept { return route_pinned_; }
  void pin_route(bool pinned) noexcept { route_pinned_ = pinned; }

  [[nodiscard]] std::uint32_t next_beacon_seq() noexcept {
    return beacon_seq_++;
  }
  [[nodiscard]] std::uint32_t next_data_seq() noexcept { return data_seq_++; }

  // --- transmit queue ----------------------------------------------------------
  /// Admits a packet. On overflow returns false and bumps
  /// Overflow_drop_counter (the caller must not ACK in that case).
  bool enqueue(DataPacket packet);
  [[nodiscard]] bool queue_empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t queue_size() const noexcept { return queue_.size(); }
  [[nodiscard]] DataPacket& queue_front();
  void pop_front();

  // --- duplicate suppression -----------------------------------------------
  /// Returns true (and bumps Duplicate_counter) if (origin, seq) is among
  /// the last kDuplicateCacheSize keys remembered; otherwise remembers it,
  /// forgetting the oldest once the cache is full.
  bool check_duplicate(NodeId origin, std::uint32_t seq);

  // --- in-flight bookkeeping (owned by Simulator, stored here) --------------
  std::size_t retransmit_count = 0;   ///< Attempts for the head-of-line packet.
  bool sending = false;               ///< A send attempt is scheduled.
  double channel_activity = 0.0;      ///< EWMA of nearby transmissions.
  Time activity_updated = 0.0;
  std::uint64_t report_epoch = 0;     ///< Next reporting epoch number.
  Time beacon_interval = 0.0;         ///< Trickle state (0 = not initialized).

  [[nodiscard]] const NodeParams& params() const noexcept { return params_; }

 private:
  NodeId id_;
  Position position_;
  NodeParams params_;

  bool alive_ = true;
  Time boot_time_ = 0.0;
  double voltage_;
  double drain_multiplier_ = 1.0;

  std::array<double, metrics::kMetricCount> metrics_{};
  NeighborTable table_;
  NodeId parent_ = kInvalidNode;
  double path_etx_ = 0.0;
  bool route_pinned_ = false;
  std::uint32_t beacon_seq_ = 0;
  std::uint32_t data_seq_ = 0;

  std::deque<DataPacket> queue_;
  // The duplicate cache: a ring searched linearly. The first
  // duplicate_count_ slots hold keys; duplicate_next_ is the slot the next
  // key overwrites, which is the oldest once the ring is full.
  std::array<std::uint64_t, kDuplicateCacheSize> duplicate_keys_{};
  std::size_t duplicate_count_ = 0;
  std::size_t duplicate_next_ = 0;
};

}  // namespace vn2::wsn
