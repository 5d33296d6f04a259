// The discrete-event WSN simulator: a CTP-style collection network of
// TelosB-like nodes with a CSMA MAC, instrumented with the 43 VN2 metrics
// and driven by a fault-injection schedule.
//
// Model notes (where we approximate full-fidelity radio simulation):
//  * CSMA is modeled statistically: each node keeps an exponentially-decaying
//    "channel activity" variable bumped by nearby transmissions; the busy
//    probability of a send attempt grows with it (plus active jammers). This
//    reproduces the *metric signature* of contention (MacI_backoff_counter,
//    NOACK retransmits) without bit-level channel arbitration.
//  * Links are independent Bernoulli channels with PRR from the radio model;
//    there is no capture/SINR interaction between concurrent packets.
//  * Duplicate suppression keys on (origin, seq, hops) as CTP does on
//    (origin, seq, THL), so a routing loop re-forwards packets every
//    revolution until the hop cap — producing the paper's loop signature
//    (transmit/self-transmit/duplicate/overflow counters all surge).
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "wsn/environment.hpp"
#include "wsn/event_queue.hpp"
#include "wsn/faults.hpp"
#include "wsn/node.hpp"
#include "wsn/packet.hpp"
#include "wsn/radio.hpp"
#include "wsn/types.hpp"

namespace vn2::wsn {

struct SimConfig {
  /// Node positions; index = NodeId, node 0 is the sink.
  std::vector<Position> positions;
  Time duration = 3600.0;
  Time report_period = 600.0;  ///< CitySee: 10 minutes.
  Time beacon_period = 60.0;
  /// Trickle-style adaptive beaconing (CTP): the interval starts at
  /// beacon_period and doubles while the node's route is stable, up to
  /// beacon_interval_max; a parent change, route loss, loop detection, or
  /// reboot resets it. Off by default (fixed-period beacons).
  bool adaptive_beaconing = false;
  Time beacon_interval_max = 0.0;  ///< 0 → 8 × beacon_period.
  /// BoX-MAC-style low-power listening: receivers sleep and probe the
  /// channel every lpl_interval for lpl_probe seconds; a unicast sender
  /// pays an extended preamble (up to one full interval) until the
  /// receiver's wake moment, and broadcasts (beacons) pay the full
  /// interval. Cuts idle radio-on time by ~interval/probe at the price of
  /// more expensive transmissions. Off by default (always-on radio).
  bool low_power_listening = false;
  Time lpl_interval = 0.512;
  Time lpl_probe = 0.011;
  Time retry_delay = 0.5;      ///< Between retransmissions of one packet.
  Time backoff_delay = 0.05;   ///< CSMA backoff wait.
  Time inter_packet_gap = 0.05;  ///< Between queue services.
  Time route_hold_down = 10.0; ///< Retry cadence while no parent exists.
  Time neighbor_timeout = 360.0;
  double tx_duration_s = 0.004;
  double ack_duration_s = 0.001;
  /// Radio listening duty cycle (fraction of wall time the radio is on when
  /// idle) — contributes the Radio_on_time baseline.
  double idle_duty_cycle = 0.05;
  double csma_base_busy = 0.02;
  double csma_activity_weight = 0.06;
  std::size_t csma_max_backoffs = 5;
  double parent_hysteresis_etx = 1.5;
  /// Consecutive NOACK failures after which the parent is evicted.
  std::size_t parent_eviction_failures = 8;
  std::uint8_t max_hops = 32;  ///< TTL: drop beyond this (loop guard).
  NodeParams node;
  RadioParams radio;
  EnvironmentParams environment;
  std::uint64_t seed = 0x5137D0ULL;
};

/// A data packet as received by the sink.
struct SinkPacketRecord {
  Time recv_time = 0.0;
  NodeId origin = kInvalidNode;
  std::uint64_t epoch = 0;
  metrics::PacketType type = metrics::PacketType::kC1;
  std::vector<double> values;  ///< Block values in schema order.
  std::uint8_t hops = 0;
};

/// Log of every self-generated report packet (for PRR accounting).
struct Origination {
  Time time = 0.0;
  NodeId origin = kInvalidNode;
  std::uint64_t epoch = 0;
  metrics::PacketType type = metrics::PacketType::kC1;
};

struct SimStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t data_delivered_hop = 0;  ///< Successful single-hop deliveries.
  std::uint64_t packets_at_sink = 0;
  std::uint64_t noack_retransmits = 0;
  std::uint64_t queue_overflows = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t loops_detected = 0;
  std::uint64_t drops_after_retry_limit = 0;
  std::uint64_t ttl_drops = 0;
  std::uint64_t mac_backoffs = 0;
};

struct SimulationResult {
  std::vector<SinkPacketRecord> sink_log;
  std::vector<Origination> originations;
  std::vector<InjectedFault> ground_truth;
  SimStats stats;
  Time duration = 0.0;
  std::size_t node_count = 0;
  Time report_period = 0.0;
};

class Simulator {
 public:
  /// Builds the network and injects each fault in order; every fault is
  /// recorded as ground truth with its blast radius.
  explicit Simulator(SimConfig config,
                     const std::vector<FaultCommand>& faults = {});

  // Scheduled events point at this simulator, so it neither copies nor
  // moves: initialize it in place, e.g. from ScenarioBundle::make_simulator.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the full configured duration and moves the logs into the result,
  /// which leaves the simulator spent: run() and run_until() then throw
  /// std::logic_error.
  SimulationResult run();

  /// Steps the simulation to absolute time `t` (idempotent if t <= now).
  void run_until(Time t);
  [[nodiscard]] Time now() const noexcept { return queue_.now(); }

  /// Copies the results accumulated so far (does not stop the simulation).
  [[nodiscard]] SimulationResult snapshot_result() const;

  // --- introspection (tests, examples) --------------------------------------
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] Node& mutable_node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const Environment& environment() const noexcept {
    return environment_;
  }
  [[nodiscard]] const RadioModel& radio() const noexcept { return radio_; }
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<NodeId>& neighbors_in_range(NodeId id) const {
    return in_range_.at(id);
  }

 private:
  SimConfig config_;
  EventQueue queue_;
  Environment environment_;
  RadioModel radio_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Static in-range candidate lists + cached directed RSSI.
  std::vector<std::vector<NodeId>> in_range_;
  std::vector<std::vector<double>> rssi_cache_;  ///< Parallel to in_range_.
  std::mt19937_64 rng_;
  std::vector<std::uint32_t> generation_;  ///< Invalidates stale timers.
  bool started_ = false;
  bool spent_ = false;  ///< run() moved the logs out.

  std::vector<SinkPacketRecord> sink_log_;
  std::vector<Origination> originations_;
  std::vector<InjectedFault> ground_truth_;
  SimStats stats_;

  /// Active regional fault state.
  struct ActiveJammer {
    Position center;
    double radius_m;
    Time start, end;
    double intensity;  ///< Added busy probability at the epicenter.
  };
  std::vector<ActiveJammer> jammers_;

  void inject(const FaultCommand& command);
  /// The result around the given logs: copies for a snapshot, the
  /// moved-out logs for run().
  [[nodiscard]] SimulationResult result_with(
      std::vector<SinkPacketRecord> sink_log,
      std::vector<Origination> originations,
      std::vector<InjectedFault> ground_truth) const;
  void start();
  void schedule_node_timers(NodeId id);
  void beacon_tick(NodeId id, std::uint32_t generation);
  void report_tick(NodeId id, std::uint32_t generation);
  void try_send(NodeId id);
  void attempt_transmission(NodeId id, std::uint32_t generation,
                            std::size_t backoffs);
  void deliver_to(NodeId receiver_id, DataPacket packet, bool& ack);
  void update_route(NodeId id);
  void reset_beacon_interval(Node& node);
  void sample_sensors(Node& node);
  void apply_fault(const FaultCommand& command);
  void bump_activity_around(NodeId sender);
  [[nodiscard]] double busy_probability(Node& node) const;
  [[nodiscard]] double activity_of(Node& node) const;
  [[nodiscard]] double link_prr(NodeId from, NodeId to, Time t) const;
  [[nodiscard]] bool chance(double p);
  [[nodiscard]] std::vector<NodeId> nodes_in_region(const Position& center,
                                                    double radius) const;
  [[nodiscard]] double uniform(double lo, double hi);
};

}  // namespace vn2::wsn
