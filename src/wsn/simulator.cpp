#include "wsn/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::wsn {

namespace {

// Telemetry-only: one counter per fault class, so a snapshot shows the
// injection mix without consulting the ground-truth log.
void count_fault_injection(FaultCommand::Type type) {
  switch (type) {
    case FaultCommand::Type::kNodeFailure:
      VN2_COUNT("sim.fault.node_failure");
      break;
    case FaultCommand::Type::kNodeReboot:
      VN2_COUNT("sim.fault.node_reboot");
      break;
    case FaultCommand::Type::kLinkDegradation:
      VN2_COUNT("sim.fault.link_degradation");
      break;
    case FaultCommand::Type::kJammer:
      VN2_COUNT("sim.fault.jammer");
      break;
    case FaultCommand::Type::kForcedLoop:
      VN2_COUNT("sim.fault.forced_loop");
      break;
    case FaultCommand::Type::kBatteryDrain:
      VN2_COUNT("sim.fault.battery_drain");
      break;
    case FaultCommand::Type::kCongestionBurst:
      VN2_COUNT("sim.fault.congestion_burst");
      break;
    case FaultCommand::Type::kNoiseRise:
      VN2_COUNT("sim.fault.noise_rise");
      break;
    case FaultCommand::Type::kTemperatureSpike:
      VN2_COUNT("sim.fault.temperature_spike");
      break;
  }
}

}  // namespace

using metrics::MetricId;
using metrics::PacketType;

Simulator::Simulator(SimConfig config, const std::vector<FaultCommand>& faults)
    : config_(std::move(config)),
      environment_(config_.environment, config_.seed ^ 0xE27ULL),
      radio_(config_.radio, &environment_, config_.seed ^ 0x4Ad10ULL),
      rng_(config_.seed) {
  if (config_.positions.size() < 2)
    throw std::invalid_argument("Simulator: need at least a sink and a node");
  if (config_.positions.size() > kInvalidNode)
    throw std::invalid_argument("Simulator: too many nodes");

  const std::size_t n = config_.positions.size();
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(i),
                                            config_.positions[i],
                                            config_.node));
  }
  generation_.assign(n, 0);

  // Sink is the collection root: route cost 0, always routable.
  nodes_[kSinkId]->set_route(kInvalidNode, 0.0);

  // Precompute static in-range candidates with cached directed RSSI —
  // shadowing is deterministic per link, so this never changes.
  in_range_.resize(n);
  rssi_cache_.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t w = 0; w < n; ++w) {
      if (u == w) continue;
      const double rssi =
          radio_.rssi_dbm(static_cast<NodeId>(u), config_.positions[u],
                          static_cast<NodeId>(w), config_.positions[w]);
      if (rssi >= config_.radio.sensitivity_dbm) {
        in_range_[u].push_back(static_cast<NodeId>(w));
        rssi_cache_[u].push_back(rssi);
      }
    }
  }
  for (const FaultCommand& fault : faults) inject(fault);
}

bool Simulator::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
}

double Simulator::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng_);
}

double Simulator::link_prr(NodeId from, NodeId to, Time t) const {
  VN2_REQUIRE(from < config_.positions.size() && to < config_.positions.size(),
              "link_prr: node id out of range");
  return radio_.prr(from, config_.positions[from], to, config_.positions[to],
                    t);
}

std::vector<NodeId> Simulator::nodes_in_region(const Position& center,
                                               double radius) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (distance(config_.positions[i], center) <= radius)
      out.push_back(static_cast<NodeId>(i));
  return out;
}

void Simulator::inject(const FaultCommand& command) {
  VN2_COUNT("sim.faults.injected");
  count_fault_injection(command.type);
  InjectedFault record;
  record.command = command;
  record.hazard = hazard_of(command.type);

  switch (command.type) {
    case FaultCommand::Type::kNodeFailure:
      record.affected_nodes = {command.node};
      queue_.schedule(command.start, [this, command] {
        Node& node = *nodes_.at(command.node);
        if (!node.alive()) return;
        node.fail();
        ++generation_[command.node];
      });
      break;

    case FaultCommand::Type::kNodeReboot:
      record.affected_nodes = {command.node};
      queue_.schedule(command.start, [this, command] {
        Node& node = *nodes_.at(command.node);
        node.reboot(queue_.now());
        ++generation_[command.node];
        schedule_node_timers(command.node);
      });
      break;

    case FaultCommand::Type::kLinkDegradation:
      record.affected_nodes = {command.node, command.peer};
      radio_.degrade_link(command.node, command.peer, command.magnitude,
                          command.start, command.end);
      break;

    case FaultCommand::Type::kJammer:
      record.affected_nodes =
          nodes_in_region(command.center, command.radius_m);
      jammers_.push_back({command.center, command.radius_m, command.start,
                          command.end, command.magnitude});
      // A jammer also raises the local noise floor, degrading PRR in
      // proportion to its intensity.
      environment_.add_disturbance(
          {Disturbance::Kind::kNoiseRise, command.center, command.radius_m,
           command.start, command.end, 4.0 + 10.0 * command.magnitude});
      break;

    case FaultCommand::Type::kForcedLoop:
      record.affected_nodes = {command.node};
      queue_.schedule(command.start, [this, command] {
        Node& node = *nodes_.at(command.node);
        if (!node.alive()) return;
        // Re-point the node's parent at one of its children: the classic
        // stale-route loop.
        for (const auto& candidate : nodes_) {
          if (candidate->alive() && candidate->parent() == command.node) {
            node.set_route(candidate->id(), node.path_etx());
            node.pin_route(true);
            node.bump(MetricId::kParentChangeCounter);
            break;
          }
        }
      });
      queue_.schedule(command.end, [this, command] {
        Node& node = *nodes_.at(command.node);
        node.pin_route(false);
        node.clear_route();
        update_route(command.node);
      });
      break;

    case FaultCommand::Type::kBatteryDrain:
      record.affected_nodes = {command.node};
      queue_.schedule(command.start, [this, command] {
        nodes_.at(command.node)
            ->set_battery_drain_multiplier(std::max(command.magnitude, 1.0));
      });
      queue_.schedule(command.end, [this, command] {
        nodes_.at(command.node)->set_battery_drain_multiplier(1.0);
      });
      break;

    case FaultCommand::Type::kCongestionBurst: {
      record.affected_nodes =
          nodes_in_region(command.center, command.radius_m);
      // Affected nodes emit an extra data packet every `period` seconds.
      const double rate = std::max(command.magnitude, 0.01);
      const Time period = 1.0 / rate;
      const auto targets = record.affected_nodes;
      for (Time t = command.start; t < command.end; t += period) {
        queue_.schedule(t, [this, targets] {
          for (NodeId id : targets) {
            if (id == kSinkId) continue;
            Node& node = *nodes_.at(id);
            if (!node.alive()) continue;
            DataPacket packet;
            packet.origin = id;
            packet.origin_seq = node.next_data_seq();
            packet.epoch = node.report_epoch;
            packet.type = PacketType::kC3;
            const BlockRange range = block_range(packet.type);
            packet.values.assign(
                node.metrics().begin() + static_cast<long>(range.first),
                node.metrics().begin() +
                    static_cast<long>(range.first + range.count));
            packet.created = queue_.now();
            node.bump(MetricId::kSelfTransmitCounter);
            node.enqueue(std::move(packet));
            try_send(id);
          }
        });
      }
      break;
    }

    case FaultCommand::Type::kNoiseRise:
      record.affected_nodes =
          nodes_in_region(command.center, command.radius_m);
      environment_.add_disturbance(
          {Disturbance::Kind::kNoiseRise, command.center, command.radius_m,
           command.start, command.end, command.magnitude});
      break;

    case FaultCommand::Type::kTemperatureSpike:
      record.affected_nodes =
          nodes_in_region(command.center, command.radius_m);
      environment_.add_disturbance(
          {Disturbance::Kind::kTemperatureSpike, command.center,
           command.radius_m, command.start, command.end, command.magnitude});
      // A heat wave dries the air: relative humidity drops alongside, so
      // the C1 sensor block carries a correlated multi-metric signature.
      environment_.add_disturbance(
          {Disturbance::Kind::kHumiditySpike, command.center,
           command.radius_m, command.start, command.end,
           -1.5 * command.magnitude});
      break;
  }

  ground_truth_.push_back(std::move(record));
}

void Simulator::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    schedule_node_timers(static_cast<NodeId>(i));
}

void Simulator::schedule_node_timers(NodeId id) {
  VN2_REQUIRE(id < nodes_.size(), "schedule_node_timers: node id out of range");
  const std::uint32_t generation = generation_[id];
  // Jittered phase so nodes do not fire in lockstep.
  queue_.schedule_in(uniform(0.0, config_.beacon_period),
                     [this, id, generation] { beacon_tick(id, generation); });
  if (id != kSinkId) {
    queue_.schedule_in(uniform(0.5, 1.0) * config_.report_period,
                       [this, id, generation] { report_tick(id, generation); });
  }
}

void Simulator::beacon_tick(NodeId id, std::uint32_t generation) {
  if (generation != generation_[id]) return;  // Stale timer (fail/reboot).
  Node& node = *nodes_[id];
  if (!node.alive()) return;

  const Time now = queue_.now();

  // Broadcast a routing beacon advertising our path ETX.
  const std::uint32_t seq = node.next_beacon_seq();
  const double advertised =
      id == kSinkId ? 0.0
                    : (node.has_parent() ? node.path_etx()
                                         : NeighborTable::kEtxCap);
  node.bump(MetricId::kBeaconSentCounter);
  node.bump(MetricId::kTransmitCounter);
  // Under LPL a broadcast must span a full wake interval so every sleeping
  // neighbor's probe catches it.
  const double beacon_airtime = config_.low_power_listening
                                    ? config_.lpl_interval
                                    : config_.tx_duration_s;
  node.bump(MetricId::kRadioOnTime, beacon_airtime);
  node.drain(beacon_airtime * config_.node.drain_per_radio_second +
             config_.node.drain_per_transmission);
  stats_.beacons_sent++;
  VN2_COUNT("sim.beacons");
  bump_activity_around(id);

  const auto& candidates = in_range_[id];
  const auto& rssi = rssi_cache_[id];
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const NodeId w = candidates[k];
    Node& receiver = *nodes_[w];
    if (!receiver.alive()) continue;
    if (!chance(link_prr(id, w, now))) continue;
    receiver.bump(MetricId::kBeaconRecvCounter);
    // The RSSI register reads total received power: for weak signals a
    // rising noise floor is visible in the sampled RSSI (Table I's
    // "a node detects that its neighbors' noises are increasing").
    const double noise = environment_.noise_floor_dbm(receiver.position(), now);
    double sample = rssi[k];
    if (noise > sample - 15.0) {
      sample = 10.0 * std::log10(std::pow(10.0, sample / 10.0) +
                                 std::pow(10.0, noise / 10.0));
    }
    receiver.table().on_beacon(id, sample, seq, advertised, now,
                               receiver.parent());
    if (w != kSinkId && !receiver.route_pinned()) update_route(w);
  }

  // Trickle: while the route stays stable the interval doubles, up to the
  // cap; route events reset it back to the base period (see
  // reset_beacon_interval). Fixed-period mode keeps the base interval.
  Time interval = config_.beacon_period;
  if (config_.adaptive_beaconing) {
    if (node.beacon_interval <= 0.0)
      node.beacon_interval = config_.beacon_period;
    // A node without a route stays at the base cadence — it is actively
    // looking for a parent; only a stable routed node backs off.
    if (id != kSinkId && !node.has_parent())
      node.beacon_interval = config_.beacon_period;
    interval = node.beacon_interval;
    // The cap must stay well below the neighbor-expiry timeout, or backed-
    // off nodes vanish from each other's tables between beacons.
    const Time cap = std::min(config_.beacon_interval_max > 0.0
                                  ? config_.beacon_interval_max
                                  : 8.0 * config_.beacon_period,
                              config_.neighbor_timeout / 3.0);
    node.beacon_interval =
        std::min(2.0 * node.beacon_interval, std::max(cap, config_.beacon_period));
  }

  // Clock drift scales the nominal interval; ±5% jitter desynchronizes.
  const double scale =
      node.clock_scale(environment_.temperature_c(node.position(), now));
  const Time next = interval * scale * uniform(0.95, 1.05);
  queue_.schedule_in(next,
                     [this, id, generation] { beacon_tick(id, generation); });
}

void Simulator::reset_beacon_interval(Node& node) {
  if (config_.adaptive_beaconing)
    node.beacon_interval = config_.beacon_period;
}

void Simulator::sample_sensors(Node& node) {
  const Time now = queue_.now();
  const Position& p = node.position();
  const std::uint64_t epoch = node.report_epoch;
  auto jitter = [&](MetricId id) {
    return environment_.sensor_jitter(node.id(), metrics::index_of(id), epoch);
  };
  node.set_metric(MetricId::kTemperature, environment_.temperature_c(p, now) *
                                              jitter(MetricId::kTemperature));
  node.set_metric(MetricId::kHumidity, environment_.humidity_pct(p, now) *
                                           jitter(MetricId::kHumidity));
  node.set_metric(MetricId::kLight,
                  environment_.light_lux(p, now) * jitter(MetricId::kLight));
  // The battery ADC quantizes to ~3 mV steps (TelosB): without this, the
  // reported voltage carries artificial micro-variance (per-epoch drain
  // differences of microvolts) that would dominate the metric's σ.
  constexpr double kVoltageAdcStep = 0.003;
  node.set_metric(MetricId::kVoltage,
                  std::round(node.voltage() / kVoltageAdcStep) *
                      kVoltageAdcStep);
  node.set_metric(MetricId::kPathEtx,
                  node.has_parent() ? node.path_etx() : NeighborTable::kEtxCap);
}

void Simulator::report_tick(NodeId id, std::uint32_t generation) {
  if (generation != generation_[id]) return;
  Node& node = *nodes_[id];
  if (!node.alive()) return;

  const Time now = queue_.now();

  // Idle listening cost for the epoch that just ended. LPL replaces
  // continuous listening with brief periodic channel probes.
  const double duty = config_.low_power_listening
                          ? config_.lpl_probe / config_.lpl_interval
                          : config_.idle_duty_cycle;
  const double idle_on = config_.report_period * duty;
  node.bump(MetricId::kRadioOnTime, idle_on);
  node.drain(idle_on * config_.node.drain_per_radio_second);

  // Brown-out: below 2.8 V the mote stops working (paper, Table I).
  if (node.brown_out()) {
    node.fail();
    ++generation_[id];
    return;
  }

  node.table().expire(now, config_.neighbor_timeout);
  if (!node.route_pinned()) update_route(id);

  sample_sensors(node);
  node.refresh_neighbor_metrics();

  if (!node.has_parent()) node.bump(MetricId::kNoParentCounter);

  // Path length: walk the parent chain (bounded by max_hops).
  double path_len = 0.0;
  NodeId cursor = id;
  for (std::uint8_t h = 0; h < config_.max_hops; ++h) {
    const Node& current = *nodes_[cursor];
    if (cursor == kSinkId) break;
    if (!current.has_parent()) {
      path_len = config_.max_hops;
      break;
    }
    cursor = current.parent();
    ++path_len;
  }
  node.set_metric(MetricId::kPathLength, path_len);

  // Emit the three report packets (C1, C2, C3).
  for (PacketType type :
       {PacketType::kC1, PacketType::kC2, PacketType::kC3}) {
    DataPacket packet;
    packet.origin = id;
    packet.origin_seq = node.next_data_seq();
    packet.epoch = node.report_epoch;
    packet.type = type;
    const BlockRange range = block_range(type);
    packet.values.assign(
        node.metrics().begin() + static_cast<long>(range.first),
        node.metrics().begin() + static_cast<long>(range.first + range.count));
    packet.created = now;
    originations_.push_back({now, id, packet.epoch, type});
    node.bump(MetricId::kSelfTransmitCounter);
    node.enqueue(std::move(packet));
  }
  node.report_epoch++;
  try_send(id);

  const double scale =
      node.clock_scale(environment_.temperature_c(node.position(), now));
  const Time next = config_.report_period * scale * uniform(0.98, 1.02);
  queue_.schedule_in(next,
                     [this, id, generation] { report_tick(id, generation); });
}

void Simulator::try_send(NodeId id) {
  VN2_REQUIRE(id < nodes_.size(), "try_send: node id out of range");
  Node& node = *nodes_[id];
  if (!node.alive() || node.sending || node.queue_empty()) return;
  if (!node.has_parent()) {
    // Hold the queue until a route appears; the periodic route updates via
    // beacons will eventually restore one.
    const std::uint32_t generation = generation_[id];
    node.sending = true;
    queue_.schedule_in(config_.route_hold_down, [this, id, generation] {
      if (generation != generation_[id]) return;
      nodes_[id]->sending = false;
      if (!nodes_[id]->route_pinned()) update_route(id);
      try_send(id);
    });
    return;
  }
  node.sending = true;
  const std::uint32_t generation = generation_[id];
  queue_.schedule_in(uniform(0.001, 0.01), [this, id, generation] {
    attempt_transmission(id, generation, 0);
  });
}

double Simulator::activity_of(Node& node) const {
  // Exponential decay with 1 s time constant, applied lazily.
  const Time now = queue_.now();
  const double dt = now - node.activity_updated;
  if (dt > 0.0) {
    node.channel_activity *= std::exp(-dt);
    node.activity_updated = now;
  }
  return node.channel_activity;
}

void Simulator::bump_activity_around(NodeId sender) {
  VN2_REQUIRE(sender < in_range_.size(),
              "bump_activity_around: node id out of range");
  for (NodeId w : in_range_[sender]) {
    Node& node = *nodes_[w];
    if (!node.alive()) continue;
    (void)activity_of(node);  // Decay first.
    node.channel_activity += 1.0;
  }
}

double Simulator::busy_probability(Node& node) const {
  double p = config_.csma_base_busy +
             config_.csma_activity_weight * activity_of(node);
  const Time now = queue_.now();
  for (const ActiveJammer& jam : jammers_) {
    if (now < jam.start || now > jam.end) continue;
    const double d = distance(node.position(), jam.center);
    if (d > jam.radius_m) continue;
    p += jam.intensity * (1.0 - d / std::max(jam.radius_m, 1e-9));
  }
  return std::clamp(p, 0.0, 0.95);
}

void Simulator::attempt_transmission(NodeId id, std::uint32_t generation,
                                     std::size_t backoffs) {
  VN2_REQUIRE(backoffs <= config_.csma_max_backoffs,
              "attempt_transmission: backoff count overran the CSMA limit");
  if (generation != generation_[id]) return;
  Node& node = *nodes_[id];
  if (!node.alive()) return;
  if (node.queue_empty()) {
    node.sending = false;
    return;
  }
  if (!node.has_parent()) {
    node.sending = false;
    try_send(id);  // Re-enters the no-parent hold-down path.
    return;
  }

  const Time now = queue_.now();

  // CSMA: carrier sense. A busy channel costs a backoff (and radio time).
  if (backoffs < config_.csma_max_backoffs && chance(busy_probability(node))) {
    node.bump(MetricId::kMacBackoffCounter);
    stats_.mac_backoffs++;
    VN2_COUNT("sim.mac.backoffs");
    node.bump(MetricId::kRadioOnTime, config_.backoff_delay);
    queue_.schedule_in(config_.backoff_delay * uniform(0.5, 1.5),
                       [this, id, generation, backoffs] {
                         attempt_transmission(id, generation, backoffs + 1);
                       });
    return;
  }

  DataPacket& head = node.queue_front();
  const NodeId parent_id = node.parent();
  Node& parent = *nodes_[parent_id];

  node.bump(MetricId::kTransmitCounter);
  if (head.origin != id && node.retransmit_count == 0)
    node.bump(MetricId::kForwardCounter);
  // LPL: the sender strobes a preamble until the receiver's next wake
  // moment — on average half an interval of extra airtime per unicast.
  const double unicast_airtime =
      config_.tx_duration_s +
      (config_.low_power_listening ? uniform(0.0, config_.lpl_interval) : 0.0);
  node.bump(MetricId::kRadioOnTime, unicast_airtime);
  node.drain(unicast_airtime * config_.node.drain_per_radio_second +
             config_.node.drain_per_transmission);
  stats_.data_transmissions++;
  VN2_COUNT("sim.packets.tx");
  bump_activity_around(id);

  head.sender_path_etx = node.path_etx();

  bool ack = false;
  if (parent.alive() && chance(link_prr(id, parent_id, now))) {
    stats_.data_delivered_hop++;
    VN2_COUNT("sim.packets.rx");
    DataPacket copy = head;
    copy.hops++;
    deliver_to(parent_id, std::move(copy), ack);
  }

  bool ack_received = false;
  if (ack) {
    parent.bump(MetricId::kRadioOnTime, config_.ack_duration_s);
    if (chance(link_prr(parent_id, id, now))) {
      ack_received = true;
    } else {
      parent.bump(MetricId::kAckFailCounter);
    }
  }

  node.table().on_unicast_result(parent_id, ack_received, now);

  if (ack_received) {
    node.pop_front();
    node.sending = false;
    if (!node.queue_empty()) {
      node.sending = true;
      queue_.schedule_in(config_.inter_packet_gap * uniform(0.8, 1.2),
                         [this, id, generation] {
                           attempt_transmission(id, generation, 0);
                         });
    }
    return;
  }

  // No ACK: retransmit up to the limit, then drop (paper: 30 tries).
  node.bump(MetricId::kNoackRetransmitCounter);
  stats_.noack_retransmits++;
  VN2_COUNT("sim.packets.retransmits");
  node.retransmit_count++;

  if (node.retransmit_count >= config_.node.max_retransmissions) {
    node.bump(MetricId::kDropPacketCounter);
    stats_.drops_after_retry_limit++;
    VN2_COUNT("sim.packets.dropped");
    node.pop_front();
  }

  // Persistent failure: give up on this parent and reroute.
  if (node.retransmit_count >= config_.parent_eviction_failures &&
      !node.route_pinned()) {
    node.table().evict(parent_id);
    node.clear_route();
    reset_beacon_interval(node);  // Losing the parent is a route event.
    update_route(id);
  }

  node.sending = false;
  if (!node.queue_empty()) {
    node.sending = true;
    queue_.schedule_in(config_.retry_delay * uniform(0.8, 1.2),
                       [this, id, generation] {
                         attempt_transmission(id, generation, 0);
                       });
  }
}

void Simulator::deliver_to(NodeId receiver_id, DataPacket packet, bool& ack) {
  VN2_REQUIRE(receiver_id < nodes_.size(), "deliver_to: node id out of range");
  Node& receiver = *nodes_[receiver_id];
  const Time now = queue_.now();
  receiver.bump(MetricId::kRadioOnTime, config_.tx_duration_s);

  // Datapath loop detection (CTP): a packet arriving from "below" whose
  // sender claims a path cost no higher than ours indicates a loop. The
  // margin absorbs ordinary ETX estimation noise — a healthy network must
  // not spray loop alarms (loops are *exceptions* here).
  constexpr double kLoopMarginEtx = 2.0;
  if (receiver_id != kSinkId && receiver.has_parent() &&
      receiver.path_etx() >= packet.sender_path_etx + kLoopMarginEtx &&
      packet.origin != receiver_id) {
    receiver.bump(MetricId::kLoopCounter);
    stats_.loops_detected++;
    VN2_COUNT("sim.loops_detected");
    reset_beacon_interval(receiver);
    if (!receiver.route_pinned()) update_route(receiver_id);
  }
  // A packet that returns to its origin is a definite loop.
  if (packet.origin == receiver_id) {
    receiver.bump(MetricId::kLoopCounter);
    stats_.loops_detected++;
    VN2_COUNT("sim.loops_detected");
    ack = true;  // Swallow it: origin drops its own returned packet.
    return;
  }

  // Duplicate suppression keyed on (origin, seq, hops) — CTP's THL trick:
  // a looping packet is re-accepted each revolution (hops grew) until TTL.
  const std::uint32_t dup_key_seq = packet.origin_seq ^
                                    (static_cast<std::uint32_t>(packet.hops)
                                     << 24);
  if (receiver.check_duplicate(packet.origin, dup_key_seq)) {
    stats_.duplicates++;
    VN2_COUNT("sim.packets.duplicates");
    ack = true;  // CTP acks duplicates so the sender stops retransmitting.
    return;
  }

  if (packet.hops >= config_.max_hops) {
    stats_.ttl_drops++;
    VN2_COUNT("sim.packets.dropped");
    receiver.bump(MetricId::kDropPacketCounter);
    ack = true;  // Swallow: the packet has no future.
    return;
  }

  if (receiver_id == kSinkId) {
    receiver.bump(MetricId::kReceiveCounter);
    stats_.packets_at_sink++;
    VN2_COUNT("sim.packets.at_sink");
    sink_log_.push_back({now, packet.origin, packet.epoch, packet.type,
                         std::move(packet.values), packet.hops});
    ack = true;
    return;
  }

  receiver.bump(MetricId::kReceiveCounter);
  if (!receiver.enqueue(std::move(packet))) {
    stats_.queue_overflows++;
    VN2_COUNT("sim.packets.dropped");
    ack = false;  // Queue overflow: no ACK, sender will retransmit.
    return;
  }
  ack = true;
  try_send(receiver_id);
}

void Simulator::update_route(NodeId id) {
  VN2_REQUIRE(id < nodes_.size(), "update_route: node id out of range");
  Node& node = *nodes_[id];
  if (id == kSinkId || !node.alive()) return;

  const auto best = node.table().best_parent();
  if (!best) {
    if (node.has_parent()) {
      node.clear_route();
      node.bump(MetricId::kParentChangeCounter);
      reset_beacon_interval(node);
    } else {
      node.clear_route();
    }
    return;
  }

  const NeighborEntry* entry = node.table().find(*best);
  const double best_etx = entry->route_etx();

  if (!node.has_parent()) {
    node.set_route(*best, best_etx);
    node.bump(MetricId::kParentChangeCounter);
    reset_beacon_interval(node);
    try_send(id);
    return;
  }

  if (node.parent() == *best) {
    node.set_route(*best, best_etx);  // Refresh cost only.
    return;
  }

  // Hysteresis: switch only for a clear improvement.
  const NeighborEntry* current = node.table().find(node.parent());
  const double current_etx =
      current ? current->route_etx() : NeighborTable::kEtxCap;
  if (best_etx + config_.parent_hysteresis_etx < current_etx) {
    node.set_route(*best, best_etx);
    node.bump(MetricId::kParentChangeCounter);
    reset_beacon_interval(node);
  } else {
    node.set_route(node.parent(), current_etx);
  }
}

void Simulator::run_until(Time t) {
  if (spent_)
    throw std::logic_error("Simulator: run() already moved the logs out");
  start();
  const std::size_t executed = queue_.run_until(t);
  VN2_COUNT_N("sim.events", executed);
}

SimulationResult Simulator::run() {
  run_until(config_.duration);
  spent_ = true;
  // The logs are most of the result (hundreds of MiB after a simulated
  // week), so they move out instead of being copied.
  return result_with(std::move(sink_log_), std::move(originations_),
                     std::move(ground_truth_));
}

SimulationResult Simulator::snapshot_result() const {
  return result_with(sink_log_, originations_, ground_truth_);
}

SimulationResult Simulator::result_with(
    std::vector<SinkPacketRecord> sink_log,
    std::vector<Origination> originations,
    std::vector<InjectedFault> ground_truth) const {
  SimulationResult result;
  result.sink_log = std::move(sink_log);
  result.originations = std::move(originations);
  result.ground_truth = std::move(ground_truth);
  result.stats = stats_;
  result.duration = config_.duration;
  result.node_count = nodes_.size();
  result.report_period = config_.report_period;
  return result;
}

}  // namespace vn2::wsn
