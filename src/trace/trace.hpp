// Sink-side trace processing: assembling full 43-metric snapshots from the
// C1/C2/C3 packet stream, extracting network-state vectors (successive
// snapshot differences — the paper's S_i = P_i − P_{i−1}), and computing
// packet-reception-ratio series.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "metrics/schema.hpp"
#include "wsn/simulator.hpp"

namespace vn2::trace {

/// One complete 43-metric report from a node, assembled at the sink from the
/// epoch's C1 + C2 + C3 packets.
struct Snapshot {
  wsn::Time time = 0.0;  ///< Arrival time of the last block of the epoch.
  std::uint64_t epoch = 0;
  std::array<double, metrics::kMetricCount> values{};
};

struct NodeSeries {
  wsn::NodeId node = wsn::kInvalidNode;
  std::vector<Snapshot> snapshots;  ///< Epoch-ordered.
};

struct Trace {
  std::vector<NodeSeries> nodes;  ///< Indexed by position, not NodeId.
  std::size_t node_count = 0;
  wsn::Time duration = 0.0;
  wsn::Time report_period = 0.0;

  [[nodiscard]] const NodeSeries* find(wsn::NodeId id) const;
  [[nodiscard]] std::size_t total_snapshots() const;
};

/// Assembles per-node snapshot series from a simulation's sink log. An epoch
/// contributes a snapshot only when all three blocks arrived (a partially
/// delivered epoch is dropped, exactly as an operator could not diff it).
Trace build_trace(const wsn::SimulationResult& result);

/// A node state: the variation between two successive *received* snapshots.
struct StateVector {
  wsn::NodeId node = wsn::kInvalidNode;
  wsn::Time time = 0.0;       ///< Time of the later snapshot.
  std::uint64_t epoch = 0;    ///< Epoch of the later snapshot.
  linalg::Vector delta;       ///< 43 metric differences.
};

/// Extracts all state vectors of a trace (per node, successive diffs).
std::vector<StateVector> extract_states(const Trace& trace);

/// Stacks state deltas into an n × 43 matrix (row order preserved).
linalg::Matrix states_matrix(const std::vector<StateVector>& states);

/// Packet Reception Ratio over time windows: received self-report packets at
/// the sink divided by packets originated in the window.
struct PrrPoint {
  wsn::Time window_start = 0.0;
  wsn::Time window_end = 0.0;
  std::uint32_t originated = 0;
  std::uint32_t received = 0;

  [[nodiscard]] double prr() const noexcept {
    return originated == 0 ? 1.0
                           : static_cast<double>(received) /
                                 static_cast<double>(originated);
  }
};

std::vector<PrrPoint> prr_series(const wsn::SimulationResult& result,
                                 wsn::Time window);

/// Overall PRR of the run: distinct reports delivered over reports
/// originated, at most 1.
double overall_prr(const wsn::SimulationResult& result);

/// The sink log's first arrival of each originated report, in log order.
/// A report reaches the sink twice when an ack is lost and the sender
/// retransmits a packet its parent already forwarded; every PRR here counts
/// such a report once. Reports are told apart by (origin, epoch, packet
/// type) and, since a reboot restarts a node's epochs, by the latest
/// origination of that triple at or before the arrival.
std::vector<const wsn::SinkPacketRecord*> first_arrivals(
    const wsn::SimulationResult& result);

}  // namespace vn2::trace
