#include "trace/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

#include "metrics/schema.hpp"

namespace vn2::trace {

namespace {

struct Accumulator {
  std::size_t originated = 0;
  std::size_t delivered = 0;
  double hop_sum = 0.0;
  double hop_max = 0.0;
};

void fill_from_trace(const Trace& trace, std::map<wsn::NodeId, NodeStats>& by_node) {
  using metrics::MetricId;
  for (const NodeSeries& series : trace.nodes) {
    if (series.snapshots.empty()) continue;
    NodeStats& stats = by_node[series.node];
    stats.node = series.node;
    stats.snapshots = series.snapshots.size();
    stats.first_seen = series.snapshots.front().time;
    stats.last_seen = series.snapshots.back().time;
    const Snapshot& last = series.snapshots.back();
    stats.parent_changes =
        last.values[metrics::index_of(MetricId::kParentChangeCounter)];
    stats.loops = last.values[metrics::index_of(MetricId::kLoopCounter)];
    stats.retransmits =
        last.values[metrics::index_of(MetricId::kNoackRetransmitCounter)];
    stats.voltage = last.values[metrics::index_of(MetricId::kVoltage)];
  }
}

NetworkStats finalize(std::map<wsn::NodeId, NodeStats>&& by_node) {
  NetworkStats stats;
  stats.nodes.reserve(by_node.size());
  for (auto& [id, node_stats] : by_node) stats.nodes.push_back(node_stats);
  stats.reporting_nodes = stats.nodes.size();
  return stats;
}

}  // namespace

const NodeStats* NetworkStats::find(wsn::NodeId id) const {
  for (const NodeStats& stats : nodes)
    if (stats.node == id) return &stats;
  return nullptr;
}

NetworkStats compute_stats(const wsn::SimulationResult& result,
                           const Trace& trace) {
  std::map<wsn::NodeId, NodeStats> by_node;
  fill_from_trace(trace, by_node);

  std::map<wsn::NodeId, Accumulator> flows;
  for (const wsn::Origination& o : result.originations)
    flows[o.origin].originated++;
  for (const wsn::SinkPacketRecord* record : first_arrivals(result)) {
    Accumulator& acc = flows[record->origin];
    acc.delivered++;
    acc.hop_sum += record->hops;
    acc.hop_max = std::max(acc.hop_max, static_cast<double>(record->hops));
  }

  double total_hops = 0.0;
  std::size_t total_delivered = 0, total_originated = 0;
  for (const auto& [id, acc] : flows) {
    NodeStats& node_stats = by_node[id];
    node_stats.node = id;
    if (acc.originated > 0)
      node_stats.prr = static_cast<double>(acc.delivered) /
                       static_cast<double>(acc.originated);
    if (acc.delivered > 0)
      node_stats.mean_hops = acc.hop_sum / static_cast<double>(acc.delivered);
    node_stats.max_hops = acc.hop_max;
    total_hops += acc.hop_sum;
    total_delivered += acc.delivered;
    total_originated += acc.originated;
  }

  NetworkStats stats = finalize(std::move(by_node));
  stats.expected_nodes = result.node_count > 0 ? result.node_count - 1 : 0;
  if (total_originated > 0)
    stats.overall_prr = static_cast<double>(total_delivered) /
                        static_cast<double>(total_originated);
  if (total_delivered > 0)
    stats.mean_hops = total_hops / static_cast<double>(total_delivered);
  // reporting_nodes counted snapshot-holders only; flows may add silent
  // originators (originated but nothing assembled).
  stats.reporting_nodes = 0;
  for (const NodeStats& node_stats : stats.nodes)
    if (node_stats.snapshots > 0) stats.reporting_nodes++;
  return stats;
}

NetworkStats compute_stats(const Trace& trace) {
  std::map<wsn::NodeId, NodeStats> by_node;
  fill_from_trace(trace, by_node);
  NetworkStats stats = finalize(std::move(by_node));
  stats.expected_nodes = trace.node_count > 0 ? trace.node_count - 1 : 0;
  return stats;
}

void print_stats(std::ostream& os, const NetworkStats& stats, bool has_prr) {
  os << "nodes reporting: " << stats.reporting_nodes << " / "
     << stats.expected_nodes;
  if (has_prr)
    os << ", overall PRR " << std::fixed << std::setprecision(3)
       << stats.overall_prr << ", mean hops " << std::setprecision(1)
       << stats.mean_hops;
  os << "\n";
  os << std::setw(6) << "node" << std::setw(7) << "snaps";
  if (has_prr) os << std::setw(7) << "PRR" << std::setw(7) << "hops";
  os << std::setw(9) << "parentX" << std::setw(7) << "loops" << std::setw(9)
     << "retrans" << std::setw(9) << "volt" << std::setw(11) << "last[s]"
     << "\n";
  os << std::fixed;
  for (const NodeStats& node : stats.nodes) {
    os << std::setw(6) << node.node << std::setw(7) << node.snapshots;
    if (has_prr)
      os << std::setw(7) << std::setprecision(2) << node.prr << std::setw(7)
         << std::setprecision(1) << node.mean_hops;
    os << std::setw(9) << std::setprecision(0) << node.parent_changes
       << std::setw(7) << node.loops << std::setw(9) << node.retransmits
       << std::setw(9) << std::setprecision(3) << node.voltage
       << std::setw(11) << std::setprecision(0) << node.last_seen << "\n";
  }
}

}  // namespace vn2::trace
