// Trace fixtures for the CSV codec tests: a synthetic trace large enough to
// span several of the codec's blocks, and a bit-for-bit comparison of the
// snapshots two traces hold.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "trace/trace.hpp"

namespace vn2::testing {

/// A deterministic trace of `nodes` × `epochs` snapshots. Values mix
/// integers, zeros, negative zeros and full-precision doubles over many
/// magnitudes, so a written row runs to most of 1 KiB. node_count and
/// duration are what read_trace_csv derives (ids 0..nodes−1, the last time).
inline trace::Trace synthetic_trace(std::size_t nodes, std::size_t epochs,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> mantissa(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-300, 300);
  std::uniform_int_distribution<int> kind(0, 9);
  trace::Trace trace;
  trace.node_count = nodes;
  for (std::size_t n = 0; n < nodes; ++n) {
    trace::NodeSeries series;
    series.node = static_cast<wsn::NodeId>(n);
    for (std::size_t e = 0; e < epochs; ++e) {
      trace::Snapshot snap;
      snap.epoch = e + 1;
      snap.time = 60.0 * static_cast<double>(e) + 0.1 * static_cast<double>(n);
      for (double& v : snap.values) {
        switch (kind(rng)) {
          case 0:
            v = 0.0;
            break;
          case 1:
            v = -0.0;
            break;
          case 2:
            v = static_cast<double>(rng() % 100000);
            break;
          case 3:
            v = mantissa(rng) * std::pow(10.0, exponent(rng));
            break;
          default:
            v = mantissa(rng) * 1000.0;
        }
      }
      trace.duration = std::max(trace.duration, snap.time);
      series.snapshots.push_back(snap);
    }
    trace.nodes.push_back(std::move(series));
  }
  return trace;
}

/// Succeeds when both traces hold the same node series with the same
/// snapshots: every epoch, time and value bit for bit. Reports the first
/// difference.
inline ::testing::AssertionResult identical_snapshots(const trace::Trace& a,
                                                      const trace::Trace& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (a.nodes.size() != b.nodes.size())
    return ::testing::AssertionFailure() << a.nodes.size() << " vs "
                                         << b.nodes.size() << " node series";
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const trace::NodeSeries& x = a.nodes[i];
    const trace::NodeSeries& y = b.nodes[i];
    if (x.node != y.node || x.snapshots.size() != y.snapshots.size())
      return ::testing::AssertionFailure()
             << "series " << i << ": node " << x.node << " with "
             << x.snapshots.size() << " snapshots vs node " << y.node
             << " with " << y.snapshots.size();
    for (std::size_t s = 0; s < x.snapshots.size(); ++s) {
      const trace::Snapshot& p = x.snapshots[s];
      const trace::Snapshot& q = y.snapshots[s];
      if (p.epoch != q.epoch || bits(p.time) != bits(q.time))
        return ::testing::AssertionFailure()
               << "node " << x.node << " snapshot " << s << ": epoch/time "
               << p.epoch << "/" << p.time << " vs " << q.epoch << "/"
               << q.time;
      for (std::size_t m = 0; m < p.values.size(); ++m)
        if (bits(p.values[m]) != bits(q.values[m]))
          return ::testing::AssertionFailure()
                 << "node " << x.node << " snapshot " << s << " metric " << m
                 << ": " << p.values[m] << " vs " << q.values[m];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace vn2::testing
