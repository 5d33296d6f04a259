#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/scenario.hpp"
#include "support/csv_traces.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"

namespace vn2::trace {
namespace {

using metrics::PacketType;

wsn::SinkPacketRecord make_record(wsn::NodeId origin, std::uint64_t epoch,
                                  PacketType type, double fill,
                                  wsn::Time time = 0.0) {
  wsn::SinkPacketRecord record;
  record.origin = origin;
  record.epoch = epoch;
  record.type = type;
  record.recv_time = time;
  record.values.assign(wsn::block_range(type).count, fill);
  record.hops = 1;
  return record;
}

wsn::SimulationResult result_with(std::vector<wsn::SinkPacketRecord> log) {
  wsn::SimulationResult result;
  result.sink_log = std::move(log);
  result.node_count = 10;
  result.duration = 3600.0;
  result.report_period = 60.0;
  return result;
}

TEST(BuildTrace, AssemblesCompleteEpochs) {
  auto result = result_with({
      make_record(1, 0, PacketType::kC1, 1.0, 10.0),
      make_record(1, 0, PacketType::kC2, 2.0, 11.0),
      make_record(1, 0, PacketType::kC3, 3.0, 12.0),
  });
  Trace trace = build_trace(result);
  ASSERT_EQ(trace.nodes.size(), 1u);
  ASSERT_EQ(trace.nodes[0].snapshots.size(), 1u);
  const Snapshot& snap = trace.nodes[0].snapshots[0];
  EXPECT_EQ(snap.epoch, 0u);
  EXPECT_DOUBLE_EQ(snap.time, 12.0);  // Last block's arrival.
  EXPECT_DOUBLE_EQ(snap.values[0], 1.0);   // C1 block.
  EXPECT_DOUBLE_EQ(snap.values[6], 2.0);   // C2 block.
  EXPECT_DOUBLE_EQ(snap.values[26], 3.0);  // C3 block.
}

TEST(BuildTrace, DropsIncompleteEpochs) {
  auto result = result_with({
      make_record(1, 0, PacketType::kC1, 1.0),
      make_record(1, 0, PacketType::kC3, 3.0),  // C2 lost.
      make_record(1, 1, PacketType::kC1, 1.0),
      make_record(1, 1, PacketType::kC2, 2.0),
      make_record(1, 1, PacketType::kC3, 3.0),
  });
  Trace trace = build_trace(result);
  ASSERT_EQ(trace.nodes.size(), 1u);
  ASSERT_EQ(trace.nodes[0].snapshots.size(), 1u);
  EXPECT_EQ(trace.nodes[0].snapshots[0].epoch, 1u);
}

TEST(BuildTrace, DuplicateBlocksAreIdempotent) {
  auto result = result_with({
      make_record(1, 0, PacketType::kC1, 1.0),
      make_record(1, 0, PacketType::kC1, 1.0),  // Duplicate delivery.
      make_record(1, 0, PacketType::kC2, 2.0),
      make_record(1, 0, PacketType::kC3, 3.0),
  });
  Trace trace = build_trace(result);
  ASSERT_EQ(trace.nodes[0].snapshots.size(), 1u);
}

TEST(BuildTrace, SeparatesNodes) {
  auto result = result_with({
      make_record(1, 0, PacketType::kC1, 1.0),
      make_record(1, 0, PacketType::kC2, 1.0),
      make_record(1, 0, PacketType::kC3, 1.0),
      make_record(2, 0, PacketType::kC1, 9.0),
      make_record(2, 0, PacketType::kC2, 9.0),
      make_record(2, 0, PacketType::kC3, 9.0),
  });
  Trace trace = build_trace(result);
  EXPECT_EQ(trace.nodes.size(), 2u);
  EXPECT_EQ(trace.total_snapshots(), 2u);
  EXPECT_NE(trace.find(1), nullptr);
  EXPECT_NE(trace.find(2), nullptr);
  EXPECT_EQ(trace.find(3), nullptr);
}

TEST(ExtractStates, DiffsSuccessiveSnapshots) {
  auto result = result_with({
      make_record(1, 0, PacketType::kC1, 1.0),
      make_record(1, 0, PacketType::kC2, 1.0),
      make_record(1, 0, PacketType::kC3, 10.0),
      make_record(1, 1, PacketType::kC1, 2.0, 60.0),
      make_record(1, 1, PacketType::kC2, 1.5, 60.0),
      make_record(1, 1, PacketType::kC3, 14.0, 61.0),
  });
  Trace trace = build_trace(result);
  auto states = extract_states(trace);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].node, 1);
  EXPECT_EQ(states[0].epoch, 1u);
  EXPECT_DOUBLE_EQ(states[0].time, 61.0);
  EXPECT_DOUBLE_EQ(states[0].delta[0], 1.0);    // C1: 2 − 1.
  EXPECT_DOUBLE_EQ(states[0].delta[6], 0.5);    // C2.
  EXPECT_DOUBLE_EQ(states[0].delta[26], 4.0);   // C3: 14 − 10.
}

TEST(ExtractStates, SpansLostEpochs) {
  // Epoch 1 is lost entirely: the diff runs 0 → 2, exactly like the paper's
  // "two successive packets" (successive *received*).
  auto result = result_with({
      make_record(1, 0, PacketType::kC1, 0.0),
      make_record(1, 0, PacketType::kC2, 0.0),
      make_record(1, 0, PacketType::kC3, 0.0),
      make_record(1, 2, PacketType::kC1, 6.0),
      make_record(1, 2, PacketType::kC2, 6.0),
      make_record(1, 2, PacketType::kC3, 6.0),
  });
  auto states = extract_states(build_trace(result));
  ASSERT_EQ(states.size(), 1u);
  EXPECT_DOUBLE_EQ(states[0].delta[0], 6.0);
}

TEST(StatesMatrix, StacksRows) {
  std::vector<StateVector> states(3);
  for (auto& s : states) s.delta = linalg::Vector(metrics::kMetricCount, 1.0);
  states[1].delta[5] = 7.0;
  linalg::Matrix m = states_matrix(states);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), metrics::kMetricCount);
  EXPECT_DOUBLE_EQ(m(1, 5), 7.0);
}

TEST(Prr, SeriesAndOverall) {
  wsn::SimulationResult result;
  result.duration = 200.0;
  result.node_count = 3;
  result.report_period = 10.0;
  for (int i = 0; i < 10; ++i)
    result.originations.push_back(
        {static_cast<double>(i) * 20.0, 1, static_cast<std::uint64_t>(i),
         PacketType::kC1});
  // 5 of 10 delivered, all in the first half.
  for (int i = 0; i < 5; ++i)
    result.sink_log.push_back(
        make_record(1, i, PacketType::kC1, 0.0, static_cast<double>(i) * 20.0));

  EXPECT_DOUBLE_EQ(overall_prr(result), 0.5);
  auto series = prr_series(result, 100.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].originated, 5u);
  EXPECT_EQ(series[0].received, 5u);
  EXPECT_DOUBLE_EQ(series[0].prr(), 1.0);
  EXPECT_DOUBLE_EQ(series[1].prr(), 0.0);
}

TEST(Prr, DuplicateArrivalsCountOnce) {
  wsn::SimulationResult result;
  result.duration = 200.0;
  result.node_count = 3;
  for (int i = 0; i < 4; ++i)
    result.originations.push_back(
        {static_cast<double>(i) * 20.0, 1, static_cast<std::uint64_t>(i),
         PacketType::kC1});
  result.originations.push_back({0.0, 1, 0, PacketType::kC2});
  // C1 reports 0, 1 and 2 arrive, 0 three times and 2 twice; 3 is lost.
  // The C2 block of epoch 0 is a report of its own, not a duplicate.
  for (const auto& [epoch, type, time] :
       std::vector<std::tuple<int, PacketType, double>>{
           {0, PacketType::kC1, 1.0},
           {1, PacketType::kC1, 21.0},
           {0, PacketType::kC1, 22.0},
           {2, PacketType::kC1, 41.0},
           {0, PacketType::kC2, 42.0},
           {2, PacketType::kC1, 120.0},
           {0, PacketType::kC1, 130.0}})
    result.sink_log.push_back(make_record(1, epoch, type, 0.0, time));

  const std::vector<const wsn::SinkPacketRecord*> first =
      first_arrivals(result);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0], &result.sink_log[0]);
  EXPECT_EQ(first[1], &result.sink_log[1]);
  EXPECT_EQ(first[2], &result.sink_log[3]);
  EXPECT_EQ(first[3], &result.sink_log[4]);
  // 4 distinct reports of 5 originated; counting all 7 arrivals would
  // read 1.4.
  EXPECT_DOUBLE_EQ(overall_prr(result), 0.8);
  const auto series = prr_series(result, 100.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].received, 4u);  // First arrivals only.
  EXPECT_EQ(series[1].received, 0u);  // Both late copies are duplicates.
  EXPECT_DOUBLE_EQ(compute_stats(result, build_trace(result)).overall_prr,
                   overall_prr(result));
}

TEST(Prr, RebootedNodesReportsCountSeparately) {
  // A reboot restarts the node's epochs: epoch 0 is originated twice, and
  // each origination's first arrival counts, not its later copies.
  wsn::SimulationResult result;
  result.duration = 400.0;
  result.node_count = 2;
  result.originations.push_back({0.0, 1, 0, PacketType::kC1});
  result.originations.push_back({10.0, 1, 1, PacketType::kC1});
  result.originations.push_back({200.0, 1, 0, PacketType::kC1});  // Rebooted.
  for (const double time : {1.0, 3.0, 201.0, 250.0})
    result.sink_log.push_back(make_record(1, 0, PacketType::kC1, 0.0, time));
  const std::vector<const wsn::SinkPacketRecord*> first =
      first_arrivals(result);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], &result.sink_log[0]);
  EXPECT_EQ(first[1], &result.sink_log[2]);
  EXPECT_DOUBLE_EQ(overall_prr(result), 2.0 / 3.0);
}

TEST(Prr, EmptyInputs) {
  wsn::SimulationResult result;
  result.duration = 100.0;
  EXPECT_DOUBLE_EQ(overall_prr(result), 1.0);
  EXPECT_TRUE(prr_series(result, 0.0).empty());
}

TEST(Csv, TraceRoundTrip) {
  auto bundle = scenario::tiny(6, 900.0, 4);
  wsn::SimulationResult result = bundle.make_simulator().run();
  Trace trace = build_trace(result);
  ASSERT_GT(trace.total_snapshots(), 0u);

  std::stringstream buffer;
  write_trace_csv(buffer, trace);
  Trace loaded = read_trace_csv(buffer);

  // Exact: every epoch, time and value comes back bit for bit.
  EXPECT_TRUE(testing::identical_snapshots(loaded, trace));
}

TEST(Csv, WriterMatchesPrintf17) {
  // The writer's text is printf's "%.17g", which is also what an ostream at
  // precision 17 prints. 2^53 + 1 is not a double; it rounds to 2^53.
  const std::vector<double> doubles = {
      -0.0, 5e-324, DBL_MAX, 0.1, 1e16, 9007199254740993.0, 123456789.125};
  Trace trace;
  NodeSeries series;
  series.node = 65534;
  Snapshot snap;
  snap.epoch = UINT64_MAX;
  snap.time = doubles[0];
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
    snap.values[m] = doubles[(m + 1) % doubles.size()];
  series.snapshots.push_back(snap);
  trace.nodes.push_back(series);

  std::string expected = "65534,18446744073709551615";
  char field[64];
  std::snprintf(field, sizeof field, ",%.17g", snap.time);
  expected += field;
  for (double v : snap.values) {
    std::snprintf(field, sizeof field, ",%.17g", v);
    expected += field;
  }
  std::ostringstream out;
  write_trace_csv(out, trace);
  const std::string text = out.str();
  const std::size_t row = text.find('\n') + 1;
  EXPECT_EQ(text.substr(row), expected + "\n");
}

TEST(Csv, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(read_trace_csv(empty), std::runtime_error);
  std::stringstream bad_header("a,b,c\n");
  EXPECT_THROW(read_trace_csv(bad_header), std::runtime_error);
}

}  // namespace
}  // namespace vn2::trace
