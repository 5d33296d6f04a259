// Failure-injection and edge-condition tests across module boundaries:
// malformed persisted data, degenerate configurations, and empty inputs
// must fail loudly (typed exceptions) or behave sanely — never crash.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/evaluation.hpp"
#include "core/vn2.hpp"
#include "scenario/scenario.hpp"
#include "support/csv_traces.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"

namespace vn2 {
namespace {

std::string csv_header() {
  std::string text = "node,epoch,time";
  for (metrics::MetricId id : metrics::all_metrics())
    (text += ',') += metrics::name(id);
  return text + '\n';
}

/// The header, then a first row that holds every field but the last.
std::string header_and_row_head() {
  std::string text = csv_header() + "1,0,0";
  for (std::size_t i = 0; i < metrics::kMetricCount - 1; ++i) text += ",0";
  return text;
}

/// Expects reading `text` to throw a std::runtime_error whose message
/// contains `where` and then `what`.
void expect_rejected_at(const std::string& text, const std::string& where,
                        const std::string& what) {
  std::istringstream in(text);
  try {
    (void)trace::read_trace_csv(in);
    ADD_FAILURE() << "parsed; expected a rejection at " << where;
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    const std::size_t at = message.find(where);
    EXPECT_NE(at, std::string::npos) << message;
    EXPECT_NE(message.find(what, at), std::string::npos) << message;
  }
}

std::string read_corpus(const std::string& file) {
  std::ifstream in(std::filesystem::path(VN2_CSV_CORPUS_DIR) / file,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CsvRobustness, MalformedRowsThrow) {
  expect_rejected_at(header_and_row_head() + ",abc\n", "line 2, column 46: ",
                     "malformed field 'abc'");
}

TEST(CsvRobustness, ShortRowThrows) {
  expect_rejected_at(csv_header() + "1,0,0,1,2\n", "line 2, column 6: ",
                     "expected 46 columns, found 5");
}

TEST(CsvRobustness, BlankLinesIgnored) {
  scenario::ScenarioBundle bundle = scenario::tiny(6, 600.0, 2);
  const trace::Trace log = trace::build_trace(bundle.make_simulator().run());
  std::stringstream buffer;
  trace::write_trace_csv(buffer, log);
  std::string text = buffer.str() + "\n\n";
  std::istringstream padded(text);
  EXPECT_EQ(trace::read_trace_csv(padded).total_snapshots(),
            log.total_snapshots());
}

TEST(CsvRobustness, StrictFieldsNameLineAndColumn) {
  // Each field must parse whole and be finite; the rejection names the
  // 1-based line and column.
  const struct {
    const char* file;
    const char* where;
    const char* what;
  } corpus[] = {
      {"trailing_garbage.csv", "line 2, column 5: ",
       "malformed field '1.5abc'"},
      {"hex_field.csv", "line 3, column 6: ", "malformed field ' 0x10'"},
      {"node_out_of_range.csv", "line 2, column 1: ", "out-of-range"},
      {"negative_epoch.csv", "line 2, column 2: ", "malformed"},
      {"nan_negative.csv", "line 2, column 4: ", "non-finite field 'nan'"},
  };
  for (const auto& [file, where, what] : corpus) {
    SCOPED_TRACE(file);
    expect_rejected_at(read_corpus(file), where, what);
  }

  const std::string text = header_and_row_head();
  expect_rejected_at(text + ",inf\n", "line 2, column 46: ",
                     "non-finite field 'inf'");
  expect_rejected_at(text + ",-INF\r\n", "line 2, column 46: ",
                     "non-finite field '-INF'");
  expect_rejected_at(text + ",0,0\n", "line 2, column 47: ",
                     "expected 46 columns, found 47");
}

TEST(CsvRobustness, CrlfTraceReadsIdentically) {
  scenario::ScenarioBundle bundle = scenario::tiny(6, 600.0, 2);
  const trace::Trace log = trace::build_trace(bundle.make_simulator().run());
  std::ostringstream out;
  trace::write_trace_csv(out, log);
  std::string crlf;
  for (char c : out.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream lf_in(out.str());
  std::istringstream crlf_in(crlf);
  const trace::Trace lf_read = trace::read_trace_csv(lf_in);
  const trace::Trace crlf_read = trace::read_trace_csv(crlf_in);
  ASSERT_GT(lf_read.total_snapshots(), 0u);
  EXPECT_TRUE(testing::identical_snapshots(lf_read, log));
  EXPECT_TRUE(testing::identical_snapshots(crlf_read, lf_read));
  EXPECT_EQ(crlf_read.node_count, lf_read.node_count);
  EXPECT_EQ(crlf_read.duration, lf_read.duration);
}

TEST(CsvRobustness, MultiBlockTraceReadsIdentically) {
  // More than three read blocks, so rows are cut by block boundaries.
  const trace::Trace trace = testing::synthetic_trace(12, 400, 7);
  std::stringstream buffer;
  trace::write_trace_csv(buffer, trace);
  ASSERT_GT(buffer.str().size(), 3 * trace::kCsvBlockBytes);
  const trace::Trace loaded = trace::read_trace_csv(buffer);
  EXPECT_TRUE(testing::identical_snapshots(loaded, trace));
  EXPECT_EQ(loaded.node_count, trace.node_count);
  EXPECT_EQ(loaded.duration, trace.duration);
}

TEST(TraceRobustness, EmptySimulationResult) {
  wsn::SimulationResult empty;
  const trace::Trace log = trace::build_trace(empty);
  EXPECT_TRUE(log.nodes.empty());
  EXPECT_TRUE(trace::extract_states(log).empty());
  EXPECT_DOUBLE_EQ(trace::overall_prr(empty), 1.0);
  const trace::NetworkStats stats = trace::compute_stats(empty, log);
  EXPECT_EQ(stats.reporting_nodes, 0u);
}

TEST(TraceRobustness, CorruptBlockSizeIsSkipped) {
  wsn::SimulationResult result;
  result.node_count = 2;
  wsn::SinkPacketRecord record;
  record.origin = 1;
  record.epoch = 0;
  record.type = metrics::PacketType::kC1;
  record.values.assign(3, 1.0);  // C1 needs 6 values.
  result.sink_log.push_back(record);
  const trace::Trace log = trace::build_trace(result);
  EXPECT_EQ(log.total_snapshots(), 0u);
}

TEST(EvaluationRobustness, ExactMatchingModeIsStricter) {
  std::vector<wsn::InjectedFault> truth(1);
  truth[0].hazard = metrics::HazardEvent::kContention;
  truth[0].command.start = 100.0;
  truth[0].command.end = 200.0;
  std::vector<core::HazardPrediction> predictions = {
      {150.0, 1, metrics::HazardEvent::kRisingNoise, 1.0}};
  core::EvalOptions by_class;
  EXPECT_DOUBLE_EQ(core::evaluate(predictions, truth, by_class).macro_recall,
                   1.0);  // Same HazardClass (link).
  core::EvalOptions exact;
  exact.match_by_class = false;
  EXPECT_DOUBLE_EQ(core::evaluate(predictions, truth, exact).macro_recall,
                   0.0);
}

TEST(ScenarioRobustness, DegenerateParamsThrowOrClamp) {
  scenario::CityseeParams params;
  params.node_count = 1;
  EXPECT_THROW(scenario::citysee_field(params), std::invalid_argument);
  // A 2-node "deployment" is the legal minimum.
  params.node_count = 2;
  params.days = 0.01;
  EXPECT_NO_THROW(scenario::citysee_field(params));
}

TEST(SimulatorRobustness, ZeroDurationRunIsEmptyButValid) {
  scenario::ScenarioBundle bundle = scenario::tiny(6, 600.0, 2);
  bundle.config.duration = 0.0;
  const wsn::SimulationResult result = bundle.make_simulator().run();
  EXPECT_TRUE(result.sink_log.empty());
  EXPECT_TRUE(result.originations.empty());
}

TEST(SimulatorRobustness, FaultOnBoundaryNodeIds) {
  scenario::ScenarioBundle bundle = scenario::tiny(6, 900.0, 2);
  const auto last =
      static_cast<wsn::NodeId>(bundle.config.positions.size() - 1);
  wsn::FaultCommand fail;
  fail.type = wsn::FaultCommand::Type::kNodeFailure;
  fail.node = last;
  fail.start = 300.0;
  bundle.faults.push_back(fail);
  wsn::FaultCommand reboot = fail;
  reboot.type = wsn::FaultCommand::Type::kNodeReboot;
  reboot.start = 600.0;
  bundle.faults.push_back(reboot);
  wsn::Simulator sim = bundle.make_simulator();
  EXPECT_NO_THROW(sim.run());
  EXPECT_TRUE(sim.node(last).alive());
}

TEST(ModelRobustness, TruncatedModelFileThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "vn2_truncated.txt").string();
  {
    std::ofstream file(path);
    file << "VN2MODEL 2\n1.0 0.3\n5 86\n0.1 0.2\n";  // Truncated matrix.
  }
  EXPECT_THROW(core::Vn2Model::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ToolRobustness, TooFewStatesForRankThrows) {
  std::vector<trace::StateVector> states(3);
  for (auto& state : states) {
    state.delta = linalg::Vector(metrics::kMetricCount);
    state.delta[0] = 1.0;
  }
  core::Vn2Tool::Options options;
  options.training.rank = 10;
  options.training.skip_exception_extraction = true;
  EXPECT_THROW(core::Vn2Tool::train_from_states(states, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace vn2
