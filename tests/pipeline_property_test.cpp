// Cross-cutting pipeline invariants, swept over random scenarios: whatever
// the seed and fault mix, the full simulate→trace→train→diagnose chain must
// uphold its structural guarantees.
#include <gtest/gtest.h>

#include "core/vn2.hpp"
#include "scenario/scenario.hpp"
#include "trace/trace.hpp"

namespace vn2 {
namespace {

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, EndToEndInvariants) {
  const std::uint64_t seed = GetParam();

  scenario::ScenarioBundle bundle = scenario::tiny(12, 5400.0, seed);
  // A seed-dependent fault cocktail.
  wsn::FaultCommand loop;
  loop.type = wsn::FaultCommand::Type::kForcedLoop;
  loop.node = static_cast<wsn::NodeId>(2 + seed % 9);
  loop.start = 1500.0;
  loop.end = 2400.0;
  bundle.faults.push_back(loop);
  wsn::FaultCommand reboot;
  reboot.type = wsn::FaultCommand::Type::kNodeReboot;
  reboot.node = static_cast<wsn::NodeId>(1 + (seed * 7) % 10);
  reboot.start = 3000.0;
  bundle.faults.push_back(reboot);

  wsn::Simulator sim = bundle.make_simulator();
  const wsn::SimulationResult result = sim.run();

  // Simulation invariants.
  ASSERT_GT(result.sink_log.size(), 50u);
  EXPECT_LE(trace::overall_prr(result), 1.0);
  for (const wsn::SinkPacketRecord& record : result.sink_log)
    EXPECT_NE(record.origin, wsn::kSinkId);

  const trace::Trace log = trace::build_trace(result);
  auto states = trace::extract_states(log);
  std::erase_if(states,
                [](const trace::StateVector& s) { return s.time < 600.0; });
  ASSERT_GT(states.size(), 100u);

  core::Vn2Tool::Options options;
  // Small rank and a lenient threshold: some seeds produce very few strong
  // exceptions, and the invariants — not the model quality — are on trial.
  options.training.rank = 4;
  options.training.exception_threshold = 0.2;
  options.training.nmf.max_iterations = 150;
  const core::Vn2Tool tool =
      core::Vn2Tool::train_from_states(states, options);

  // Training invariants.
  const core::TrainingReport& report = tool.report();
  EXPECT_TRUE(linalg::is_nonnegative(tool.model().psi()));
  EXPECT_GT(report.exception_states, 0u);
  EXPECT_LT(report.exception_states, report.training_states);
  ASSERT_GE(report.nmf.objective_history.size(), 2u);
  for (std::size_t i = 1; i < report.nmf.objective_history.size(); ++i)
    EXPECT_LE(report.nmf.objective_history[i],
              report.nmf.objective_history[i - 1] +
                  1e-9 * (1.0 + report.nmf.objective_history[i - 1]));

  // Inference invariants over a sample of states.
  std::size_t exceptions = 0;
  for (std::size_t i = 0; i < states.size(); i += 7) {
    const core::Diagnosis d = tool.diagnose_state(states[i].delta);
    for (std::size_t r = 0; r < d.weights.size(); ++r)
      EXPECT_GE(d.weights[r], 0.0);
    EXPECT_GE(d.residual, 0.0);
    if (d.is_exception) ++exceptions;
    for (std::size_t k = 1; k < d.ranked.size(); ++k)
      EXPECT_GE(d.ranked[k - 1].strength, d.ranked[k].strength);
  }
  // Exceptions exist but are the minority of the sampled states.
  EXPECT_GT(exceptions, 0u);
  EXPECT_LT(exceptions, states.size() / 7 / 2);

  // Determinism: the same seed reproduces the same model.
  scenario::ScenarioBundle again = scenario::tiny(12, 5400.0, seed);
  again.faults = bundle.faults;
  const wsn::SimulationResult result2 = again.make_simulator().run();
  EXPECT_EQ(result2.sink_log.size(), result.sink_log.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(11, 23, 57, 101, 999));

}  // namespace
}  // namespace vn2
