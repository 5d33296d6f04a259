#include "core/inference.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "test_helpers.hpp"

namespace vn2::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using vn2::testing::make_synthetic;
using vn2::testing::PlantedCause;
using vn2::testing::standard_causes;

class InferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    synthetic_ = make_synthetic(standard_causes(), 500, 42);
    TrainingOptions options;
    options.rank = 6;
    options.nmf.max_iterations = 400;
    report_ = train(synthetic_.states, options);
  }

  vn2::testing::SyntheticTrace synthetic_;
  TrainingReport report_;
};

TEST_F(InferenceTest, RejectsBadInput) {
  EXPECT_THROW(diagnose(Vn2Model{}, Vector(metrics::kMetricCount)),
               std::invalid_argument);
  EXPECT_THROW(diagnose(report_.model, Vector(10)), std::invalid_argument);
}

TEST_F(InferenceTest, WeightsAreNonnegativeAndRanked) {
  const Diagnosis d =
      diagnose(report_.model, synthetic_.states.row_vector(5));
  EXPECT_EQ(d.weights.size(), report_.model.rank());
  for (std::size_t r = 0; r < d.weights.size(); ++r)
    EXPECT_GE(d.weights[r], 0.0);
  for (std::size_t i = 1; i < d.ranked.size(); ++i)
    EXPECT_GE(d.ranked[i - 1].strength, d.ranked[i].strength);
}

TEST_F(InferenceTest, NormalStatesHaveSmallWeights) {
  // Paper: "In most cases, the node performs well, such that x_j ≈ 0."
  double normal_total = 0.0, abnormal_total = 0.0;
  std::size_t normals = 0, abnormals = 0;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    const double total = linalg::sum(d.weights);
    if (synthetic_.active[i].empty()) {
      normal_total += total;
      ++normals;
    } else {
      abnormal_total += total;
      ++abnormals;
    }
  }
  ASSERT_GT(normals, 0u);
  ASSERT_GT(abnormals, 0u);
  // Normal states still carry |z| ≈ 0.8σ of encoded noise per metric, so
  // their weights are small but not zero; abnormal states must clearly
  // exceed them.
  EXPECT_GT(abnormal_total / abnormals, 1.5 * normal_total / normals);
}

TEST_F(InferenceTest, SameCauseSameDominantRow) {
  // All states with only cause 0 active should light up the same Ψ row(s).
  std::map<std::size_t, std::size_t> dominant_count;
  std::size_t total = 0;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
    if (synthetic_.active[i] != std::vector<std::size_t>{0}) continue;
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    if (d.ranked.empty()) continue;
    dominant_count[d.ranked[0].row]++;
    ++total;
  }
  ASSERT_GT(total, 10u);
  std::size_t best = 0;
  for (const auto& [row, count] : dominant_count) best = std::max(best, count);
  // A clear majority maps to one row.
  EXPECT_GT(best, total / 2);
}

TEST_F(InferenceTest, MultiCauseStatesActivateMultipleRows) {
  // Find which row dominates each single cause.
  auto dominant_row_for = [&](std::size_t cause) -> std::size_t {
    std::map<std::size_t, std::size_t> counts;
    for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
      if (synthetic_.active[i] != std::vector<std::size_t>{cause}) continue;
      const Diagnosis d =
          diagnose(report_.model, synthetic_.states.row_vector(i));
      if (!d.ranked.empty()) counts[d.ranked[0].row]++;
    }
    std::size_t best_row = 0, best_count = 0;
    for (const auto& [row, count] : counts)
      if (count > best_count) {
        best_row = row;
        best_count = count;
      }
    return best_row;
  };
  const std::size_t row0 = dominant_row_for(0);
  const std::size_t row1 = dominant_row_for(1);
  if (row0 == row1) GTEST_SKIP() << "causes merged into one factor";

  // States with causes {0, 1} both active should activate both rows.
  std::size_t both = 0, total = 0;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i) {
    std::set<std::size_t> active(synthetic_.active[i].begin(),
                                 synthetic_.active[i].end());
    if (active != std::set<std::size_t>{0, 1}) continue;
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    std::set<std::size_t> rows;
    for (const RankedCause& cause : d.ranked) rows.insert(cause.row);
    if (rows.contains(row0) && rows.contains(row1)) ++both;
    ++total;
  }
  if (total == 0) GTEST_SKIP() << "no pair states drawn for causes {0,1}";
  EXPECT_GT(static_cast<double>(both) / static_cast<double>(total), 0.5);
}

TEST_F(InferenceTest, ResidualSmallForTrainingLikeStates) {
  // The model should reconstruct states drawn from its own distribution
  // substantially better than arbitrary noise directions it never saw.
  const Vector abnormal = synthetic_.states.row_vector(5);
  const Diagnosis d = diagnose(report_.model, abnormal);
  const double encoded_norm =
      linalg::norm2(report_.model.encoder().encode(abnormal));
  EXPECT_LT(d.residual, encoded_norm);
}

TEST_F(InferenceTest, CorrelationStrengthsBatchMatchesSingle) {
  Matrix subset(0, 0);
  for (std::size_t i = 0; i < 10; ++i)
    subset.append_row(synthetic_.states.row(i));
  const Matrix w = correlation_strengths(report_.model, subset);
  ASSERT_EQ(w.rows(), 10u);
  ASSERT_EQ(w.cols(), report_.model.rank());
  for (std::size_t i = 0; i < 10; ++i) {
    const Diagnosis d =
        diagnose(report_.model, synthetic_.states.row_vector(i));
    for (std::size_t r = 0; r < w.cols(); ++r)
      EXPECT_NEAR(w(i, r), d.weights[r], 1e-8);
  }
}

TEST(InferenceHelpers, MeanStrengthProfile) {
  Matrix w{{1.0, 0.0}, {3.0, 2.0}};
  const Vector profile = mean_strength_profile(w);
  EXPECT_DOUBLE_EQ(profile[0], 2.0);
  EXPECT_DOUBLE_EQ(profile[1], 1.0);
  EXPECT_EQ(mean_strength_profile(Matrix(0, 0)).size(), 0u);
}

TEST(InferenceHelpers, ProfileCorrelation) {
  Vector a{1.0, 2.0, 3.0};
  Vector up{2.0, 4.0, 6.0};
  Vector down{3.0, 2.0, 1.0};
  EXPECT_NEAR(profile_correlation(a, up), 1.0, 1e-12);
  EXPECT_NEAR(profile_correlation(a, down), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(profile_correlation(a, Vector{1.0, 1.0, 1.0}), 0.0);
  EXPECT_THROW(profile_correlation(a, Vector{1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// diagnose_stream: the bounded-queue batch path must be an exact drop-in
// for diagnose_batch — per state bit-identical at any batch size, chunk
// size, or thread count — while only ever materializing one batch.

TEST_F(InferenceTest, StreamMatchesBatchBitForBit) {
  const std::vector<Diagnosis> expected =
      diagnose_batch(report_.model, synthetic_.states);
  for (const std::size_t batch_size : {1ul, 7ul, 64ul, 10000ul}) {
    StreamOptions options;
    options.batch_size = batch_size;
    options.chunk = 5;
    std::size_t seen = 0;
    const StreamReport report = diagnose_stream(
        report_.model, synthetic_.states, options,
        [&](std::size_t first, const std::vector<Diagnosis>& batch) {
          ASSERT_EQ(first, seen);
          for (std::size_t i = 0; i < batch.size(); ++i) {
            const Diagnosis& got = batch[i];
            const Diagnosis& want = expected[first + i];
            ASSERT_EQ(got.weights, want.weights)
                << "state " << first + i << " batch_size " << batch_size;
            EXPECT_EQ(got.residual, want.residual);
            EXPECT_EQ(got.exception_score, want.exception_score);
            EXPECT_EQ(got.is_exception, want.is_exception);
            ASSERT_EQ(got.ranked.size(), want.ranked.size());
            for (std::size_t r = 0; r < got.ranked.size(); ++r) {
              EXPECT_EQ(got.ranked[r].row, want.ranked[r].row);
              EXPECT_EQ(got.ranked[r].strength, want.ranked[r].strength);
            }
          }
          seen += batch.size();
        });
    EXPECT_EQ(seen, expected.size());
    EXPECT_EQ(report.states, expected.size());
    const std::size_t want_batches =
        (expected.size() + batch_size - 1) / batch_size;
    EXPECT_EQ(report.batches, want_batches);
    std::size_t want_exceptions = 0;
    for (const Diagnosis& d : expected)
      if (d.is_exception) ++want_exceptions;
    EXPECT_EQ(report.exceptions, want_exceptions);
  }
}

TEST_F(InferenceTest, StreamIsChunkAndThreadInvariant) {
  Matrix subset(0, 0);
  for (std::size_t i = 0; i < 40; ++i)
    subset.append_row(synthetic_.states.row(i));
  auto weights_with = [&](std::size_t chunk, std::size_t threads) {
    const std::size_t previous = vn2::core::num_threads();
    set_num_threads(threads);
    StreamOptions options;
    options.batch_size = 16;
    options.chunk = chunk;
    std::vector<Vector> collected;
    diagnose_stream(report_.model, subset, options,
                    [&](std::size_t, const std::vector<Diagnosis>& batch) {
                      for (const Diagnosis& d : batch)
                        collected.push_back(d.weights);
                    });
    set_num_threads(previous);
    return collected;
  };
  const std::vector<Vector> baseline = weights_with(1, 1);
  EXPECT_EQ(baseline, weights_with(64, 1));
  EXPECT_EQ(baseline, weights_with(3, 4));
  EXPECT_EQ(baseline, weights_with(16, 8));
}

TEST_F(InferenceTest, StreamEdgeCases) {
  // Empty input: no sink calls, an all-zero report.
  const Matrix empty(0, metrics::kMetricCount);
  StreamOptions options;
  bool called = false;
  const StreamReport report =
      diagnose_stream(report_.model, empty, options,
                      [&](std::size_t, const std::vector<Diagnosis>&) {
                        called = true;
                      });
  EXPECT_FALSE(called);
  EXPECT_EQ(report.states, 0u);
  EXPECT_EQ(report.batches, 0u);
  EXPECT_EQ(report.exceptions, 0u);

  // A null sink is allowed: the stream still diagnoses and reports.
  Matrix one(0, 0);
  one.append_row(synthetic_.states.row(0));
  const StreamReport counted =
      diagnose_stream(report_.model, one, options, nullptr);
  EXPECT_EQ(counted.states, 1u);
  EXPECT_EQ(counted.batches, 1u);

  // Invalid inputs are rejected like diagnose_batch's.
  EXPECT_THROW(diagnose_stream(Vn2Model{}, one, options, nullptr),
               std::invalid_argument);
  StreamOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(diagnose_stream(report_.model, one, zero_batch, nullptr),
               std::invalid_argument);
  StreamOptions zero_chunk;
  zero_chunk.chunk = 0;
  EXPECT_THROW(diagnose_stream(report_.model, one, zero_chunk, nullptr),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// One kernel behind every entry point: the same state gives the same bits
// whichever entry point, thread count, batch size or chunk size ran it.

bool same_diagnosis(const Diagnosis& a, const Diagnosis& b) {
  if (a.weights != b.weights || a.residual != b.residual ||
      a.exception_score != b.exception_score ||
      a.is_exception != b.is_exception || a.ranked.size() != b.ranked.size())
    return false;
  for (std::size_t r = 0; r < a.ranked.size(); ++r)
    if (a.ranked[r].row != b.ranked[r].row ||
        a.ranked[r].strength != b.ranked[r].strength)
      return false;
  return true;
}

TEST_F(InferenceTest, CorrelationStrengthsEqualBatchWeightsBitForBit) {
  const std::vector<Diagnosis> batch =
      diagnose_batch(report_.model, synthetic_.states);
  const Matrix w = correlation_strengths(report_.model, synthetic_.states);
  ASSERT_EQ(w.rows(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(w.row_vector(i), batch[i].weights) << "state " << i;
}

TEST_F(InferenceTest, KernelScoreAndVerdictMatchModelRule) {
  // The synthetic states all break the ε rule; the training mean (ε = 0)
  // adds the other verdict.
  Matrix probes = synthetic_.states;
  Vector mean(metrics::kMetricCount);
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
    mean[m] = report_.model.encoder().metric_mean(m);
  probes.append_row(mean.span());
  const std::vector<Diagnosis> batch = diagnose_batch(report_.model, probes);
  std::size_t exceptions = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Vector raw = probes.row_vector(i);
    EXPECT_EQ(batch[i].exception_score, report_.model.exception_score(raw))
        << "state " << i;
    EXPECT_EQ(batch[i].is_exception, report_.model.is_exception(raw))
        << "state " << i;
    if (batch[i].is_exception) ++exceptions;
  }
  EXPECT_GT(exceptions, 0u);
  EXPECT_LT(exceptions, batch.size());
}

TEST_F(InferenceTest, EntryPointsAgreeBitForBitAcrossThreads) {
  const std::size_t previous = num_threads();
  set_num_threads(1);
  std::vector<Diagnosis> single;
  for (std::size_t i = 0; i < synthetic_.states.rows(); ++i)
    single.push_back(diagnose(report_.model, synthetic_.states.row_vector(i)));
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    set_num_threads(threads);
    const std::vector<Diagnosis> batch =
        diagnose_batch(report_.model, synthetic_.states);
    ASSERT_EQ(batch.size(), single.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_TRUE(same_diagnosis(batch[i], single[i]))
          << "batch, state " << i << ", " << threads << " threads";
    for (const auto& [batch_size, chunk] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {7, 3}, {64, 64}, {100, 9}, {10000, 64}}) {
      StreamOptions options;
      options.batch_size = batch_size;
      options.chunk = chunk;
      std::size_t mismatches = 0, seen = 0;
      diagnose_stream(
          report_.model, synthetic_.states, options,
          [&](std::size_t first, const std::vector<Diagnosis>& out) {
            for (std::size_t i = 0; i < out.size(); ++i, ++seen)
              if (!same_diagnosis(out[i], single[first + i])) ++mismatches;
          });
      EXPECT_EQ(seen, single.size());
      EXPECT_EQ(mismatches, 0u)
          << "stream, batch " << batch_size << ", chunk " << chunk << ", "
          << threads << " threads";
    }
  }
  set_num_threads(previous);
}

TEST_F(InferenceTest, StrengthFloorFiltersWeakCauses) {
  DiagnoseOptions strict;
  strict.strength_floor_fraction = 0.9;  // Essentially only the top cause.
  const Diagnosis d = diagnose(report_.model,
                               synthetic_.states.row_vector(5), strict);
  DiagnoseOptions lenient;
  lenient.strength_floor_fraction = 0.0;
  const Diagnosis d2 = diagnose(report_.model,
                                synthetic_.states.row_vector(5), lenient);
  EXPECT_LE(d.ranked.size(), d2.ranked.size());
}

}  // namespace
}  // namespace vn2::core
