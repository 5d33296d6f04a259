#include "core/model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "linalg/random.hpp"
#include "test_helpers.hpp"

namespace vn2::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using vn2::testing::make_synthetic;
using vn2::testing::standard_causes;

TEST(Train, RejectsBadInput) {
  EXPECT_THROW(train(Matrix{}), std::invalid_argument);
  EXPECT_THROW(train(Matrix(5, 10)), std::invalid_argument);
}

TEST(Train, FixedRankProducesModel) {
  auto synthetic = make_synthetic(standard_causes(), 300, 1);
  TrainingOptions options;
  options.rank = 6;
  TrainingReport report = train(synthetic.states, options);

  EXPECT_TRUE(report.model.trained());
  EXPECT_EQ(report.model.rank(), 6u);
  EXPECT_EQ(report.chosen_rank, 6u);
  EXPECT_EQ(report.training_states, 300u);
  EXPECT_GT(report.exception_states, 0u);
  EXPECT_LE(report.exception_states, 300u);
  EXPECT_TRUE(report.rank_sweep.empty());  // No sweep when rank is fixed.
  EXPECT_EQ(report.model.psi().cols(), kEncodedCount);
  EXPECT_TRUE(linalg::is_nonnegative(report.model.psi()));
}

TEST(Train, AutoRankRunsSweep) {
  auto synthetic = make_synthetic(standard_causes(), 200, 2);
  TrainingOptions options;
  options.candidate_ranks = {2, 4, 6, 8};
  options.nmf.max_iterations = 150;
  TrainingReport report = train(synthetic.states, options);
  EXPECT_FALSE(report.rank_sweep.empty());
  EXPECT_GT(report.chosen_rank, 0u);
  EXPECT_EQ(report.model.rank(), report.chosen_rank);
}

TEST(Train, SkipExceptionExtractionUsesAllStates) {
  auto synthetic = make_synthetic(standard_causes(), 120, 3);
  TrainingOptions options;
  options.rank = 4;
  options.skip_exception_extraction = true;
  TrainingReport report = train(synthetic.states, options);
  EXPECT_EQ(report.exception_states, 120u);
}

TEST(Train, RankBeyondExceptionCountThrows) {
  auto synthetic = make_synthetic(standard_causes(), 50, 4);
  TrainingOptions options;
  options.rank = 45;  // More than plausible exception rows.
  options.exception_threshold = 0.9;  // Keep almost nothing.
  EXPECT_THROW(train(synthetic.states, options), std::invalid_argument);
}

TEST(Train, ThresholdControlsExceptionCount) {
  auto synthetic = make_synthetic(standard_causes(), 300, 5);
  TrainingOptions lenient;
  lenient.rank = 4;
  lenient.exception_threshold = 0.01;
  TrainingOptions strict;
  strict.rank = 4;
  strict.exception_threshold = 0.6;
  const auto lenient_report = train(synthetic.states, lenient);
  const auto strict_report = train(synthetic.states, strict);
  EXPECT_GT(lenient_report.exception_states, strict_report.exception_states);
}

TEST(Model, ExceptionRuleMatchesTraining) {
  auto synthetic = make_synthetic(standard_causes(), 400, 6);
  TrainingOptions options;
  options.rank = 6;
  options.exception_threshold = 0.35;
  TrainingReport report = train(synthetic.states, options);

  // Re-applying the online rule to the training rows must reproduce the
  // offline flags.
  std::size_t flagged = 0;
  for (std::size_t i = 0; i < synthetic.states.rows(); ++i)
    if (report.model.is_exception(synthetic.states.row_vector(i))) ++flagged;
  EXPECT_EQ(flagged, report.detection.exception_rows.size());
}

TEST(Model, PlantedAbnormalStatesScoreHigher) {
  auto synthetic = make_synthetic(standard_causes(), 300, 7);
  TrainingOptions options;
  options.rank = 6;
  TrainingReport report = train(synthetic.states, options);

  double normal_sum = 0.0, abnormal_sum = 0.0;
  std::size_t normal_count = 0, abnormal_count = 0;
  for (std::size_t i = 0; i < synthetic.states.rows(); ++i) {
    const double score =
        report.model.exception_score(synthetic.states.row_vector(i));
    if (synthetic.active[i].empty()) {
      normal_sum += score;
      ++normal_count;
    } else {
      abnormal_sum += score;
      ++abnormal_count;
    }
  }
  // The encoder's std is fit on the mixed (normal + abnormal) trace, which
  // compresses the planted shift; the separation is real but modest.
  EXPECT_GT(abnormal_sum / abnormal_count, 1.15 * normal_sum / normal_count);
}

TEST(Model, RootCauseProfileShape) {
  auto synthetic = make_synthetic(standard_causes(), 200, 8);
  TrainingOptions options;
  options.rank = 5;
  TrainingReport report = train(synthetic.states, options);
  const Vector profile = report.model.root_cause_profile(0);
  EXPECT_EQ(profile.size(), metrics::kMetricCount);
}

TEST(Model, UntrainedModelBehaves) {
  Vn2Model model;
  EXPECT_FALSE(model.trained());
  EXPECT_EQ(model.rank(), 0u);
  EXPECT_FALSE(model.is_exception(Vector(metrics::kMetricCount, 100.0)));
}

TEST(Model, SaveLoadRoundTrip) {
  auto synthetic = make_synthetic(standard_causes(), 150, 9);
  TrainingOptions options;
  options.rank = 4;
  TrainingReport report = train(synthetic.states, options);

  const std::string path =
      (std::filesystem::temp_directory_path() / "vn2_model_test.txt").string();
  report.model.save(path);
  Vn2Model loaded = Vn2Model::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.rank(), report.model.rank());
  EXPECT_LT(linalg::frobenius_distance(loaded.psi(), report.model.psi()),
            1e-9);
  // The loaded model must score states identically.
  const Vector probe = synthetic.states.row_vector(11);
  EXPECT_NEAR(loaded.exception_score(probe),
              report.model.exception_score(probe), 1e-9);
  EXPECT_EQ(loaded.is_exception(probe), report.model.is_exception(probe));
}

TEST(Model, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "vn2_model_garbage.txt")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT_A_MODEL 9\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(Vn2Model::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(Vn2Model::load("/definitely/not/here"), std::runtime_error);
}

// Writes a model file with a valid stats line and encoder around the given
// Ψ block (header line and rows) and returns its path.
std::string write_model_file(const std::string& name,
                             const std::string& psi_block) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::ofstream file(path);
  file << "VN2MODEL 2\n1.5 0.3\n" << psi_block << "3 43\n";
  // Means 0, standard deviations 1, clip 12.
  for (int row = 0; row < 3; ++row) {
    for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
      const double value = row == 0 ? 0.0 : row == 1 ? 1.0 : m ? 0.0 : 12.0;
      file << (m ? " " : "") << value;
    }
    file << "\n";
  }
  return path;
}

// A Ψ block of `rows` × `cols` entries of 0.25, with entry (1, 3) set to
// `special` when given.
std::string psi_block(std::size_t rows, std::size_t cols,
                      const std::string& special = "") {
  std::ostringstream block;
  block << rows << " " << cols << "\n";
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j)
      block << (j ? " " : "")
            << (i == 1 && j == 3 && !special.empty() ? special : "0.25");
    block << "\n";
  }
  return block.str();
}

// Loading must fail with a runtime_error naming the file and the problem.
void expect_load_error(const std::string& path, const std::string& problem) {
  try {
    (void)Vn2Model::load(path);
    ADD_FAILURE() << "loaded " << path;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(problem), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Model, LoadAcceptsWellFormedFile) {
  const std::string path =
      write_model_file("vn2_model_ok.txt", psi_block(2, kEncodedCount));
  const Vn2Model model = Vn2Model::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(model.rank(), 2u);
  EXPECT_EQ(model.nnls_system().a(), linalg::transpose(model.psi()));
}

TEST(Model, LoadRejectsHugeHeaderBeforeAllocating) {
  expect_load_error(
      write_model_file("vn2_model_huge.txt", "4000000000 4000000000\n"),
      "psi is 4000000000 x 4000000000, want 1..86 x 86");
}

TEST(Model, LoadRejectsNegativePsiEntry) {
  expect_load_error(write_model_file("vn2_model_negative.txt",
                                     psi_block(2, kEncodedCount, "-0.5")),
                    "psi entry (1, 3) is negative");
}

TEST(Model, LoadRejectsNanPsiEntry) {
  expect_load_error(write_model_file("vn2_model_nan.txt",
                                     psi_block(2, kEncodedCount, "nan")),
                    "psi entry (1, 3) is not finite");
}

TEST(Model, LoadRejectsWrongPsiWidth) {
  expect_load_error(
      write_model_file("vn2_model_85.txt", psi_block(2, kEncodedCount - 1)),
      "psi is 2 x 85, want 1..86 x 86");
}

TEST(Model, ConstructorValidatesShape) {
  EXPECT_THROW(Vn2Model(Matrix(3, 10), StateEncoder{}, 1.0, 0.01),
               std::invalid_argument);
}

TEST(Train, DeterministicGivenSeed) {
  auto synthetic = make_synthetic(standard_causes(), 200, 10);
  TrainingOptions options;
  options.rank = 5;
  TrainingReport a = train(synthetic.states, options);
  TrainingReport b = train(synthetic.states, options);
  EXPECT_LT(linalg::frobenius_distance(a.model.psi(), b.model.psi()), 1e-12);
}

}  // namespace
}  // namespace vn2::core
