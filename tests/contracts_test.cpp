// Contract-assertion coverage (src/core/contracts.hpp).
//
// In Debug builds (NDEBUG undefined) the numeric hot paths throw
// ContractViolation on contract breaches; in plain Release builds the
// macros compile to nothing and the pre-existing std::invalid_argument
// validation is the only guard. The tests ask the *library* (not this
// translation unit) which mode it was built in via contracts_active(), so
// the same test binary is correct in every CI configuration.
#include "core/contracts.hpp"

#include <gtest/gtest.h>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/solve.hpp"
#include "metrics/schema.hpp"
#include "nmf/nmf.hpp"
#include "nmf/rank_selection.hpp"
#include "test_helpers.hpp"

namespace vn2 {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(Contracts, ViolationIsAnInvalidArgument) {
  // Call sites that promised std::invalid_argument keep that promise when
  // a VN2_REQUIRE fires instead: ContractViolation derives from it.
  const core::ContractViolation violation("precondition", "a == b", "demo",
                                          "contracts_test.cpp", 1);
  const std::invalid_argument* as_invalid = &violation;
  EXPECT_NE(as_invalid, nullptr);
  EXPECT_NE(std::string(violation.what()).find("demo"), std::string::npos);
  EXPECT_NE(std::string(violation.what()).find("a == b"), std::string::npos);
}

TEST(Contracts, MatmulDimensionMismatchTripsContract) {
  const Matrix a(2, 3, 1.0);
  const Matrix b(4, 2, 1.0);  // inner dimensions disagree: 3 vs 4
  if (core::contracts_active()) {
    EXPECT_THROW((void)linalg::matmul(a, b), core::ContractViolation);
  } else {
    EXPECT_THROW((void)linalg::matmul(a, b), std::invalid_argument);
  }
}

TEST(Contracts, MatvecAndVecmatMismatchAreRejectedEitherWay) {
  const Matrix a(2, 3, 1.0);
  // ContractViolation IS-A invalid_argument, so this holds in both modes.
  EXPECT_THROW((void)linalg::matvec(a, Vector(4)), std::invalid_argument);
  EXPECT_THROW((void)linalg::vecmat(Vector(4), a), std::invalid_argument);
}

TEST(Contracts, CholeskySolveSizeMismatchTripsContract) {
  const Matrix spd = {{4.0, 1.0}, {1.0, 3.0}};
  if (core::contracts_active()) {
    EXPECT_THROW((void)linalg::cholesky_solve(spd, Vector(3)),
                 core::ContractViolation);
  } else {
    EXPECT_THROW((void)linalg::cholesky_solve(spd, Vector(3)),
                 std::invalid_argument);
  }
}

TEST(Contracts, NnlsShapeMismatchTripsContract) {
  const Matrix a(3, 2, 1.0);
  if (core::contracts_active()) {
    EXPECT_THROW((void)linalg::nnls(a, Vector(5)), core::ContractViolation);
  } else {
    EXPECT_THROW((void)linalg::nnls(a, Vector(5)), std::invalid_argument);
  }
}

TEST(Contracts, NegativeNmfFactorTripsInvariant) {
  // A negative factor entry breaks the multiplicative update's
  // non-negativity invariant: the update preserves sign, so the negative
  // entry survives and the postcondition must catch it.
  const Matrix e(3, 3, 1.0);
  Matrix w(3, 2, 0.5);
  Matrix psi(2, 3, 0.5);
  w(1, 1) = -0.25;
  if (core::contracts_active()) {
    EXPECT_THROW(nmf::multiplicative_update(e, w, psi),
                 core::ContractViolation);
  } else {
    EXPECT_NO_THROW(nmf::multiplicative_update(e, w, psi));
  }
}

TEST(Contracts, HealthyNmfUpdateSatisfiesInvariant) {
  const Matrix e = {{1.0, 0.5, 0.2}, {0.4, 1.0, 0.6}, {0.3, 0.2, 1.0}};
  Matrix w(3, 2, 0.5);
  Matrix psi(2, 3, 0.5);
  EXPECT_NO_THROW(nmf::multiplicative_update(e, w, psi));
  EXPECT_TRUE(linalg::is_nonnegative(w));
  EXPECT_TRUE(linalg::is_nonnegative(psi));
}

TEST(Contracts, RankOutOfBoundsTripsContract) {
  const Matrix e(4, 4, 1.0);
  if (core::contracts_active()) {
    EXPECT_THROW((void)nmf::factorize(e, 9), core::ContractViolation);
    EXPECT_THROW((void)nmf::choose_rank({}), core::ContractViolation);
  } else {
    EXPECT_THROW((void)nmf::factorize(e, 9), std::invalid_argument);
    EXPECT_THROW((void)nmf::choose_rank({}), std::invalid_argument);
  }
}

class ContractsWithModel : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto synthetic =
        vn2::testing::make_synthetic(vn2::testing::standard_causes(), 200, 7);
    core::TrainingOptions options;
    options.rank = 4;
    options.nmf.max_iterations = 50;
    report_ = core::train(synthetic.states, options);
  }

  core::TrainingReport report_;
};

TEST_F(ContractsWithModel, WrongLengthStateVectorTripsContract) {
  const Vector short_state(metrics::kMetricCount - 1);
  if (core::contracts_active()) {
    EXPECT_THROW((void)core::diagnose(report_.model, short_state),
                 core::ContractViolation);
  } else {
    EXPECT_THROW((void)core::diagnose(report_.model, short_state),
                 std::invalid_argument);
  }
}

TEST_F(ContractsWithModel, WrongWidthBatchTripsContract) {
  const Matrix bad_batch(3, metrics::kMetricCount + 2);
  if (core::contracts_active()) {
    EXPECT_THROW((void)core::diagnose_batch(report_.model, bad_batch),
                 core::ContractViolation);
  } else {
    EXPECT_THROW((void)core::diagnose_batch(report_.model, bad_batch),
                 std::invalid_argument);
  }
}

TEST_F(ContractsWithModel, CorrectStateDiagnosesWithoutTrippingContracts) {
  EXPECT_NO_THROW(
      (void)core::diagnose(report_.model, Vector(metrics::kMetricCount)));
}

TEST(Contracts, WrongWidthTrainingMatrixTripsContract) {
  const Matrix bad_states(10, 7);
  if (core::contracts_active()) {
    EXPECT_THROW((void)core::train(bad_states, {}), core::ContractViolation);
  } else {
    EXPECT_THROW((void)core::train(bad_states, {}), std::invalid_argument);
  }
}

}  // namespace
}  // namespace vn2
