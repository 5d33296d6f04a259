// Covers the signed-deviation StateEncoder the model pipeline uses.
#include "core/encoder.hpp"

#include <gtest/gtest.h>

#include "linalg/random.hpp"

namespace vn2::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

Matrix random_states(std::size_t n, std::uint64_t seed) {
  return linalg::random_uniform_matrix(n, metrics::kMetricCount, seed, -5.0,
                                       10.0);
}

TEST(StateEncoder, RejectsBadInput) {
  EXPECT_THROW(StateEncoder::fit(Matrix{}), std::invalid_argument);
  EXPECT_THROW(StateEncoder::fit(Matrix(3, 7)), std::invalid_argument);
  EXPECT_THROW(StateEncoder::fit(random_states(5, 1), 0.0),
               std::invalid_argument);
}

TEST(StateEncoder, EncodingIsNonnegativeAndSplitsSign) {
  Matrix states = random_states(100, 4);
  StateEncoder encoder = StateEncoder::fit(states);
  Matrix encoded = encoder.encode(states);
  EXPECT_EQ(encoded.cols(), kEncodedCount);
  EXPECT_TRUE(linalg::is_nonnegative(encoded));
  // At most one channel of a pair is non-zero.
  for (std::size_t i = 0; i < encoded.rows(); ++i)
    for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
      EXPECT_EQ(encoded(i, m) > 0.0 && encoded(i, metrics::kMetricCount + m) > 0.0,
                false);
}

TEST(StateEncoder, MeanStateEncodesToNearZero) {
  Matrix states = random_states(200, 5);
  StateEncoder encoder = StateEncoder::fit(states);
  Vector mean(metrics::kMetricCount);
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
    mean[m] = encoder.metric_mean(m);
  EXPECT_NEAR(encoder.deviation_score(mean), 0.0, 1e-9);
}

TEST(StateEncoder, DecodeInvertsEncode) {
  Matrix states = random_states(50, 6);
  StateEncoder encoder = StateEncoder::fit(states);
  const Vector raw = states.row_vector(3);
  const Vector profile = StateEncoder::decode_signed(encoder.encode(raw));
  // decode(encode(x))_m = (x_m − mean_m)/std_m (inside the clip range).
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
    const double expected =
        encoder.metric_std(m) > 0.0
            ? (raw[m] - encoder.metric_mean(m)) / encoder.metric_std(m)
            : 0.0;
    EXPECT_NEAR(profile[m], expected, 1e-9);
  }
}

TEST(StateEncoder, ClipsCatastrophicOutliers) {
  Matrix states = random_states(50, 7);
  StateEncoder encoder = StateEncoder::fit(states, 5.0);
  Vector crazy(metrics::kMetricCount, 0.0);
  crazy[2] = 1e9;
  const Vector encoded = encoder.encode(crazy);
  EXPECT_LE(encoded[2], 5.0);
}

TEST(StateEncoder, ConstantColumnIsSilent) {
  Matrix states(20, metrics::kMetricCount, 0.0);
  for (std::size_t i = 0; i < 20; ++i)
    states(i, 1) = static_cast<double>(i);  // Only column 1 varies.
  StateEncoder encoder = StateEncoder::fit(states);
  Vector probe(metrics::kMetricCount, 42.0);
  const Vector encoded = encoder.encode(probe);
  EXPECT_DOUBLE_EQ(encoded[0], 0.0);  // Constant column contributes nothing.
  EXPECT_DOUBLE_EQ(encoded[metrics::kMetricCount], 0.0);
  EXPECT_GT(encoded[1] + encoded[metrics::kMetricCount + 1], 0.0);
}

TEST(StateEncoder, DeviationScoreGrowsWithDeviation) {
  Matrix states = random_states(100, 8);
  StateEncoder encoder = StateEncoder::fit(states);
  Vector mild(metrics::kMetricCount), wild(metrics::kMetricCount);
  for (std::size_t m = 0; m < metrics::kMetricCount; ++m) {
    mild[m] = encoder.metric_mean(m) + 0.5 * encoder.metric_std(m);
    wild[m] = encoder.metric_mean(m) + 4.0 * encoder.metric_std(m);
  }
  EXPECT_GT(encoder.deviation_score(wild), encoder.deviation_score(mild));
}

TEST(StateEncoder, SerializationRoundTrip) {
  StateEncoder encoder = StateEncoder::fit(random_states(30, 9), 8.0);
  StateEncoder loaded = StateEncoder::from_matrix(encoder.to_matrix());
  EXPECT_EQ(encoder, loaded);
  EXPECT_THROW(StateEncoder::from_matrix(Matrix(2, 3)), std::invalid_argument);
}

TEST(StateEncoder, WrongVectorSizesThrow) {
  StateEncoder encoder = StateEncoder::fit(random_states(10, 10));
  EXPECT_THROW(encoder.encode(Vector(10)), std::invalid_argument);
  EXPECT_THROW(StateEncoder::decode_signed(Vector(43)), std::invalid_argument);
}

}  // namespace
}  // namespace vn2::core
