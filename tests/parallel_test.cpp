// The parallel execution layer: index coverage under adversarial grains,
// one region at a time (nested and concurrent regions run inline),
// bit-identical results across thread counts for every parallelized hot
// path (matmul, rank_sweep, diagnose_batch), and a usable pool after a
// task throws.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/random.hpp"
#include "nmf/rank_selection.hpp"
#include "test_helpers.hpp"

namespace vn2::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

// The thread budget is process-global; restore the default after each test
// so the suites sharing this binary are unaffected.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(0); }
};

TEST_F(ParallelTest, SetNumThreadsRoundTrips) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(0);  // Reset to hardware default.
  EXPECT_GE(num_threads(), 1u);
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnceUnderAdversarialGrains) {
  const std::size_t grains[] = {0, 1, 2, 3, 7, 64, 1u << 20};
  const std::size_t sizes[] = {0, 1, 2, 13, 100, 1017};
  const std::size_t begins[] = {0, 5};
  for (std::size_t threads : {1u, 2u, 5u}) {
    set_num_threads(threads);
    for (std::size_t grain : grains) {
      for (std::size_t n : sizes) {
        for (std::size_t begin : begins) {
          std::vector<std::atomic<int>> counts(begin + n);
          for (auto& c : counts) c.store(0);
          parallel_for(begin, begin + n, grain, [&](std::size_t i) {
            counts.at(i).fetch_add(1);
          });
          for (std::size_t i = 0; i < begin; ++i)
            ASSERT_EQ(counts[i].load(), 0)
                << "i=" << i << " grain=" << grain << " threads=" << threads;
          for (std::size_t i = begin; i < begin + n; ++i)
            ASSERT_EQ(counts[i].load(), 1)
                << "i=" << i << " grain=" << grain << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(ParallelTest, OneThreadRunsOnTheCallingThread) {
  set_num_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(0, 64, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST_F(ParallelTest, NestedParallelForRunsInlineInTheOuterTask) {
  set_num_threads(4);
  std::vector<std::atomic<int>> counts(32 * 8);
  for (auto& c : counts) c.store(0);
  parallel_for(0, 8, 1, [&](std::size_t outer) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    parallel_for(0, 32, 1, [&](std::size_t inner) {
      // No nested fan-out: the pool is busy with the outer region, so the
      // inner loop stays on the outer task's thread, whichever it is.
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      counts[outer * 32 + inner].fetch_add(1);
    });
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// Each of two outer tasks runs a nested region, then waits for the other
// task's nested region to finish. That only works if no nested region
// waits on the other outer task, including the one the submitting thread
// runs.
TEST_F(ParallelTest, SubmittersNestedRegionDoesNotWaitForOtherTasks) {
  set_num_threads(2);
  std::atomic<int> nested_done{0};
  std::atomic<int> timeouts{0};
  parallel_for(0, 2, 1, [&](std::size_t) {
    std::atomic<int> inner{0};
    parallel_for(0, 64, 1, [&](std::size_t) { inner.fetch_add(1); });
    EXPECT_EQ(inner.load(), 64);
    nested_done.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (nested_done.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        timeouts.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(timeouts.load(), 0);
}

// Two threads issue regions at once: one holds the pool, the other's
// regions run inline, and every index of every region runs exactly once.
TEST_F(ParallelTest, RegionsFromTwoThreadsEachRunEveryIndexOnce) {
  set_num_threads(4);
  constexpr std::size_t kSize = 1000;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> counts(2 * kSize);
  for (auto& c : counts) c.store(0);
  const auto issue = [&](std::size_t offset) {
    for (int round = 0; round < kRounds; ++round)
      parallel_for(offset, offset + kSize, 7,
                   [&](std::size_t i) { counts[i].fetch_add(1); });
  };
  std::thread first(issue, 0);
  std::thread second(issue, kSize);
  first.join();
  second.join();
  for (auto& c : counts) ASSERT_EQ(c.load(), kRounds);
}

TEST_F(ParallelTest, ThrowingTaskPropagatesAndPoolStaysUsable) {
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 1000, 1,
                            [&](std::size_t i) {
                              if (i == 137)
                                throw std::runtime_error("boom at 137");
                            }),
               std::runtime_error);
  // The pool must have drained cleanly and still schedule new work.
  std::vector<std::atomic<int>> counts(500);
  for (auto& c : counts) c.store(0);
  parallel_for(0, counts.size(), 1,
               [&](std::size_t i) { counts[i].fetch_add(1); });
  for (auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST_F(ParallelTest, MatmulBitIdenticalAcrossThreadCounts) {
  // Big enough to cross matmul's parallel threshold (120·40·90 flops).
  const Matrix a = linalg::random_uniform_matrix(120, 40, 11, -1.0, 1.0);
  const Matrix b = linalg::random_uniform_matrix(40, 90, 12, -1.0, 1.0);
  set_num_threads(1);
  const Matrix serial = linalg::matmul(a, b);
  for (std::size_t threads : {2u, 8u}) {
    set_num_threads(threads);
    const Matrix parallel = linalg::matmul(a, b);
    ASSERT_EQ(parallel.rows(), serial.rows());
    ASSERT_EQ(parallel.cols(), serial.cols());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << "matmul not bit-identical at " << threads << " threads";
  }
}

TEST_F(ParallelTest, RankSweepAndChooseRankIdenticalAcrossThreadCounts) {
  const Matrix e = linalg::random_uniform_matrix(60, 30, 21, 0.0, 1.0);
  const std::vector<std::size_t> ranks = {2, 3, 5, 8};
  nmf::RankSweepOptions options;
  options.nmf.max_iterations = 40;

  set_num_threads(1);
  const std::vector<nmf::RankPoint> serial = nmf::rank_sweep(e, ranks, options);
  const nmf::RankChoice serial_choice = nmf::choose_rank(serial);
  ASSERT_EQ(serial.size(), ranks.size());

  for (std::size_t threads : {2u, 8u}) {
    set_num_threads(threads);
    const std::vector<nmf::RankPoint> parallel =
        nmf::rank_sweep(e, ranks, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].rank, serial[i].rank);
      EXPECT_EQ(parallel[i].accuracy_original, serial[i].accuracy_original)
          << "rank " << serial[i].rank << " at " << threads << " threads";
      EXPECT_EQ(parallel[i].accuracy_sparse, serial[i].accuracy_sparse)
          << "rank " << serial[i].rank << " at " << threads << " threads";
    }
    const nmf::RankChoice choice = nmf::choose_rank(parallel);
    EXPECT_EQ(choice.rank, serial_choice.rank);
    EXPECT_EQ(choice.sweep_index, serial_choice.sweep_index);
  }
}

TEST_F(ParallelTest, DiagnoseBatchIdenticalAcrossThreadCounts) {
  const auto synthetic =
      vn2::testing::make_synthetic(vn2::testing::standard_causes(), 300, 77);
  TrainingOptions training;
  training.rank = 5;
  training.nmf.max_iterations = 150;
  set_num_threads(1);
  const TrainingReport report = train(synthetic.states, training);

  // Reference: the serial single-state front door.
  std::vector<Diagnosis> serial;
  serial.reserve(synthetic.states.rows());
  for (std::size_t i = 0; i < synthetic.states.rows(); ++i)
    serial.push_back(diagnose(report.model, synthetic.states.row_vector(i)));

  for (std::size_t threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const std::vector<Diagnosis> batch =
        diagnose_batch(report.model, synthetic.states);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].residual, serial[i].residual);
      EXPECT_EQ(batch[i].exception_score, serial[i].exception_score);
      EXPECT_EQ(batch[i].is_exception, serial[i].is_exception);
      ASSERT_EQ(batch[i].weights.size(), serial[i].weights.size());
      for (std::size_t r = 0; r < batch[i].weights.size(); ++r)
        EXPECT_EQ(batch[i].weights[r], serial[i].weights[r])
            << "state " << i << " weight " << r << " at " << threads
            << " threads";
      ASSERT_EQ(batch[i].ranked.size(), serial[i].ranked.size());
    }
    const Matrix strengths =
        correlation_strengths(report.model, synthetic.states);
    ASSERT_EQ(strengths.rows(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      for (std::size_t r = 0; r < report.model.rank(); ++r)
        EXPECT_EQ(strengths(i, r), serial[i].weights[r]);
  }
}

}  // namespace
}  // namespace vn2::core
