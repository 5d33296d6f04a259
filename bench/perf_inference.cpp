// Micro-benchmarks: online diagnosis latency — the NNLS solve of Problem 3
// per fresh state, across compression factors, plus batch throughput. This
// is the cost a sink-side monitor pays per incoming report.
//
// Before the google-benchmark suites run, a serial-vs-parallel batch
// diagnosis comparison writes wall-clock numbers to
// BENCH_parallel_inference.json (skip with --skip-parallel-report).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.hpp"
#include "benchstat/record.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/parallel.hpp"
#include "linalg/cpu_features.hpp"
#include "linalg/kernels.hpp"
#include "linalg/nnls.hpp"
#include "linalg/random.hpp"
#include "support/synthetic.hpp"
#include "telemetry_support.hpp"

namespace {

using vn2::core::TrainingOptions;
using vn2::core::TrainingReport;
using vn2::linalg::Matrix;
using vn2::linalg::Vector;

TrainingReport trained_model(std::size_t rank) {
  auto synthetic = vn2::testing::synthetic_states(2000, 77);
  TrainingOptions options;
  options.rank = rank;
  options.nmf.max_iterations = 120;
  return vn2::core::train(synthetic, options);
}

void BM_DiagnoseSingleState(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const TrainingReport report = trained_model(rank);
  const auto probes = vn2::testing::synthetic_states(64, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto diagnosis = vn2::core::diagnose(
        report.model, probes.row_vector(i % probes.rows()));
    benchmark::DoNotOptimize(diagnosis.residual);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiagnoseSingleState)->Arg(10)->Arg(25)->Arg(40);

void BM_BatchCorrelationStrengths(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const TrainingReport report = trained_model(25);
  const Matrix probes = vn2::testing::synthetic_states(batch, 6);
  for (auto _ : state) {
    const Matrix w = vn2::core::correlation_strengths(report.model, probes);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchCorrelationStrengths)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_DiagnoseBatchThreads(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const TrainingReport report = trained_model(25);
  const Matrix probes = vn2::testing::synthetic_states(batch, 6);
  vn2::core::set_num_threads(threads);
  for (auto _ : state) {
    const auto diagnoses = vn2::core::diagnose_batch(report.model, probes);
    benchmark::DoNotOptimize(diagnoses.data());
  }
  vn2::core::set_num_threads(0);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DiagnoseBatchThreads)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_RawNnls(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  const Matrix a = vn2::linalg::random_uniform_matrix(86, r, 3, 0.0, 1.0);
  const Vector b = vn2::linalg::random_uniform_vector(86, 4, 0.0, 2.0);
  for (auto _ : state) {
    auto result = vn2::linalg::nnls(a, b);
    benchmark::DoNotOptimize(result.x.data());
  }
}
BENCHMARK(BM_RawNnls)->Arg(10)->Arg(25)->Arg(40);

void BM_ExceptionScore(benchmark::State& state) {
  const TrainingReport report = trained_model(25);
  const auto probes = vn2::testing::synthetic_states(64, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        report.model.exception_score(probes.row_vector(i % probes.rows())));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExceptionScore);

double seconds_since(std::chrono::steady_clock::time_point start) {
  // vn2-lint: allow(nondeterminism-clock)
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Serial-vs-parallel batch diagnosis: the per-state NNLS solves across the
// worker pool, with a weight-identity check between the two runs.
void run_parallel_report(const char* json_path) {
  // Batch size scales with VN2_BENCH_DAYS (7 = full paper scale).
  const std::size_t batch = vn2::bench_support::scaled_size(2000, 200);
  const TrainingReport report = trained_model(25);
  const Matrix probes = vn2::testing::synthetic_states(batch, 6);

  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t parallel_threads = std::max<std::size_t>(4, hardware);

  const std::size_t reps = vn2::bench_support::bench_reps();
  std::vector<double> serial_samples, parallel_samples, speedup_samples;
  // Per-case RSS windows: each sampler covers every rep of its case.
  vn2::telemetry::ResourceSampler serial_sampler, parallel_sampler;
  bool identical = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    vn2::core::set_num_threads(1);
    // vn2-lint: allow(nondeterminism-clock)
    auto start = std::chrono::steady_clock::now();
    serial_sampler.start();
    const auto serial = vn2::core::diagnose_batch(report.model, probes);
    serial_sampler.stop();
    serial_samples.push_back(seconds_since(start));

    vn2::core::set_num_threads(parallel_threads);
    // vn2-lint: allow(nondeterminism-clock)
    start = std::chrono::steady_clock::now();
    parallel_sampler.start();
    const auto parallel = vn2::core::diagnose_batch(report.model, probes);
    parallel_sampler.stop();
    parallel_samples.push_back(seconds_since(start));
    speedup_samples.push_back(parallel_samples.back() > 0.0
                                  ? serial_samples.back() /
                                        parallel_samples.back()
                                  : 0.0);

    if (rep == 0) {
      identical = serial.size() == parallel.size();
      for (std::size_t i = 0; identical && i < serial.size(); ++i) {
        identical = serial[i].residual == parallel[i].residual &&
                    serial[i].weights.size() == parallel[i].weights.size();
        for (std::size_t r = 0; identical && r < serial[i].weights.size();
             ++r)
          identical = serial[i].weights[r] == parallel[i].weights[r];
      }
    }
  }
  vn2::core::set_num_threads(0);

  std::printf("diagnose_batch of %zu states (r=25): serial %.3fs, "
              "%zu threads %.3fs, speedup %.2fx (medians of %zu), "
              "weights %s\n",
              batch, vn2::benchstat::summarize(serial_samples).median,
              parallel_threads,
              vn2::benchstat::summarize(parallel_samples).median,
              vn2::benchstat::summarize(speedup_samples).median, reps,
              identical ? "identical" : "DIVERGED");

  auto record = vn2::bench_support::make_record(
      "diagnose_batch",
      "serial vs parallel diagnose_batch of 2000 states, r=25");
  record.environment.threads = parallel_threads;
  record.scale = {{"batch", static_cast<double>(batch)},
                  {"rank", 25.0},
                  {"parallel_threads", static_cast<double>(parallel_threads)}};
  record.cases.push_back(
      {"serial",
       {vn2::benchstat::make_metric("seconds", "s", true, false,
                                    serial_samples)},
       vn2::bench_support::case_resources(serial_sampler)});
  record.cases.push_back(
      {"parallel",
       {vn2::benchstat::make_metric("seconds", "s", true, false,
                                    parallel_samples)},
       vn2::bench_support::case_resources(parallel_sampler)});
  // Core-count-dependent, therefore informational rather than gated.
  record.cases.push_back(
      {"parallel_vs_serial",
       {vn2::benchstat::make_metric("speedup", "x", false, false,
                                    speedup_samples)}});
  record.checks.push_back({"diagnose_batch_bit_identical", identical});
  vn2::bench_support::write_record_file(json_path, record);
}

// Per-backend serial diagnosis: the whole diagnose path (NNLS against Ψᵀ)
// under every kernel backend this build-and-host can run. Diagnosis must
// not depend on which backend ran it: the simd backend stays within 1e-12
// relative of reference on every weight. The JSON header records the
// detected CPU features.
void run_linalg_backend_report(const char* json_path) {
  using vn2::linalg::Backend;
  // The per-backend speedup ratios are gated; the floor keeps each timed
  // phase long enough (hundreds of ms) that the ratio is stable run to
  // run even at quick scale.
  const std::size_t batch = vn2::bench_support::scaled_size(1000, 400);
  const TrainingReport report = trained_model(25);
  const Matrix probes = vn2::testing::synthetic_states(batch, 6);

  vn2::core::set_num_threads(1);
  const std::size_t reps = vn2::bench_support::bench_reps();
  auto run_with = [&](Backend be, std::vector<double>* samples) {
    vn2::linalg::set_backend(be);
    std::vector<vn2::core::Diagnosis> diagnoses;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      // vn2-lint: allow(nondeterminism-clock)
      const auto start = std::chrono::steady_clock::now();
      diagnoses = vn2::core::diagnose_batch(report.model, probes);
      samples->push_back(seconds_since(start));
    }
    return diagnoses;
  };
  std::vector<Backend> backends = {Backend::kReference};
  if (vn2::linalg::simd_available()) backends.push_back(Backend::kSimd);
  std::vector<std::vector<double>> samples(backends.size());
  std::vector<std::vector<vn2::core::Diagnosis>> results;
  for (std::size_t k = 0; k < backends.size(); ++k)
    results.push_back(run_with(backends[k], &samples[k]));
  vn2::core::set_num_threads(0);
  vn2::linalg::set_backend(vn2::linalg::parse_backend("auto").value());

  // Reference row is index 0; simd must stay within the documented
  // relative tolerance of it.
  double max_rel_dev = 0.0;
  for (std::size_t k = 1; k < backends.size(); ++k) {
    for (std::size_t i = 0; i < batch; ++i) {
      const auto& want = results[0][i];
      const auto& got = results[k][i];
      auto dev = [&](double g, double w) {
        return std::abs(g - w) / std::max(1.0, std::abs(w));
      };
      double d = dev(got.residual, want.residual);
      for (std::size_t r = 0; r < want.weights.size(); ++r)
        d = std::max(d, dev(got.weights[r], want.weights[r]));
      max_rel_dev = std::max(max_rel_dev, d);
    }
  }
  const bool within_tolerance = max_rel_dev <= 1e-12;

  auto median_of = [](const std::vector<double>& values) {
    return values.empty() ? 0.0 : vn2::benchstat::summarize(values).median;
  };
  // Rep-paired ratios (same index in both sample sets) cancel shared
  // machine noise, which is what makes these gateable.
  auto ratio_samples = [&](std::size_t fast, std::size_t slow) {
    std::vector<double> out;
    const std::size_t n =
        std::min(samples[fast].size(), samples[slow].size());
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(samples[fast][i] > 0.0
                        ? samples[slow][i] / samples[fast][i]
                        : 0.0);
    return out;
  };
  for (std::size_t k = 0; k < backends.size(); ++k) {
    const char* name = vn2::linalg::backend_name(backends[k]);
    std::printf("diagnose_batch of %zu states (r=25, 1 thread): %-9s %.3fs"
                " (%.2fx vs reference, medians of %zu)\n",
                batch, name, median_of(samples[k]),
                median_of(samples[k]) > 0.0
                    ? median_of(samples[0]) / median_of(samples[k])
                    : 0.0,
                reps);
  }
  std::printf("diagnose_batch backends [cpu %s]: max relative weight "
              "deviation %.3e (%s 1e-12)\n",
              vn2::linalg::cpu_features_summary().c_str(), max_rel_dev,
              within_tolerance ? "within" : "EXCEEDS");

  auto record = vn2::bench_support::make_record(
      "diagnose_batch_backends",
      "serial diagnose_batch of 1000 states, r=25, per compiled backend");
  record.environment.threads = 1;
  record.scale = {{"batch", static_cast<double>(batch)},
                  {"rank", 25.0},
                  {"backends", static_cast<double>(backends.size())}};
  for (std::size_t k = 0; k < backends.size(); ++k)
    record.cases.push_back(
        {std::string(vn2::linalg::backend_name(backends[k])),
         {vn2::benchstat::make_metric("seconds", "s", true, false,
                                      samples[k])}});
  vn2::benchstat::Case ratios{"ratios", {}};
  for (std::size_t k = 1; k < backends.size(); ++k) {
    const std::string name = vn2::linalg::backend_name(backends[k]);
    ratios.metrics.push_back(vn2::benchstat::make_metric(
        name + "_speedup_over_reference", "x", false, true,
        ratio_samples(k, 0)));
  }
  record.cases.push_back(std::move(ratios));
  record.checks.push_back({"within_parity_tolerance", within_tolerance});
  vn2::bench_support::write_record_file(json_path, record);
}

// One-shot diagnose_batch vs chunked diagnose_stream on a sink-scale state
// stream: the streaming path must match per state bit-for-bit while holding
// peak memory to one batch and amortizing NNLS workspace setup. Both runs
// use the same thread budget, so the delta isolates the streaming overhead
// (or gain, from workspace reuse).
void run_stream_report(const char* json_path) {
  const std::size_t total = vn2::bench_support::scaled_size(20000, 2000);
  const TrainingReport report = trained_model(25);
  const Matrix probes = vn2::testing::synthetic_states(total, 6);

  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t threads = std::max<std::size_t>(4, hardware);
  vn2::core::set_num_threads(threads);

  vn2::core::StreamOptions options;
  options.batch_size = 2048;
  const std::size_t reps = vn2::bench_support::bench_reps();
  std::vector<double> batch_samples, stream_samples, speedup_samples;
  // The RSS series is the point of this comparison: streaming should
  // plateau at one batch while one-shot grows with the whole stream.
  vn2::telemetry::ResourceSampler batch_sampler, stream_sampler;
  bool identical = true;
  std::size_t batches = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // vn2-lint: allow(nondeterminism-clock)
    auto start = std::chrono::steady_clock::now();
    batch_sampler.start();
    const auto one_shot = vn2::core::diagnose_batch(report.model, probes);
    batch_sampler.stop();
    batch_samples.push_back(seconds_since(start));

    std::vector<vn2::core::Diagnosis> streamed;
    streamed.reserve(total);
    // vn2-lint: allow(nondeterminism-clock)
    start = std::chrono::steady_clock::now();
    stream_sampler.start();
    const auto stream_report = vn2::core::diagnose_stream(
        report.model, probes, options,
        [&](std::size_t, const std::vector<vn2::core::Diagnosis>& chunk) {
          streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        });
    stream_sampler.stop();
    stream_samples.push_back(seconds_since(start));
    speedup_samples.push_back(stream_samples.back() > 0.0
                                  ? batch_samples.back() /
                                        stream_samples.back()
                                  : 0.0);

    if (rep == 0) {
      batches = stream_report.batches;
      identical = one_shot.size() == streamed.size();
      for (std::size_t i = 0; identical && i < one_shot.size(); ++i) {
        identical = one_shot[i].residual == streamed[i].residual &&
                    one_shot[i].weights.size() == streamed[i].weights.size();
        for (std::size_t r = 0; identical && r < one_shot[i].weights.size();
             ++r)
          identical = one_shot[i].weights[r] == streamed[i].weights[r];
      }
    }
  }
  vn2::core::set_num_threads(0);

  const double batch_median =
      vn2::benchstat::summarize(batch_samples).median;
  const double stream_median =
      vn2::benchstat::summarize(stream_samples).median;
  std::printf("diagnose_stream of %zu states (r=25, %zu threads, batches of "
              "%zu): one-shot %.3fs (%.0f/s), stream %.3fs (%.0f/s), "
              "%.2fx (medians of %zu), %zu batches, outputs %s\n",
              total, threads, options.batch_size, batch_median,
              batch_median > 0.0 ? total / batch_median : 0.0, stream_median,
              stream_median > 0.0 ? total / stream_median : 0.0,
              vn2::benchstat::summarize(speedup_samples).median, reps,
              batches, identical ? "identical" : "DIVERGED");

  auto record = vn2::bench_support::make_record(
      "diagnose_stream",
      "one-shot diagnose_batch vs chunked diagnose_stream over a "
      "sink-scale state stream, r=25");
  record.environment.threads = threads;
  record.scale = {{"states", static_cast<double>(total)},
                  {"rank", 25.0},
                  {"threads", static_cast<double>(threads)},
                  {"batch_size", static_cast<double>(options.batch_size)},
                  {"batches", static_cast<double>(batches)}};
  record.cases.push_back(
      {"diagnose_batch",
       {vn2::benchstat::make_metric("seconds", "s", true, false,
                                    batch_samples)},
       vn2::bench_support::case_resources(batch_sampler)});
  record.cases.push_back(
      {"diagnose_stream",
       {vn2::benchstat::make_metric("seconds", "s", true, false,
                                    stream_samples)},
       vn2::bench_support::case_resources(stream_sampler)});
  // Both paths share the thread budget, so their ratio is core-count
  // independent and safe to gate.
  record.cases.push_back(
      {"stream_vs_batch",
       {vn2::benchstat::make_metric("stream_speedup", "x", false, true,
                                    speedup_samples)}});
  record.checks.push_back({"diagnose_stream_bit_identical", identical});
  vn2::bench_support::write_record_file(json_path, record);
}

}  // namespace

int main(int argc, char** argv) {
  bool skip_report = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip-parallel-report") == 0) {
      skip_report = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!skip_report) {
    run_parallel_report("BENCH_parallel_inference.json");
    run_linalg_backend_report("BENCH_linalg_inference.json");
    run_stream_report("BENCH_inference_stream.json");
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
