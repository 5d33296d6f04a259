// Micro-benchmarks: NMF training cost — per-iteration multiplicative update
// and full factorization, across state counts and compression factors.
//
// Before the google-benchmark suites run, a serial-vs-parallel rank-sweep
// comparison executes on a CitySee-scale exceptions matrix and writes its
// wall-clock numbers (plus a bit-identical-output check on choose_rank) to
// BENCH_parallel.json, so the parallel layer's speedup is tracked across
// PRs. Skip it with --skip-parallel-report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.hpp"
#include "benchstat/record.hpp"
#include "core/parallel.hpp"
#include "linalg/cpu_features.hpp"
#include "linalg/kernels.hpp"
#include "linalg/nnls.hpp"
#include "linalg/random.hpp"
#include "nmf/nmf.hpp"
#include "nmf/rank_selection.hpp"
#include "nmf/sparsify.hpp"
#include "telemetry_support.hpp"

namespace {

using vn2::linalg::Matrix;

Matrix exceptions_like(std::size_t n, std::size_t m, std::uint64_t seed) {
  // Non-negative, mostly-small entries with occasional spikes — the texture
  // of an encoded exceptions matrix.
  Matrix e = vn2::linalg::random_uniform_matrix(n, m, seed, 0.0, 0.5);
  std::mt19937_64 rng(seed + 1);
  std::uniform_int_distribution<std::size_t> idx(0, e.size() - 1);
  for (std::size_t k = 0; k < e.size() / 20; ++k) e.data()[idx(rng)] = 8.0;
  return e;
}

void BM_MultiplicativeUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const std::size_t m = 86;  // Encoded metric space.
  const Matrix e = exceptions_like(n, m, 7);
  Matrix w = vn2::linalg::random_uniform_matrix(n, r, 8, 0.05, 1.0);
  Matrix psi = vn2::linalg::random_uniform_matrix(r, m, 9, 0.05, 1.0);
  for (auto _ : state) {
    vn2::nmf::multiplicative_update(e, w, psi);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MultiplicativeUpdate)
    ->Args({200, 10})
    ->Args({1000, 10})
    ->Args({1000, 25})
    ->Args({5000, 25})
    ->Args({20000, 25})
    ->Args({5000, 40});

void BM_FullFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto r = static_cast<std::size_t>(state.range(1));
  const Matrix e = exceptions_like(n, 86, 11);
  vn2::nmf::NmfOptions options;
  options.max_iterations = 100;
  options.relative_tolerance = 0.0;  // Fixed work for comparability.
  options.record_objective = false;
  for (auto _ : state) {
    auto result = vn2::nmf::factorize(e, r, options);
    benchmark::DoNotOptimize(result.psi.data());
  }
}
BENCHMARK(BM_FullFactorization)
    ->Args({500, 10})
    ->Args({2000, 25})
    ->Unit(benchmark::kMillisecond);

void BM_Sparsify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix w = vn2::linalg::random_uniform_matrix(n, 25, 3, 0.0, 1.0);
  for (auto _ : state) {
    auto result = vn2::nmf::sparsify(w);
    benchmark::DoNotOptimize(result.w_sparse.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 25);
}
BENCHMARK(BM_Sparsify)->Arg(1000)->Arg(20000);

// Full rank sweep at a fixed thread budget — lets `--benchmark_filter` pit
// thread counts against each other on any machine.
void BM_RankSweepThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Matrix e = exceptions_like(1000, 86, 7);
  const std::vector<std::size_t> ranks = {5, 10, 15, 20, 25, 30};
  vn2::nmf::RankSweepOptions options;
  options.nmf.max_iterations = 30;
  options.nmf.relative_tolerance = 0.0;
  options.nmf.record_objective = false;
  vn2::core::set_num_threads(threads);
  for (auto _ : state) {
    auto sweep = vn2::nmf::rank_sweep(e, ranks, options);
    benchmark::DoNotOptimize(sweep.data());
  }
  vn2::core::set_num_threads(0);
}
BENCHMARK(BM_RankSweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

double seconds_since(std::chrono::steady_clock::time_point start) {
  // vn2-lint: allow(nondeterminism-clock)
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Serial-vs-parallel rank sweep on a CitySee-scale exceptions matrix. The
// sweep must be bit-identical at every thread count; the record carries
// per-rep samples for both configurations plus that check.
void run_parallel_report(const char* json_path) {
  // Row count scales with VN2_BENCH_DAYS (7 = full CitySee scale).
  const std::size_t rows = vn2::bench_support::scaled_size(2000, 200);
  const std::size_t cols = 86;
  const Matrix e = exceptions_like(rows, cols, 7);
  const std::vector<std::size_t> ranks = {5, 10, 15, 20, 25, 30};
  vn2::nmf::RankSweepOptions options;
  options.nmf.max_iterations = 60;
  options.nmf.relative_tolerance = 0.0;  // Fixed work for comparability.
  options.nmf.record_objective = false;

  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t parallel_threads = std::max<std::size_t>(4, hardware);
  const std::size_t reps = vn2::bench_support::bench_reps();

  std::vector<double> serial_samples, parallel_samples, speedup_samples;
  // Per-case RSS windows: each sampler covers every rep of its case.
  vn2::telemetry::ResourceSampler serial_sampler, parallel_sampler;
  bool identical = true;
  std::size_t chosen_rank = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    vn2::core::set_num_threads(1);
    // vn2-lint: allow(nondeterminism-clock)
    auto start = std::chrono::steady_clock::now();
    serial_sampler.start();
    const auto serial_sweep = vn2::nmf::rank_sweep(e, ranks, options);
    serial_sampler.stop();
    serial_samples.push_back(seconds_since(start));
    const auto serial_choice = vn2::nmf::choose_rank(serial_sweep);

    vn2::core::set_num_threads(parallel_threads);
    // vn2-lint: allow(nondeterminism-clock)
    start = std::chrono::steady_clock::now();
    parallel_sampler.start();
    const auto parallel_sweep = vn2::nmf::rank_sweep(e, ranks, options);
    parallel_sampler.stop();
    parallel_samples.push_back(seconds_since(start));
    const auto parallel_choice = vn2::nmf::choose_rank(parallel_sweep);
    speedup_samples.push_back(parallel_samples.back() > 0.0
                                  ? serial_samples.back() /
                                        parallel_samples.back()
                                  : 0.0);

    // The bit-identity check is deterministic; one rep suffices.
    if (rep == 0) {
      chosen_rank = parallel_choice.rank;
      identical = serial_sweep.size() == parallel_sweep.size() &&
                  serial_choice.rank == parallel_choice.rank &&
                  serial_choice.sweep_index == parallel_choice.sweep_index;
      for (std::size_t i = 0; identical && i < serial_sweep.size(); ++i)
        identical = serial_sweep[i].rank == parallel_sweep[i].rank &&
                    serial_sweep[i].accuracy_original ==
                        parallel_sweep[i].accuracy_original &&
                    serial_sweep[i].accuracy_sparse ==
                        parallel_sweep[i].accuracy_sparse;
    }
  }
  vn2::core::set_num_threads(0);

  const double serial_median =
      vn2::benchstat::summarize(serial_samples).median;
  const double parallel_median =
      vn2::benchstat::summarize(parallel_samples).median;
  const double speedup_median =
      vn2::benchstat::summarize(speedup_samples).median;
  std::printf("rank_sweep %zux%zu over ranks {5,10,15,20,25,30}: "
              "serial %.2fs, %zu threads %.2fs, speedup %.2fx "
              "(medians of %zu), choose_rank %s (r=%zu)\n",
              rows, cols, serial_median, parallel_threads, parallel_median,
              speedup_median, reps, identical ? "identical" : "DIVERGED",
              chosen_rank);

  auto record = vn2::bench_support::make_record(
      "rank_sweep",
      "serial vs parallel rank_sweep over ranks {5,10,15,20,25,30}, "
      "60 NMF iterations");
  record.environment.threads = parallel_threads;
  record.scale = {{"rows", static_cast<double>(rows)},
                  {"cols", static_cast<double>(cols)},
                  {"ranks", static_cast<double>(ranks.size())},
                  {"nmf_iterations",
                   static_cast<double>(options.nmf.max_iterations)},
                  {"parallel_threads", static_cast<double>(parallel_threads)},
                  {"chosen_rank", static_cast<double>(chosen_rank)}};
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
  // Core-count-dependent, so informational rather than gated: a 4-core CI
  // runner must not fail a baseline recorded on 16 cores.
  record.cases.push_back(
      {"parallel_vs_serial",
       {vn2::benchstat::make_metric("speedup", "x", false, false,
                                    speedup_samples)}});
  record.checks.push_back({"rank_sweep_bit_identical", identical});
  vn2::bench_support::write_record_file(json_path, record);
}

// Kernel backends head-to-head on the two linalg hot paths: a CitySee-scale
// NMF factorization (GEMM-bound) and a batch of NNLS solves (SYRK/GEMV-
// bound), at 1 thread and at the parallel budget, one row per backend this
// build-and-host combination can actually run. Each backend's objective
// must be bit-identical at 1 thread and at the parallel budget, and the
// simd backend is held to the documented ≤1e-12 relative parity with
// reference. The JSON header records the detected CPU features so rows
// from different machines stay comparable.
void run_linalg_backend_report(const char* json_path) {
  using vn2::linalg::Backend;
  // The backend speedup ratios are gated; the floor keeps each factorize
  // long enough that the ratio stays stable run to run at quick scale.
  const std::size_t fac_rows = vn2::bench_support::scaled_size(2000, 500);
  const Matrix e = exceptions_like(fac_rows, 86, 7);
  vn2::nmf::NmfOptions options;
  options.max_iterations = 60;
  options.relative_tolerance = 0.0;  // Fixed work for comparability.
  options.record_objective = false;

  const std::size_t reps = vn2::bench_support::bench_reps();
  auto time_factorize = [&](Backend be, std::size_t threads,
                            std::vector<double>* samples, double* objective) {
    vn2::linalg::set_backend(be);
    vn2::core::set_num_threads(threads);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t t0 = vn2::telemetry::monotonic_ns();
      auto result = vn2::nmf::factorize(e, 25, options);
      samples->push_back(
          static_cast<double>(vn2::telemetry::monotonic_ns() - t0) / 1e9);
      *objective = result.approximation_accuracy(e);
      benchmark::DoNotOptimize(result.psi.data());
    }
  };

  // NNLS: diagnose-shaped solves against A = Ψᵀ (86×25) — the SYRK/GEMV
  // path. Serial: each solve is small; this isolates kernel cost.
  const Matrix psi_t =
      vn2::linalg::random_uniform_matrix(86, 25, 13, 0.05, 1.0);
  const std::size_t nnls_batch = 400;
  auto time_nnls = [&](Backend be, std::vector<double>* samples,
                       double* checksum) {
    vn2::linalg::set_backend(be);
    vn2::core::set_num_threads(1);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      double acc = 0.0;
      const std::uint64_t t0 = vn2::telemetry::monotonic_ns();
      for (std::size_t i = 0; i < nnls_batch; ++i) {
        const auto b = vn2::linalg::random_uniform_vector(86, 100 + i,
                                                          0.0, 4.0);
        const auto solution = vn2::linalg::nnls(psi_t, b);
        acc += solution.residual_norm;
      }
      samples->push_back(
          static_cast<double>(vn2::telemetry::monotonic_ns() - t0) / 1e9);
      *checksum = acc;
    }
  };

  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t parallel_threads = std::max<std::size_t>(8, hardware);

  struct Row {
    Backend backend;
    std::vector<double> fac_1t, fac_mt, nnls_1t;
    double obj_1t = 0.0, obj_mt = 0.0, nnls_sum = 0.0;
  };
  std::vector<Row> rows;
  rows.push_back({Backend::kReference, {}, {}, {}, 0.0, 0.0, 0.0});
  if (vn2::linalg::simd_available())
    rows.push_back({Backend::kSimd, {}, {}, {}, 0.0, 0.0, 0.0});
  // NNLS first, while no pool exists: its per-solve cost is microseconds,
  // so idle multi-thread workers from an earlier phase would swamp it.
  for (Row& row : rows) time_nnls(row.backend, &row.nnls_1t, &row.nnls_sum);
  for (Row& row : rows)
    time_factorize(row.backend, 1, &row.fac_1t, &row.obj_1t);
  for (Row& row : rows)
    time_factorize(row.backend, parallel_threads, &row.fac_mt, &row.obj_mt);
  vn2::core::set_num_threads(0);
  vn2::linalg::set_backend(vn2::linalg::parse_backend("auto").value());

  // Parity: every backend gives the same bits at 1 thread and at the
  // parallel budget, and stays within 1e-12 relative of the reference
  // objective.
  const Row& ref = rows.front();
  bool thread_identical = true;
  double max_rel_dev = 0.0;
  for (const Row& row : rows) {
    thread_identical = thread_identical && row.obj_1t == row.obj_mt;
    auto rel = [](double got, double want) {
      const double scale = std::max(1.0, std::abs(want));
      return std::abs(got - want) / scale;
    };
    max_rel_dev = std::max({max_rel_dev, rel(row.obj_1t, ref.obj_1t),
                            rel(row.obj_mt, ref.obj_mt),
                            rel(row.nnls_sum, ref.nnls_sum)});
  }
  const bool within_tolerance = max_rel_dev <= 1e-12;

  // Per-rep speedup samples: pairing rep i of the slow backend with rep i
  // of the fast one keeps shared machine noise (thermal drift, neighbours)
  // out of the ratio, which is what makes these metrics gateable across
  // runs on the same host class.
  auto find_row = [&](Backend be) -> const Row* {
    for (const Row& row : rows)
      if (row.backend == be) return &row;
    return nullptr;
  };
  auto speedup_samples = [&](Backend fast, Backend slow,
                             std::vector<double> Row::*field) {
    const Row* f = find_row(fast);
    const Row* s = find_row(slow);
    std::vector<double> out;
    if (f == nullptr || s == nullptr) return out;
    const std::size_t n = std::min((*f.*field).size(), (*s.*field).size());
    for (std::size_t i = 0; i < n; ++i)
      out.push_back((*f.*field)[i] > 0.0 ? (*s.*field)[i] / (*f.*field)[i]
                                         : 0.0);
    return out;
  };
  auto median_of = [](const std::vector<double>& samples) {
    return samples.empty() ? 0.0 : vn2::benchstat::summarize(samples).median;
  };
  const std::vector<double> simd_fac_speedup =
      speedup_samples(Backend::kSimd, Backend::kReference, &Row::fac_1t);
  const std::vector<double> simd_nnls_speedup =
      speedup_samples(Backend::kSimd, Backend::kReference, &Row::nnls_1t);

  for (const Row& row : rows)
    std::printf("linalg backend %-9s factorize %zux86 r=25 (60 iters): "
                "%.3fs @1t, %.3fs @%zut; nnls 86x25 x%zu: %.3fs "
                "(medians of %zu)\n",
                vn2::linalg::backend_name(row.backend), fac_rows,
                median_of(row.fac_1t), median_of(row.fac_mt),
                parallel_threads, nnls_batch, median_of(row.nnls_1t), reps);
  std::printf("linalg backends [cpu %s]: simd/reference %.2fx @1t "
              "(nnls %.2fx); 1t vs %zut outputs %s, max relative deviation "
              "%.3e (%s 1e-12)\n",
              vn2::linalg::cpu_features_summary().c_str(),
              median_of(simd_fac_speedup), median_of(simd_nnls_speedup),
              parallel_threads, thread_identical ? "identical" : "DIVERGED",
              max_rel_dev, within_tolerance ? "within" : "EXCEEDS");

  auto record = vn2::bench_support::make_record(
      "linalg_backends",
      "CitySee-scale factorize r=25 (60 iterations) and nnls 86x25 x400, "
      "per compiled backend");
  record.environment.threads = parallel_threads;
  record.scale = {{"rows", static_cast<double>(fac_rows)},
                  {"cols", 86.0},
                  {"rank", 25.0},
                  {"nmf_iterations", 60.0},
                  {"nnls_batch", static_cast<double>(nnls_batch)},
                  {"parallel_threads", static_cast<double>(parallel_threads)},
                  {"backends", static_cast<double>(rows.size())}};
  for (const Row& row : rows) {
    const std::string name = vn2::linalg::backend_name(row.backend);
    record.cases.push_back(
        {"factorize/" + name,
         {vn2::benchstat::make_metric("seconds_1t", "s", true, false,
                                      row.fac_1t),
          vn2::benchstat::make_metric("seconds_mt", "s", true, false,
                                      row.fac_mt)}});
    record.cases.push_back(
        {"nnls/" + name,
         {vn2::benchstat::make_metric("seconds", "s", true, false,
                                      row.nnls_1t)}});
  }
  // The gated metrics are same-machine ratios — core-count and absolute
  // CPU speed cancel out, so a baseline survives runner changes within a
  // host class. Absolute seconds above stay informational.
  vn2::benchstat::Case ratios{"ratios", {}};
  if (!simd_fac_speedup.empty())
    ratios.metrics.push_back(vn2::benchstat::make_metric(
        "simd_speedup_1t", "x", false, true, simd_fac_speedup));
  if (!simd_nnls_speedup.empty())
    ratios.metrics.push_back(vn2::benchstat::make_metric(
        "nnls_simd_speedup", "x", false, true, simd_nnls_speedup));
  record.cases.push_back(std::move(ratios));
  record.checks.push_back({"bit_identical_across_threads", thread_identical});
  record.checks.push_back({"within_parity_tolerance", within_tolerance});
  vn2::bench_support::write_record_file(json_path, record);
}

// Telemetry overhead on a fixed factorization workload: the same run with
// collection paused (one relaxed atomic load per macro) vs collecting.
// The <3% budget is the acceptance bar for keeping instrumentation always
// on; a VN2_TELEMETRY=OFF build removes even the paused-path load.
void run_telemetry_report(const char* json_path) {
  const std::size_t fac_rows = vn2::bench_support::scaled_size(2000, 200);
  const Matrix e = exceptions_like(fac_rows, 86, 7);
  vn2::nmf::NmfOptions options;
  options.max_iterations = 60;
  options.relative_tolerance = 0.0;  // Fixed work for comparability.
  options.record_objective = false;

  // Serial: isolates macro cost from pool scheduling noise.
  vn2::core::set_num_threads(1);
  auto run_once = [&]() {
    const std::uint64_t t0 = vn2::telemetry::monotonic_ns();
    auto result = vn2::nmf::factorize(e, 25, options);
    benchmark::DoNotOptimize(result.psi.data());
    return static_cast<double>(vn2::telemetry::monotonic_ns() - t0) / 1e9;
  };
  run_once();  // Warm-up: page in the matrices, grow the registry.

  const std::size_t reps = vn2::bench_support::bench_reps();
  std::vector<double> paused_samples, collecting_samples, ratio_samples;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    vn2::telemetry::set_collecting(false);
    paused_samples.push_back(run_once());
    vn2::telemetry::set_collecting(true);
    collecting_samples.push_back(run_once());
    ratio_samples.push_back(paused_samples.back() > 0.0
                                ? collecting_samples.back() /
                                      paused_samples.back()
                                : 1.0);
  }
  vn2::core::set_num_threads(0);

  const double paused_median =
      vn2::benchstat::summarize(paused_samples).median;
  const double collecting_median =
      vn2::benchstat::summarize(collecting_samples).median;
  const double overhead_percent =
      paused_median > 0.0
          ? (collecting_median - paused_median) / paused_median * 100.0
          : 0.0;
  // The budget check uses the best rep's ratio: scheduler noise only ever
  // inflates a rep, so min-over-reps isolates the real instrumentation
  // cost, while a genuine hot-path regression inflates every rep, the
  // minimum included.
  const double best_overhead_percent =
      (vn2::benchstat::summarize(ratio_samples).min - 1.0) * 100.0;
  std::printf("telemetry overhead on factorize %zux86 r=25 (60 iters): "
              "paused %.3fs, collecting %.3fs, %.2f%% median / %.2f%% best "
              "(%zu reps, budget <3%% best-case)%s\n",
              fac_rows, paused_median, collecting_median, overhead_percent,
              best_overhead_percent, reps,
              vn2::telemetry::kCompiledIn ? "" : " [compiled out]");

  auto record = vn2::bench_support::make_record(
      "telemetry_overhead",
      "CitySee-scale factorize r=25 (60 iterations), collection paused vs "
      "collecting, serial");
  record.environment.threads = 1;
  record.scale = {{"rows", static_cast<double>(fac_rows)},
                  {"cols", 86.0},
                  {"rank", 25.0},
                  {"nmf_iterations", 60.0}};
  record.cases.push_back(
      {"paused",
       {vn2::benchstat::make_metric("seconds", "s", true, false,
                                    paused_samples)}});
  record.cases.push_back(
      {"collecting",
       {vn2::benchstat::make_metric("seconds", "s", true, false,
                                    collecting_samples)}});
  // The gated quantity is the per-rep ratio, not overhead_percent: a pure
  // ratio keeps the relative-delta floor meaningful near zero overhead.
  record.cases.push_back(
      {"overhead",
       {vn2::benchstat::make_metric("collecting_over_paused", "x", true, true,
                                    ratio_samples)}});
  record.checks.push_back({"within_budget", best_overhead_percent < 3.0});
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
    run_parallel_report("BENCH_parallel.json");
    run_linalg_backend_report("BENCH_linalg.json");
    run_telemetry_report("BENCH_telemetry.json");
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
