// vn2bench: the VN2 end-to-end benchmark.
//
//   vn2bench --workload simulate|train|diagnose --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--smoke] [--corrupt]
//            [--git-sha SHA]
//
// Builds the workload's inputs from --seed (set-up, timed at least three
// times),
// then repeats the workload's job until --seconds have passed, checking
// every output of every repetition. The library's own instrumentation is
// off while timing. With --trace 1 half of the time runs untraced and half
// traced, and the per-layer numbers come from the traced half. Human-
// readable lines come first; the last line is `result {json}` with every
// metric this workload knows, which perfbench/run.py filters down to the
// ones BENCHMARK.json declares. README.md says why each workload exists
// and which end-to-end number each layer metric should move.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/evaluation.hpp"
#include "core/incident.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/parallel.hpp"
#include "core/vn2.hpp"
#include "linalg/cpu_features.hpp"
#include "linalg/kernels.hpp"
#include "nmf/nmf.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/csv.hpp"
#include "trace/trace.hpp"

namespace {

using namespace vn2;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of a sorted sample (p in [0, 100]).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// FNV-1a, for the output digests (not gated; compared across commits).
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void number(double v) { bytes(&v, sizeof v); }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t file_digest(const std::string& path) {
  Digest d;
  d.text(read_file(path));
  return d.value();
}

// ---------------------------------------------------------------------------
// Options and scale.

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Flips one NNLS weight negative before the diagnose checks run, so the
  /// smoke test can prove a bad output is counted as a failed check.
  bool corrupt = false;
  std::string work_dir;
  std::string git_sha = "unknown";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
    else if (arg == "--work-dir") o.work_dir = value();
    else if (arg == "--git-sha") o.git_sha = value();
    else if (arg == "--smoke") o.smoke = true;
    else if (arg == "--corrupt") o.corrupt = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.workload != "simulate" && o.workload != "train" &&
      o.workload != "diagnose")
    throw std::invalid_argument(
        "--workload must be simulate, train or diagnose");
  if (o.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// Input sizes. The full scale is CitySee (286 nodes, 500 m, 10-minute
/// reports). Each workload takes several independent runs of the
/// deployment from one seed: their totals vary less from seed to seed than
/// one run does. --smoke keeps the node density and shrinks nodes, days
/// and runs so every workload finishes in seconds.
struct Scale {
  std::size_t nodes = 286;
  double area_m = 500.0;
  std::size_t simulate_networks = 4;
  double simulate_days = 0.5;
  std::size_t train_networks = 2;
  double train_days = 3.0;  ///< Enough for thousands of exception rows.
  std::size_t diagnose_networks = 4;
  double fresh_days = 3.0;  ///< The shortest episode run the scenario allows.
};

Scale scale_for(const Options& o) {
  if (!o.smoke) return {};
  Scale s;
  s.nodes = 60;
  s.area_m = 500.0 * std::sqrt(60.0 / 286.0);
  s.simulate_networks = 2;
  s.simulate_days = 0.25;
  s.train_days = 1.0;
  s.diagnose_networks = 2;
  return s;
}

/// Seed of run k of the deployment; run 0 uses the benchmark's seed itself.
std::uint64_t network_seed(std::uint64_t seed, std::size_t k) {
  return seed ^ (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL);
}

scenario::CityseeParams citysee_params(const Scale& scale, double days,
                                       std::uint64_t seed) {
  scenario::CityseeParams p;
  p.node_count = scale.nodes;
  p.area_m = scale.area_m;
  p.days = days;
  p.seed = seed;
  return p;
}

/// Every workload runs on one deployment: the CitySee layout of seed 7,
/// the CLI default. A run's seed draws what changes from one week to the
/// next: the radio, the ambient hazards and the fault episodes. Layouts
/// differ in cost by 15-30%, and a model trained on another layout in
/// per-state NNLS cost by up to a quarter, which would bury a code change
/// under the seed.
constexpr std::uint64_t kDeploymentSeed = 7;

scenario::ScenarioBundle on_deployment(scenario::ScenarioBundle bundle,
                                       const Scale& scale) {
  // The layout is drawn first and does not depend on the run length.
  bundle.config.positions =
      scenario::citysee_field(citysee_params(scale, 1.0, kDeploymentSeed))
          .config.positions;
  return bundle;
}

/// The thread budget: the CPUs this process may run on (what `nproc`
/// prints), not the machine's total.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Checks, metrics and the per-repetition measurement window.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::printf("check failed: %s\n", what.c_str());
    }
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric with its unit. Each workload reports all of them;
/// a layer a workload does not run reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"wsn.run_s", "s"},
    {"wsn.events", "count"},
    {"wsn.events_per_s", "1/s"},
    {"wsn.sink_packets", "count"},
    {"trace.build_s", "s"},
    {"trace.snapshots", "count"},
    {"trace.csv_write_s", "s"},
    {"trace.csv_mib", "MiB"},
    {"trace.csv_read_s", "s"},
    {"trace.extract_s", "s"},
    {"trace.states", "count"},
    {"trace.states_matrix_s", "s"},
    {"model.train_s", "s"},
    {"model.exception_states", "count"},
    {"model.exception_frac", "frac"},
    {"model.save_s", "s"},
    {"model.load_s", "s"},
    {"nmf.rank_sweep_s", "s"},
    {"nmf.factorize_s", "s"},
    {"nmf.factorize_sum_s", "s"},
    {"nmf.sweep_speedup", "x"},
    {"nmf.iterations", "count"},
    {"nmf.chosen_rank", "count"},
    {"nnls.solves", "count"},
    {"nnls.pivots_per_solve", "count"},
    {"nnls.workspace_reallocs", "count"},
    {"nnls.alloc_mib", "MiB"},
    {"inference.batch_s", "s"},
    {"inference.us_per_state", "us"},
    {"inference.stream_s", "s"},
    {"inference.exception_frac", "frac"},
    {"incident.aggregate_s", "s"},
    {"incident.count", "count"},
    {"evaluation.s", "s"},
    {"parallel.regions", "count"},
    {"parallel.regions_inline", "count"},
    {"parallel.tasks", "count"},
    {"parallel.worker_busy_frac", "frac"},
    {"tracing.overhead_frac", "frac"},
    {"tracing.unattributed_frac", "frac"},
};

/// Workload outcomes that are not layer numbers: the figures a user of
/// each job reads. They are reported with the layer metrics, 0 where the
/// workload does not produce them.
const std::vector<std::pair<const char*, const char*>> kOutcomeMetrics = {
    {"simulate_s", "s"},
    {"train_s", "s"},
    {"train_rel_residual", "frac"},
    {"diagnose_states_per_s", "states/s"},
    {"explain_p50_us", "us"},
    {"explain_p99_us", "us"},
    {"explain.samples", "count"},
    {"hazard_recall", "frac"},
    {"hazard_precision", "frac"},
    {"failed_frac", "frac"},
};

/// Returns freed heap to the system and resets the RSS high-water mark to
/// the current RSS. False where the kernel offers no reset; peak RSS is
/// then the process's.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double file_mib(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) /
         (1024.0 * 1024.0);
}

/// What one repetition measured.
struct Rep {
  double job_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  /// Peak RSS over the size of the trace CSV the job wrote or read.
  double rss_per_csv_mib = 0.0;
  /// Units of work the job did, the base of items_per_s and
  /// cpu_us_per_item: node reports simulated, exception states trained
  /// on, or states diagnosed.
  double items = 0.0;
  Metrics outcome;                   ///< Values named in kOutcomeMetrics.
  telemetry::Snapshot job_snapshot;  ///< Library telemetry of the job.
  std::uint64_t digest = 0;
};

/// The timed job of one repetition, in one or more sections (one per
/// network). Wall and CPU time add up over the sections. Peak RSS is
/// counted from each section's start, so set-up and earlier sections do
/// not count, and the job reports the median section's. Each section
/// reads or writes one trace CSV; its peak over the CSV's size is the
/// memory the job holds per unit of trace data. Telemetry collects only
/// inside the
/// sections of a traced repetition, so the checks between sections leave
/// the layer numbers alone.
class Job {
 public:
  explicit Job(bool traced) : traced_(traced) {
    telemetry::Registry::global().reset();
  }

  template <class F>
  void section(F&& f) {
    reset_peak_rss();
    const std::uint64_t cpu_start = telemetry::sample_resources().cpu_total_ns();
    telemetry::set_collecting(traced_);
    const Clock::time_point start = Clock::now();
    std::forward<F>(f)();
    wall_s_ += seconds_since(start);
    telemetry::set_collecting(false);
    const telemetry::ResourceUsage usage = telemetry::sample_resources();
    cpu_s_ += static_cast<double>(usage.cpu_total_ns() - cpu_start) / 1e9;
    peak_mib_.push_back(static_cast<double>(usage.peak_rss_bytes) /
                        (1024.0 * 1024.0));
  }

  /// Size of the trace CSV the last section wrote or read.
  void csv(const std::string& path) {
    rss_per_csv_.push_back(peak_mib_.back() / file_mib(path));
  }

  void finish(Rep& rep) const {
    rep.job_s = wall_s_;
    rep.cpu_s = cpu_s_;
    rep.peak_rss_mib = median(peak_mib_);
    rep.rss_per_csv_mib = median(rss_per_csv_);
    rep.job_snapshot = telemetry::Registry::global().snapshot();
  }

 private:
  bool traced_ = false;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  std::vector<double> peak_mib_;
  std::vector<double> rss_per_csv_;
};

/// Wraps one public library call of a job in a benchmark span. Spans only
/// record while telemetry collects, i.e. inside the job of a traced
/// repetition; set-up and checks are not traced.
template <class F>
decltype(auto) span(const char* name, F&& f) {
  telemetry::ScopedSpan scoped(name);
  return std::forward<F>(f)();
}

bool finite_nonnegative(const linalg::Matrix& m) {
  return std::all_of(m.data(), m.data() + m.size(),
                     [](double v) { return std::isfinite(v) && v >= 0.0; });
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_diagnosis(const core::Diagnosis& a, const core::Diagnosis& b) {
  if (a.weights.size() != b.weights.size() || a.ranked.size() != b.ranked.size())
    return false;
  if (std::memcmp(a.weights.data(), b.weights.data(),
                  a.weights.size() * sizeof(double)) != 0)
    return false;
  for (std::size_t i = 0; i < a.ranked.size(); ++i)
    if (a.ranked[i].row != b.ranked[i].row ||
        !same_bits(a.ranked[i].strength, b.ranked[i].strength))
      return false;
  return same_bits(a.residual, b.residual) &&
         same_bits(a.exception_score, b.exception_score) &&
         a.is_exception == b.is_exception;
}

/// Delivered self-reports over originated ones, counting each (node,
/// epoch, packet type) once. trace::overall_prr counts every sink
/// arrival, duplicates included, and can exceed 1.
double distinct_prr(const wsn::SimulationResult& result) {
  if (result.originations.empty()) return 0.0;
  std::vector<std::tuple<wsn::NodeId, std::uint64_t, int>> delivered;
  delivered.reserve(result.sink_log.size());
  for (const wsn::SinkPacketRecord& p : result.sink_log)
    delivered.emplace_back(p.origin, p.epoch, static_cast<int>(p.type));
  std::sort(delivered.begin(), delivered.end());
  delivered.erase(std::unique(delivered.begin(), delivered.end()),
                  delivered.end());
  return static_cast<double>(delivered.size()) /
         static_cast<double>(result.originations.size());
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed. Deterministic: repeated calls give
  /// byte-identical inputs.
  virtual void setup(Checks& checks) = 0;
  /// One repetition: the timed job and the checks of its outputs.
  virtual Rep run(Checks& checks, bool traced) = 0;
};

/// `vn2 simulate`: the simulator, trace assembly and the CSV writer, on
/// several runs one after another. The analysis layers do not run.
class SimulateWorkload final : public Workload {
 public:
  SimulateWorkload(const Options& o, const Scale& s) : scale_(s) {
    for (std::size_t k = 0; k < s.simulate_networks; ++k) {
      params_.push_back(
          citysee_params(s, s.simulate_days, network_seed(o.seed, k)));
      csv_paths_.push_back(o.work_dir + "/simulate" + std::to_string(k) +
                           ".csv");
    }
  }

  void setup(Checks&) override {
    bundles_.clear();
    for (const scenario::CityseeParams& params : params_) {
      bundles_.push_back(on_deployment(scenario::citysee_field(params), scale_));
      const wsn::Simulator sim = bundles_.back().make_simulator();
    }
  }

  Rep run(Checks& checks, bool traced) override {
    Rep rep;
    Job job(traced);
    Digest digest;
    double snapshots = 0.0, csv_mib = 0.0;
    for (std::size_t k = 0; k < bundles_.size(); ++k) {
      const std::string& path = csv_paths_[k];
      // A simulator runs once, and its scheduled events point at it, so it
      // must not move: build this one in place, outside the timed job.
      wsn::Simulator simulator = bundles_[k].make_simulator();
      // Truncating the last repetition's file can wait on its writeback.
      std::filesystem::remove(path);
      wsn::SimulationResult result;
      std::size_t written = 0;
      job.section([&] {
        result = span("wsn.run", [&] { return simulator.run(); });
        const trace::Trace log =
            span("trace.build", [&] { return trace::build_trace(result); });
        span("trace.csv_write", [&] { trace::write_trace_csv_file(path, log); });
        written = log.total_snapshots();
      });
      job.csv(path);

      const trace::Trace back = trace::read_trace_csv_file(path);
      checks.expect(back.total_snapshots() == written,
                    "simulate: CSV reads back with the same snapshot count");
      const double prr = distinct_prr(result);
      checks.expect(prr > 0.0 && prr <= 1.0,
                    "simulate: PRR in (0, 1], got " + std::to_string(prr));
      const wsn::SimConfig& config = bundles_[k].config;
      rep.items += static_cast<double>(config.positions.size()) *
                   std::floor(config.duration / config.report_period);
      snapshots += static_cast<double>(written);
      csv_mib += file_mib(path);
      digest.text(read_file(path));
    }
    job.finish(rep);
    rep.digest = digest.value();
    rep.outcome["simulate_s"] = {rep.job_s, "s"};
    rep.outcome["trace.snapshots"] = {snapshots, "count"};
    rep.outcome["trace.csv_mib"] = {csv_mib, "MiB"};
    return rep;
  }

 private:
  Scale scale_;
  std::vector<scenario::CityseeParams> params_;
  std::vector<std::string> csv_paths_;
  std::vector<scenario::ScenarioBundle> bundles_;
};

/// Simulates `bundle` and writes its trace CSV; returns the ground truth.
std::vector<wsn::InjectedFault> write_trace(
    const scenario::ScenarioBundle& bundle, const std::string& path) {
  wsn::Simulator sim = bundle.make_simulator();
  wsn::SimulationResult result = sim.run();
  trace::write_trace_csv_file(path, trace::build_trace(result));
  return std::move(result.ground_truth);
}

/// `vn2 train`: CSV in, saved model out, on several traces one after
/// another. The rank sweep dominates; NNLS never runs.
class TrainWorkload final : public Workload {
 public:
  TrainWorkload(const Options& o, const Scale& s) : scale_(s) {
    for (std::size_t k = 0; k < s.train_networks; ++k) {
      params_.push_back(citysee_params(s, s.train_days, network_seed(o.seed, k)));
      const std::string stem = o.work_dir + "/train" + std::to_string(k);
      csv_paths_.push_back(stem + ".csv");
      model_paths_.push_back(stem + ".vn2");
    }
  }

  void setup(Checks& checks) override {
    core::parallel_for(0, params_.size(), 1, [&](std::size_t k) {
      write_trace(on_deployment(scenario::citysee_field(params_[k]), scale_),
                  csv_paths_[k]);
    });
    Digest digest;
    for (const std::string& path : csv_paths_) digest.text(read_file(path));
    if (csv_digest_ != 0)
      checks.expect(digest.value() == csv_digest_,
                    "train: set-up writes byte-identical CSVs");
    csv_digest_ = digest.value();
  }

  Rep run(Checks& checks, bool traced) override {
    Rep rep;
    Job job(traced);
    Digest digest;
    const auto n = static_cast<double>(csv_paths_.size());
    double rows = 0.0, residuals = 0.0, ranks = 0.0, csv_mib = 0.0;
    for (std::size_t k = 0; k < csv_paths_.size(); ++k) {
      core::TrainingReport report;
      linalg::Matrix raw;
      job.section([&] {
        const trace::Trace log = span("trace.csv_read", [&] {
          return trace::read_trace_csv_file(csv_paths_[k]);
        });
        const auto states =
            span("trace.extract", [&] { return trace::extract_states(log); });
        raw = span("trace.states_matrix",
                   [&] { return trace::states_matrix(states); });
        report = span("core.train", [&] { return core::train(raw); });
        span("core.save", [&] { report.model.save(model_paths_[k]); });
      });
      job.csv(csv_paths_[k]);

      const std::size_t chosen = report.chosen_rank;
      checks.expect(core::Vn2Model::load(model_paths_[k]) == report.model,
                    "train: saved model reloads equal to the trained one");
      checks.expect(finite_nonnegative(report.model.psi()),
                    "train: psi is finite and non-negative");
      checks.expect(chosen >= 5 && chosen <= 40 && chosen % 5 == 0 &&
                        report.model.rank() == chosen,
                    "train: chosen rank is one of the candidates");
      checks.expect(report.exception_states > 0,
                    "train: more than 0 exception states");

      // ‖E − WΨ‖ / ‖E‖ on the encoded exception rows the final fit saw.
      const linalg::Matrix encoded = report.model.encoder().encode(raw);
      linalg::Matrix e;
      for (std::size_t row : report.detection.exception_rows)
        e.append_row(encoded.row(row));
      const double norm = linalg::frobenius_norm(e);
      const double residual =
          norm > 0.0 ? nmf::approximation_accuracy(e, report.nmf.w,
                                                   report.nmf.psi) /
                           norm
                     : 0.0;
      checks.expect(std::isfinite(residual) && residual > 0.0 && residual < 1.0,
                    "train: relative residual in (0, 1)");

      rep.items += static_cast<double>(report.exception_states);
      rows += static_cast<double>(raw.rows());
      residuals += residual / n;
      ranks += static_cast<double>(chosen) / n;
      csv_mib += file_mib(csv_paths_[k]);
      digest.text(read_file(model_paths_[k]));
    }
    job.finish(rep);
    rep.digest = digest.value();
    rep.outcome["train_s"] = {rep.job_s, "s"};
    rep.outcome["train_rel_residual"] = {residuals, "frac"};
    rep.outcome["trace.states"] = {rows, "count"};
    rep.outcome["model.exception_states"] = {rep.items, "count"};
    rep.outcome["model.exception_frac"] = {rep.items / rows, "frac"};
    rep.outcome["nmf.chosen_rank"] = {ranks, "count"};
    rep.outcome["trace.csv_mib"] = {csv_mib, "MiB"};
    return rep;
  }

 private:
  Scale scale_;
  std::vector<scenario::CityseeParams> params_;
  std::vector<std::string> csv_paths_;
  std::vector<std::string> model_paths_;
  std::uint64_t csv_digest_ = 0;
};

/// `vn2 incidents` on fresh traces, then the live-monitor path on the
/// first: one caller explaining each state in arrival order (closed loop).
/// The model is trained at the paper's r = 25 on the deployment's history
/// at its own seed, the same for every run. NNLS dominates; NMF runs only
/// in set-up.
class DiagnoseWorkload final : public Workload {
 public:
  DiagnoseWorkload(const Options& o, const Scale& s)
      : scale_(s),
        history_(citysee_params(s, s.train_days, kDeploymentSeed)),
        model_path_(o.work_dir + "/diagnose.vn2"),
        corrupt_(o.corrupt) {
    for (std::size_t k = 0; k < s.diagnose_networks; ++k) {
      // The Fig. 6 field study shortened to fresh_days, with the fault
      // episode in its middle third.
      scenario::CityseeEpisodeParams p;
      p.base = citysee_params(s, s.fresh_days, network_seed(o.seed, k + 1));
      p.episode_start = s.fresh_days * 86400.0 / 3.0;
      p.episode_end = 2.0 * s.fresh_days * 86400.0 / 3.0;
      fresh_.push_back(p);
      csv_paths_.push_back(o.work_dir + "/fresh" + std::to_string(k) + ".csv");
    }
  }

  void setup(Checks& checks) override {
    const scenario::ScenarioBundle history = scenario::citysee_field(history_);
    std::vector<scenario::ScenarioBundle> fresh;
    for (const scenario::CityseeEpisodeParams& p : fresh_)
      fresh.push_back(on_deployment(scenario::citysee_with_episode(p), scale_));

    // The simulations are independent; run them side by side. Inside a
    // pool task the training runs serially, which gives the same model as
    // the full pool.
    ground_truth_.assign(fresh.size(), {});
    core::parallel_for(0, fresh.size() + 1, 1, [&](std::size_t i) {
      if (i > 0) {
        ground_truth_[i - 1] = write_trace(fresh[i - 1], csv_paths_[i - 1]);
        return;
      }
      wsn::Simulator sim = history.make_simulator();
      const auto states = trace::extract_states(trace::build_trace(sim.run()));
      core::TrainingOptions options;
      options.rank = 25;  // The paper's r: one factorize, no sweep.
      core::train(trace::states_matrix(states), options).model.save(model_path_);
    });

    Digest digest;
    digest.text(read_file(model_path_));
    for (const std::string& path : csv_paths_) digest.text(read_file(path));
    if (input_digest_ != 0)
      checks.expect(digest.value() == input_digest_,
                    "diagnose: set-up writes byte-identical inputs");
    input_digest_ = digest.value();
  }

  Rep run(Checks& checks, bool traced) override {
    Rep rep;
    Job job(traced);
    Digest digest;
    std::vector<double> latency_us;
    double states_total = 0.0, exceptions = 0.0, incidents_total = 0.0;
    double recall = 0.0, precision = 0.0, stream_s = 0.0, evaluation_s = 0.0;
    double csv_mib = 0.0;
    for (std::size_t k = 0; k < csv_paths_.size(); ++k) {
      std::optional<core::Vn2Tool> tool;
      std::vector<trace::StateVector> states;
      linalg::Matrix raw;
      std::vector<core::Diagnosis> diagnoses;
      std::vector<core::Incident> incidents;
      job.section([&] {
        core::Vn2Model model = span(
            "core.load", [&] { return core::Vn2Model::load(model_path_); });
        tool.emplace(span("core.from_model", [&] {
          return core::Vn2Tool::from_model(std::move(model));
        }));
        const trace::Trace log = span("trace.csv_read", [&] {
          return trace::read_trace_csv_file(csv_paths_[k]);
        });
        states =
            span("trace.extract", [&] { return trace::extract_states(log); });
        raw = span("trace.states_matrix",
                   [&] { return trace::states_matrix(states); });
        diagnoses = span("core.diagnose_states",
                         [&] { return tool->diagnose_states(raw); });
        incidents = span("core.aggregate_incidents", [&] {
          return core::aggregate_incidents(states, diagnoses,
                                           tool->interpretations());
        });
      });
      job.csv(csv_paths_[k]);

      std::atomic<std::size_t> single_mismatches{0};
      if (k == 0) {
        // The live monitor: one caller, each state in arrival order, the
        // next request only after the previous explanation returned.
        std::vector<std::size_t> order(states.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
          return states[a].time < states[b].time;
        });
        latency_us.reserve(order.size());
        for (std::size_t index : order) {
          const Clock::time_point start = Clock::now();
          const core::Vn2Tool::Explanation explanation =
              tool->explain(states[index].delta);
          latency_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count());
          if (!same_diagnosis(explanation.diagnosis, diagnoses[index]))
            ++single_mismatches;
        }
        if (corrupt_ && !diagnoses.empty() && !diagnoses[0].weights.empty())
          diagnoses[0].weights[0] = -1.0;
      } else {
        core::parallel_for(0, states.size(), 256, [&](std::size_t i) {
          if (!same_diagnosis(tool->diagnose_state(states[i].delta),
                              diagnoses[i]))
            ++single_mismatches;
        });
      }
      check_diagnoses(checks, *tool, diagnoses, single_mismatches.load());

      std::size_t stream_mismatches = 0, streamed = 0;
      Clock::time_point start = Clock::now();
      core::diagnose_stream(
          tool->model(), raw, core::StreamOptions{},
          [&](std::size_t first, const std::vector<core::Diagnosis>& batch) {
            for (std::size_t i = 0; i < batch.size(); ++i, ++streamed)
              if (!same_diagnosis(batch[i], diagnoses[first + i]))
                ++stream_mismatches;
          });
      stream_s += seconds_since(start);
      checks.expect(stream_mismatches == 0 && streamed == diagnoses.size(),
                    "diagnose: diagnose_stream matches diagnose_batch bit for "
                    "bit (" + std::to_string(stream_mismatches) + " differ)");

      start = Clock::now();
      const core::EvalReport scores = core::evaluate(
          core::predict_hazards(states, diagnoses, tool->interpretations()),
          ground_truth_[k]);
      evaluation_s += seconds_since(start);
      recall += scores.macro_recall / static_cast<double>(csv_paths_.size());
      precision +=
          scores.macro_precision / static_cast<double>(csv_paths_.size());

      for (const core::Diagnosis& d : diagnoses) {
        digest.bytes(d.weights.data(), d.weights.size() * sizeof(double));
        digest.number(d.residual);
        digest.number(d.exception_score);
        digest.number(d.is_exception ? 1.0 : 0.0);
        if (d.is_exception) ++exceptions;
      }
      for (const core::Incident& incident : incidents)
        digest.text(incident.summary);
      states_total += static_cast<double>(states.size());
      incidents_total += static_cast<double>(incidents.size());
      csv_mib += file_mib(csv_paths_[k]);
    }
    job.finish(rep);
    std::sort(latency_us.begin(), latency_us.end());

    rep.items = states_total;
    rep.digest = digest.value();
    rep.outcome["diagnose_states_per_s"] = {states_total / rep.job_s,
                                            "states/s"};
    rep.outcome["explain_p50_us"] = {percentile(latency_us, 50.0), "us"};
    rep.outcome["explain_p99_us"] = {percentile(latency_us, 99.0), "us"};
    rep.outcome["explain.samples"] = {
        static_cast<double>(latency_us.size()), "count"};
    rep.outcome["hazard_recall"] = {recall, "frac"};
    rep.outcome["hazard_precision"] = {precision, "frac"};
    rep.outcome["trace.states"] = {states_total, "count"};
    rep.outcome["trace.csv_mib"] = {csv_mib, "MiB"};
    rep.outcome["inference.exception_frac"] = {exceptions / states_total,
                                               "frac"};
    rep.outcome["inference.stream_s"] = {stream_s, "s"};
    rep.outcome["incident.count"] = {incidents_total, "count"};
    rep.outcome["evaluation.s"] = {evaluation_s, "s"};
    return rep;
  }

 private:
  static void check_diagnoses(Checks& checks, const core::Vn2Tool& tool,
                              const std::vector<core::Diagnosis>& diagnoses,
                              std::size_t single_mismatches) {
    const core::Vn2Model& model = tool.model();
    std::size_t bad_values = 0, bad_verdicts = 0;
    for (const core::Diagnosis& d : diagnoses) {
      const bool values_ok =
          std::all_of(d.weights.begin(), d.weights.end(),
                      [](double w) { return std::isfinite(w) && w >= 0.0; }) &&
          std::isfinite(d.residual);
      if (!values_ok) ++bad_values;
      const bool rule = model.train_max_score() > 0.0 &&
                        d.exception_score / model.train_max_score() >=
                            model.exception_threshold();
      if (rule != d.is_exception) ++bad_verdicts;
    }
    checks.expect(bad_values == 0,
                  "diagnose: every weight finite and >= 0, every residual "
                  "finite (" + std::to_string(bad_values) + " bad)");
    checks.expect(bad_verdicts == 0,
                  "diagnose: is_exception agrees with the epsilon rule (" +
                      std::to_string(bad_verdicts) + " disagree)");
    checks.expect(single_mismatches == 0,
                  "diagnose: single-state diagnose matches diagnose_batch "
                  "bit for bit (" + std::to_string(single_mismatches) +
                      " differ)");
  }

  Scale scale_;
  scenario::CityseeParams history_;
  std::vector<scenario::CityseeEpisodeParams> fresh_;
  std::string model_path_;
  std::vector<std::string> csv_paths_;
  bool corrupt_ = false;
  std::vector<std::vector<wsn::InjectedFault>> ground_truth_;
  std::uint64_t input_digest_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer numbers from the telemetry of one traced repetition.

double path_s(const telemetry::Snapshot& s, std::string_view path) {
  for (const telemetry::SpanStats& stats : s.path_stats)
    if (stats.name == path) return static_cast<double>(stats.total_ns) / 1e9;
  return 0.0;
}

double counter(const telemetry::Snapshot& s, std::string_view name) {
  return static_cast<double>(s.counter(name));
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

Metrics layer_metrics(const Rep& rep) {
  const telemetry::Snapshot& job = rep.job_snapshot;
  Metrics m;
  auto set = [&](const char* name, double value, const char* unit) {
    m[name] = {value, unit};
  };
  const double wsn_s = path_s(job, "wsn.run");
  const double events = counter(job, "sim.events");
  set("wsn.run_s", wsn_s, "s");
  set("wsn.events", events, "count");
  set("wsn.events_per_s", wsn_s > 0.0 ? events / wsn_s : 0.0, "1/s");
  set("wsn.sink_packets", counter(job, "sim.packets.at_sink"), "count");
  set("trace.build_s", path_s(job, "trace.build"), "s");
  set("trace.csv_write_s", path_s(job, "trace.csv_write"), "s");
  set("trace.csv_read_s", path_s(job, "trace.csv_read"), "s");
  set("trace.extract_s", path_s(job, "trace.extract"), "s");
  set("trace.states_matrix_s", path_s(job, "trace.states_matrix"), "s");
  set("model.train_s", path_s(job, "core.train"), "s");
  set("model.save_s", path_s(job, "core.save"), "s");
  set("model.load_s", path_s(job, "core.load"), "s");

  // The sweep's factorizations run on pool workers under the sweep's path;
  // the final fit at the chosen rank runs directly under vn2.train.
  double sweep_sum = 0.0, final_fit = 0.0;
  for (const telemetry::SpanStats& stats : job.path_stats) {
    if (!ends_with(stats.name, "/nmf.factorize")) continue;
    const double s = static_cast<double>(stats.total_ns) / 1e9;
    if (stats.name.find("/nmf.rank_sweep/") != std::string::npos)
      sweep_sum += s;
    else
      final_fit += s;
  }
  const double sweep = path_s(job, "core.train/vn2.train/nmf.rank_sweep");
  set("nmf.rank_sweep_s", sweep, "s");
  set("nmf.factorize_s", final_fit, "s");
  set("nmf.factorize_sum_s", sweep_sum, "s");
  set("nmf.sweep_speedup", sweep > 0.0 ? sweep_sum / sweep : 0.0, "x");
  set("nmf.iterations", counter(job, "nmf.iterations"), "count");

  const double solves = counter(job, "nnls.solves");
  set("nnls.solves", solves, "count");
  set("nnls.pivots_per_solve",
      solves > 0.0 ? counter(job, "nnls.pivots") / solves : 0.0, "count");
  set("nnls.workspace_reallocs", counter(job, "nnls.workspace.reallocs"),
      "count");
  set("nnls.alloc_mib",
      counter(job, "nnls.workspace.alloc_bytes") / (1024.0 * 1024.0), "MiB");

  const double batch = path_s(job, "core.diagnose_states");
  const auto states = rep.outcome.find("trace.states");
  set("inference.batch_s", batch, "s");
  set("inference.us_per_state",
      batch > 0.0 && states != rep.outcome.end()
          ? batch / states->second.value * 1e6
          : 0.0,
      "us");
  set("incident.aggregate_s", path_s(job, "core.aggregate_incidents"), "s");

  set("parallel.regions", counter(job, "parallel.regions"), "count");
  set("parallel.regions_inline", counter(job, "parallel.regions_inline"),
      "count");
  set("parallel.tasks", counter(job, "parallel.tasks"), "count");
  double busy_ns = 0.0;
  for (const auto& [name, h] : job.histograms)
    if (name == "parallel.worker_busy_ns") busy_ns = static_cast<double>(h.sum);
  set("parallel.worker_busy_frac",
      busy_ns / (rep.job_s * 1e9 * static_cast<double>(core::num_threads())),
      "frac");

  // The job's root spans should cover its wall time; the rest is printed.
  double roots = 0.0;
  for (const telemetry::SpanStats& stats : job.path_stats)
    if (stats.name.find('/') == std::string::npos)
      roots += static_cast<double>(stats.total_ns) / 1e9;
  set("tracing.unattributed_frac", (rep.job_s - roots) / rep.job_s, "frac");
  return m;
}

// ---------------------------------------------------------------------------
// Output.

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

/// Median of each metric over the repetitions that have it.
Metrics median_metrics(const std::vector<Metrics>& reps) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (const Metrics& rep : reps)
    for (const auto& [name, metric] : rep) {
      values[name].push_back(metric.value);
      units[name] = metric.unit;
    }
  Metrics out;
  for (const auto& [name, v] : values) out[name] = {median(v), units[name]};
  return out;
}

void print_environment(const Options& o) {
  std::printf(
      "environment {\"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"threads\": %zu, \"linalg_backend\": \"%s\", \"cpu_features\": "
      "\"%s\", \"build_type\": \"%s\", \"telemetry_compiled_in\": %s, "
      "\"git_sha\": \"%s\", \"peak_rss_window\": \"%s\", \"smoke\": %s}\n",
      nproc(), std::thread::hardware_concurrency(), core::num_threads(),
      linalg::backend_name(linalg::backend()),
      linalg::cpu_features_summary().c_str(), VN2BENCH_BUILD_TYPE,
      telemetry::kCompiledIn ? "true" : "false", o.git_sha.c_str(),
      reset_peak_rss() ? "job" : "process", o.smoke ? "true" : "false");
}

int run(const Options& o) {
  core::set_num_threads(nproc());
  telemetry::set_collecting(false);
  std::filesystem::create_directories(o.work_dir);
  const Scale scale = scale_for(o);

  std::unique_ptr<Workload> workload;
  if (o.workload == "simulate")
    workload = std::make_unique<SimulateWorkload>(o, scale);
  else if (o.workload == "train")
    workload = std::make_unique<TrainWorkload>(o, scale);
  else
    workload = std::make_unique<DiagnoseWorkload>(o, scale);

  // At least three set-ups, and more while they are quick, so a set-up of
  // milliseconds still gets a steady median.
  Checks checks;
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  while (setup_s.size() < 3 ||
         (seconds_since(setup_start) < 0.5 && setup_s.size() < 500)) {
    const Clock::time_point start = Clock::now();
    workload->setup(checks);
    setup_s.push_back(seconds_since(start));
  }
  std::printf("setup: %zu times, median %.4f s\n", setup_s.size(),
              median(setup_s));

  // Untraced repetitions for the whole budget (or half of it when traced
  // ones follow), then traced ones for the other half.
  auto repeat = [&](bool traced, double budget) {
    std::vector<Rep> reps;
    const Clock::time_point start = Clock::now();
    do {
      reps.push_back(workload->run(checks, traced));
      const Rep& r = reps.back();
      std::printf("%s rep %zu: job %.4f s, cpu %.3f s, peak %.1f MiB, "
                  "%.0f items, digest %016llx\n",
                  traced ? "traced" : "timed", reps.size(), r.job_s, r.cpu_s,
                  r.peak_rss_mib, r.items,
                  static_cast<unsigned long long>(r.digest));
    } while (seconds_since(start) < budget);
    return reps;
  };
  const std::vector<Rep> timed =
      repeat(false, o.trace ? o.seconds / 2 : o.seconds);
  const std::vector<Rep> traced =
      o.trace ? repeat(true, o.seconds / 2) : std::vector<Rep>{};

  std::vector<Metrics> timed_metrics;
  for (const Rep& r : timed) {
    Metrics m = r.outcome;
    m["job_s"] = {r.job_s, "s"};
    m["cpu_s"] = {r.cpu_s, "s"};
    m["peak_rss_mib"] = {r.peak_rss_mib, "MiB"};
    m["rss_per_csv_mib"] = {r.rss_per_csv_mib, "MiB/MiB"};
    m["items_per_s"] = {r.items / r.job_s, "1/s"};
    m["cpu_us_per_item"] = {r.cpu_s / r.items * 1e6, "us"};
    timed_metrics.push_back(std::move(m));
  }
  Metrics result = median_metrics(timed_metrics);
  result["setup_s"] = {median(setup_s), "s"};

  // Every repetition of one input must produce the same bytes.
  for (const Rep& r : timed)
    checks.expect(r.digest == timed.front().digest,
                  o.workload + ": repetitions produce identical outputs");
  for (const Rep& r : traced)
    checks.expect(r.digest == timed.front().digest,
                  o.workload + ": traced repetitions produce identical outputs");

  if (o.trace) {
    std::vector<Metrics> layers;
    std::vector<double> traced_job;
    for (const Rep& r : traced) {
      layers.push_back(layer_metrics(r));
      traced_job.push_back(r.job_s);
    }
    for (const auto& [name, metric] : median_metrics(layers))
      result[name] = metric;
    result["tracing.overhead_frac"] = {
        median(traced_job) / result["job_s"].value - 1.0, "frac"};
    std::printf("layer attribution: %.4f s of the traced job outside any "
                "benchmark span (%.2f%%)\n",
                result["tracing.unattributed_frac"].value * median(traced_job),
                100.0 * result["tracing.unattributed_frac"].value);
  }
  for (const auto& [name, unit] : kLayerMetrics)
    result.try_emplace(name, Metric{0.0, unit});
  for (const auto& [name, unit] : kOutcomeMetrics)
    result.try_emplace(name, Metric{0.0, unit});
  result["failed_frac"] = {
      static_cast<double>(checks.failed()) /
          static_cast<double>(std::max<std::size_t>(1, checks.attempted())),
      "frac"};

  std::printf("digest %s %016llx\n", o.workload.c_str(),
              static_cast<unsigned long long>(timed.front().digest));
  std::printf("checks: %zu attempted, %zu failed\n", checks.attempted(),
              checks.failed());
  print_environment(o);
  for (const auto& [name, metric] : result)
    std::printf("metric %-28s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("result {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed(), json_metrics(result).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vn2bench: %s\n", error.what());
    return 1;
  }
}
