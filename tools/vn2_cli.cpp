// vn2 — command-line front end to the VN2 pipeline.
//
//   vn2 simulate --scenario tiny|testbed|citysee [--days D] [--seed S]
//                [--spacing M] [--runs N] --out trace.csv
//   vn2 train    --trace trace.csv [--rank R] [--threshold T]
//                [--skip-extraction] --out model.vn2
//   vn2 inspect  --model model.vn2
//   vn2 diagnose --model model.vn2 --trace trace.csv [--top K] [--all]
//   vn2 incidents --model model.vn2 --trace trace.csv [--gap S]
//
// Traces are the CSV format of trace/csv.hpp (one row per assembled
// snapshot), so field data exported from a real deployment can be run
// through `train`/`diagnose` unchanged.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/incident.hpp"
#include "core/parallel.hpp"
#include "core/silence.hpp"
#include "core/vn2.hpp"
#include "linalg/cpu_features.hpp"
#include "linalg/kernels.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/calltree.hpp"
#include "telemetry/profdiff.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"
#include "trace/trace.hpp"

namespace {

using namespace vn2;

struct Args {
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;
  std::vector<std::string> positional;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// A finite double, parsed whole.
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    return parsed(key, fallback);
  }
  /// An unsigned integer, parsed whole.
  [[nodiscard]] std::uint64_t count(const std::string& key,
                                    std::uint64_t fallback) const {
    return parsed(key, fallback);
  }
  /// Option `key` as a T, or `fallback` when it is absent. Text that does
  /// not parse whole throws, naming the option and the text.
  template <typename T>
  [[nodiscard]] T parsed(const std::string& key, T fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    const char* last = text.data() + text.size();
    T value{};
    const auto [end, error] = std::from_chars(text.data(), last, value);
    bool valid = error == std::errc() && end == last;
    if constexpr (std::is_floating_point_v<T>)
      valid = valid && std::isfinite(value);
    if (!valid)
      throw std::invalid_argument(
          "--" + key + ": '" + text + "' is not a " +
          (std::is_floating_point_v<T> ? "finite number"
                                       : "non-negative integer"));
    return value;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    auto it = flags.find(key);
    return it != flags.end() && it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      // Bare tokens are positionals (currently only `profile --diff`
      // consumes them); each command rejects the ones it has no use for.
      args.positional.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.flags[token] = true;
    }
  }
  return args;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  vn2 simulate  --scenario tiny|testbed|citysee [--days D] [--seed S]\n"
      "                [--nodes N] [--spacing M] [--runs R] --out trace.csv\n"
      "  vn2 train     --trace trace.csv [--rank R] [--threshold T]\n"
      "                [--skip-extraction] --out model.vn2\n"
      "  vn2 inspect   --model model.vn2\n"
      "  vn2 diagnose  --model model.vn2 --trace trace.csv [--top K] [--all]\n"
      "                [--batch-size N]  (stream states through bounded\n"
      "                 batches of N instead of materializing everything)\n"
      "  vn2 incidents --model model.vn2 --trace trace.csv [--gap seconds]\n"
      "  vn2 silent    --trace trace.csv [--factor F]\n"
      "  vn2 stats     --trace trace.csv\n"
      "  vn2 profile   --scenario tiny|testbed|citysee [--days D] [--seed S]\n"
      "                [--nodes N] [--rank R] [--top K] [--out snap.json]\n"
      "                [--trace-out trace.json] [--json]  (--json prints the\n"
      "                 snapshot — spans, call tree, counters, resources —\n"
      "                 to stdout)\n"
      "                [--sample-ms N]  (resource time-series sampling\n"
      "                 interval; default 25, 0 disables the sampler)\n"
      "  vn2 profile   --diff base.json run.json [--floor F] [--min-ns N]\n"
      "                [--markdown]  (diff two profile snapshots by call-tree\n"
      "                 path; exit 1 when a path regressed past the floors)\n"
      "\n"
      "global options:\n"
      "  --threads N   thread budget for analysis/simulation hot paths\n"
      "                (at most 1024; default: hardware concurrency;\n"
      "                1 = fully serial)\n"
      "  --linalg-backend auto|reference|simd\n"
      "                dense-kernel implementation (default auto: simd when\n"
      "                the host CPU supports it, else reference; forcing\n"
      "                simd on unsupported hardware is an error)\n"
      "  --telemetry FILE        write a telemetry snapshot (JSON) on exit\n"
      "  --telemetry-trace FILE  write spans as chrome://tracing JSON on "
      "exit\n");
  return 2;
}

/// Output path of run `run` in a batch: "trace.csv" -> "trace.run3.csv".
std::string run_output_path(const std::string& out, std::size_t run) {
  const std::size_t dot = out.find_last_of('.');
  const std::size_t slash = out.find_last_of('/');
  const std::string tag = ".run" + std::to_string(run);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return out + tag;
  return out.substr(0, dot) + tag + out.substr(dot);
}

bool known_scenario(const std::string& kind) {
  return kind == "citysee" || kind == "testbed" || kind == "tiny";
}

/// Shared unknown-scenario diagnostic: always names the valid choices,
/// mirroring the --linalg-backend error style.
int unknown_scenario(const char* command, const std::string& kind) {
  std::fprintf(stderr,
               "%s: unknown scenario '%s' (expected tiny, testbed, or "
               "citysee)\n",
               command, kind.c_str());
  return 2;
}

/// Builds one scenario replication from CLI options (shared by simulate
/// and profile). `run_seed` already includes any per-run offset.
scenario::ScenarioBundle make_scenario_bundle(const std::string& kind,
                                              const Args& args,
                                              std::uint64_t run_seed) {
  scenario::ScenarioBundle bundle;
  if (kind == "citysee") {
    scenario::CityseeParams params;
    params.days = args.number("days", 1.0);
    params.node_count = args.count("nodes", 286);
    params.seed = run_seed;
    bundle = scenario::citysee_field(params);
  } else if (kind == "testbed") {
    scenario::TestbedParams params;
    params.seed = run_seed;
    bundle = scenario::testbed(params);
  } else {
    bundle =
        scenario::tiny(args.count("nodes", 16),
                       args.number("days", 0.125) * 86400.0, run_seed,
                       args.number("spacing", 8.0));
  }
  return bundle;
}

int cmd_simulate(const Args& args) {
  const std::string kind = args.get("scenario", "tiny");
  const std::string out = args.get("out");
  if (out.empty()) {
    std::fprintf(stderr, "simulate: --out is required\n");
    return 2;
  }
  const std::uint64_t seed = args.count("seed", 7);
  const std::size_t runs = args.count("runs", 1);
  if (runs == 0) {
    std::fprintf(stderr, "simulate: --runs must be >= 1\n");
    return 2;
  }

  // Each run gets its own seed, so a batch is N independent replications
  // of the scenario; run k's trace is identical whether it ran alone
  // (--seed seed+k) or inside a concurrent batch.
  auto make_bundle = [&](std::uint64_t run_seed) {
    return make_scenario_bundle(kind, args, run_seed);
  };
  if (!known_scenario(kind)) return unknown_scenario("simulate", kind);

  if (runs == 1) {
    scenario::ScenarioBundle bundle = make_bundle(seed);
    std::printf("simulating '%s': %zu nodes, %.2f h...\n", kind.c_str(),
                bundle.config.positions.size(),
                bundle.config.duration / 3600.0);
    wsn::Simulator sim = bundle.make_simulator();
    const wsn::SimulationResult result = sim.run();
    const trace::Trace log = trace::build_trace(result);
    trace::write_trace_csv_file(out, log);
    std::printf("PRR %.3f, %zu snapshots from %zu nodes -> %s\n",
                trace::overall_prr(result), log.total_snapshots(),
                log.nodes.size(), out.c_str());
    return 0;
  }

  struct RunSummary {
    std::string path;
    double prr = 0.0;
    std::size_t snapshots = 0;
    std::size_t nodes = 0;
  };
  std::vector<RunSummary> summaries(runs);
  std::printf("simulating '%s': %zu runs (seeds %llu..%llu) on %zu "
              "threads...\n",
              kind.c_str(), runs, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + runs - 1),
              core::num_threads());
  core::parallel_for(0, runs, 1, [&](std::size_t run) {
    scenario::ScenarioBundle bundle = make_bundle(seed + run);
    wsn::Simulator sim = bundle.make_simulator();
    const wsn::SimulationResult result = sim.run();
    const trace::Trace log = trace::build_trace(result);
    RunSummary& summary = summaries[run];
    summary.path = run_output_path(out, run);
    trace::write_trace_csv_file(summary.path, log);
    summary.prr = trace::overall_prr(result);
    summary.snapshots = log.total_snapshots();
    summary.nodes = log.nodes.size();
  });
  double prr_total = 0.0;
  std::size_t snapshot_total = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    const RunSummary& summary = summaries[run];
    std::printf("run %zu: PRR %.3f, %zu snapshots from %zu nodes -> %s\n",
                run, summary.prr, summary.snapshots, summary.nodes,
                summary.path.c_str());
    prr_total += summary.prr;
    snapshot_total += summary.snapshots;
  }
  std::printf("%zu runs: mean PRR %.3f, %zu snapshots total\n", runs,
              prr_total / static_cast<double>(runs), snapshot_total);
  return 0;
}

std::vector<trace::StateVector> load_states(const std::string& path) {
  const trace::Trace log = trace::read_trace_csv_file(path);
  return trace::extract_states(log);
}

int cmd_train(const Args& args) {
  const std::string trace_path = args.get("trace");
  const std::string out = args.get("out");
  if (trace_path.empty() || out.empty()) {
    std::fprintf(stderr, "train: --trace and --out are required\n");
    return 2;
  }
  const auto states = load_states(trace_path);
  std::printf("loaded %zu states from %s\n", states.size(),
              trace_path.c_str());

  core::TrainingOptions options;
  options.rank = args.count("rank", 0);
  options.exception_threshold = args.number("threshold", 0.30);
  options.skip_exception_extraction = args.flag("skip-extraction");
  const core::TrainingReport report =
      core::train(trace::states_matrix(states), options);

  if (!report.rank_sweep.empty()) {
    std::printf("rank sweep:\n");
    for (const nmf::RankPoint& p : report.rank_sweep)
      std::printf("  r=%2zu  alpha=%.4f  alpha_sparse=%.4f\n", p.rank,
                  p.accuracy_original, p.accuracy_sparse);
  }
  std::printf("trained: %zu exception states of %zu, r=%zu, alpha=%.4f\n",
              report.exception_states, report.training_states,
              report.chosen_rank,
              report.nmf.objective_history.empty()
                  ? 0.0
                  : report.nmf.objective_history.back());
  report.model.save(out);
  std::printf("model -> %s\n", out.c_str());
  return 0;
}

int cmd_inspect(const Args& args) {
  const std::string model_path = args.get("model");
  if (model_path.empty()) {
    std::fprintf(stderr, "inspect: --model is required\n");
    return 2;
  }
  core::Vn2Tool tool =
      core::Vn2Tool::from_model(core::Vn2Model::load(model_path));
  std::printf("representative matrix: %zu root-cause vectors\n",
              tool.model().rank());
  for (const core::RootCauseInterpretation& interp : tool.interpretations())
    std::printf("  psi[%2zu]: %s\n", interp.row, interp.summary.c_str());
  return 0;
}

int cmd_diagnose(const Args& args) {
  const std::string model_path = args.get("model");
  const std::string trace_path = args.get("trace");
  if (model_path.empty() || trace_path.empty()) {
    std::fprintf(stderr, "diagnose: --model and --trace are required\n");
    return 2;
  }
  core::Vn2Tool tool =
      core::Vn2Tool::from_model(core::Vn2Model::load(model_path));
  const auto states = load_states(trace_path);
  const std::size_t top = args.count("top", 10);
  const bool all = args.flag("all");

  // --batch-size N: the streaming path. States flow through
  // core::diagnose_stream's bounded queue in batches of N; the sink keeps
  // only the exceptions' (ε, index) pairs, and the shown ones are
  // re-explained afterwards. Same ε ranking and output as the batch path,
  // with memory bounded by the batch instead of the whole trace.
  if (const std::size_t batch_size = args.count("batch-size", 0);
      batch_size > 0) {
    core::StreamOptions stream_options;
    stream_options.batch_size = batch_size;
    std::vector<std::pair<double, std::size_t>> found;
    const core::StreamReport report = core::diagnose_stream(
        tool.model(), trace::states_matrix(states), stream_options,
        [&](std::size_t first, const std::vector<core::Diagnosis>& batch) {
          for (std::size_t i = 0; i < batch.size(); ++i)
            if (batch[i].is_exception)
              found.emplace_back(batch[i].exception_score, first + i);
        });
    std::sort(found.rbegin(), found.rend());
    std::size_t shown = 0;
    for (const auto& [score, index] : found) {
      if (!all && shown >= top) break;
      const auto explanation = tool.explain(states[index].delta);
      std::printf("node %u @ t=%.0fs: %s\n", states[index].node,
                  states[index].time, explanation.text.c_str());
      ++shown;
    }
    std::printf("\n%zu of %zu states are exceptions (%zu shown, "
                "%zu batches of %zu)\n",
                report.exceptions, report.states, shown, report.batches,
                batch_size);
    return 0;
  }

  // Rank by ε score; print the top K (or every exception with --all).
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t i = 0; i < states.size(); ++i)
    ranked.emplace_back(tool.model().exception_score(states[i].delta), i);
  std::sort(ranked.rbegin(), ranked.rend());

  std::size_t shown = 0, exceptions = 0;
  for (const auto& [score, index] : ranked) {
    const auto explanation = tool.explain(states[index].delta);
    if (!explanation.diagnosis.is_exception) break;  // Sorted: rest are normal.
    ++exceptions;
    if (all || shown < top) {
      std::printf("node %u @ t=%.0fs: %s\n", states[index].node,
                  states[index].time, explanation.text.c_str());
      ++shown;
    }
  }
  std::printf("\n%zu of %zu states are exceptions (%zu shown)\n", exceptions,
              states.size(), shown);
  return 0;
}

int cmd_incidents(const Args& args) {
  const std::string model_path = args.get("model");
  const std::string trace_path = args.get("trace");
  if (model_path.empty() || trace_path.empty()) {
    std::fprintf(stderr, "incidents: --model and --trace are required\n");
    return 2;
  }
  core::Vn2Tool tool =
      core::Vn2Tool::from_model(core::Vn2Model::load(model_path));
  const auto states = load_states(trace_path);

  // The per-state NNLS solves are independent — run them on the pool.
  const std::vector<core::Diagnosis> diagnoses =
      tool.diagnose_states(trace::states_matrix(states));

  core::IncidentOptions options;
  options.merge_gap = args.number("gap", 1800.0);
  const auto incidents = core::aggregate_incidents(
      states, diagnoses, tool.interpretations(), options);
  for (const core::Incident& incident : incidents)
    std::printf("%s\n", incident.summary.c_str());
  std::printf("\n%zu incidents from %zu states\n", incidents.size(),
              states.size());
  return 0;
}

int cmd_silent(const Args& args) {
  const std::string trace_path = args.get("trace");
  if (trace_path.empty()) {
    std::fprintf(stderr, "silent: --trace is required\n");
    return 2;
  }
  const trace::Trace log = trace::read_trace_csv_file(trace_path);
  core::SilenceOptions options;
  options.factor = args.number("factor", 4.0);
  // "now" = the latest snapshot anywhere in the trace.
  wsn::Time now = 0.0;
  for (const trace::NodeSeries& series : log.nodes)
    if (!series.snapshots.empty())
      now = std::max(now, series.snapshots.back().time);
  const auto silent = core::detect_silent_nodes(log, now, options);
  for (const core::SilentNode& entry : silent)
    std::printf("node %u silent for %.0fs (last seen t=%.0fs, expected "
                "every %.0fs)\n",
                entry.node, entry.silent_for, entry.last_seen,
                entry.expected_interval);
  std::printf("\n%zu of %zu nodes look silent as of t=%.0fs\n", silent.size(),
              log.nodes.size(), now);
  return 0;
}

int cmd_stats(const Args& args) {
  const std::string trace_path = args.get("trace");
  if (trace_path.empty()) {
    std::fprintf(stderr, "stats: --trace is required\n");
    return 2;
  }
  const trace::Trace log = trace::read_trace_csv_file(trace_path);
  const trace::NetworkStats stats = trace::compute_stats(log);
  std::ostringstream os;
  trace::print_stats(os, stats, /*has_prr=*/false);
  std::fputs(os.str().c_str(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Telemetry output: the library serializes through a Sink; the file
// handles live here in the CLI, per the io-in-library rule.

void write_telemetry_file(
    const std::string& path, bool chrome_trace,
    const std::vector<telemetry::ResourceSample>* series = nullptr) {
  telemetry::Snapshot snapshot = telemetry::Registry::global().snapshot();
  if (series != nullptr) snapshot.resource_series = *series;
  telemetry::StringSink sink;
  if (chrome_trace)
    telemetry::write_trace_events(sink, snapshot);
  else
    telemetry::write_json(sink, snapshot);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr)
    throw std::runtime_error("cannot open for write: " + path);
  std::fwrite(sink.str().data(), 1, sink.str().size(), file);
  std::fclose(file);
  std::printf("telemetry %s -> %s\n", chrome_trace ? "trace" : "snapshot",
              path.c_str());
}

std::string read_text_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw std::runtime_error("cannot open for read: " + path);
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    text.append(buffer, got);
  std::fclose(file);
  return text;
}

/// `vn2 profile --diff base.json run.json`: align two snapshots'
/// call trees by path and report regressions with benchstat-style exit
/// codes (0 clean, 1 regression, 2 usage/input error).
int profile_diff(const Args& args) {
  const std::string base_path = args.get("diff");
  if (base_path.empty() || args.positional.size() != 1) {
    std::fprintf(stderr,
                 "profile: --diff takes two snapshots: "
                 "vn2 profile --diff base.json run.json\n");
    return 2;
  }
  telemetry::ProfDiffOptions options;
  options.relative_floor = args.number("floor", options.relative_floor);
  options.min_delta_ns = args.count("min-ns", options.min_delta_ns);
  if (options.relative_floor < 0.0) {
    std::fprintf(stderr, "profile: --floor must be non-negative\n");
    return 2;
  }
  telemetry::ProfDiffReport report;
  try {
    const auto base =
        telemetry::read_call_tree_json(read_text_file(base_path));
    const auto run =
        telemetry::read_call_tree_json(read_text_file(args.positional[0]));
    report = telemetry::diff_call_trees(base, run, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "profile: --diff: %s\n", error.what());
    return 2;
  }
  const std::string rendered = args.flag("markdown")
                                   ? telemetry::render_markdown(report)
                                   : telemetry::render_text(report);
  std::fputs(rendered.c_str(), stdout);
  return report.failed() ? 1 : 0;
}

int cmd_profile(const Args& args) {
  if (!args.get("diff").empty() || args.flag("diff"))
    return profile_diff(args);
  if (!args.positional.empty()) {
    std::fprintf(stderr, "profile: unexpected argument '%s'\n",
                 args.positional.front().c_str());
    return 2;
  }
  const std::string kind = args.get("scenario", "tiny");
  if (!known_scenario(kind)) return unknown_scenario("profile", kind);
  const std::uint64_t seed = args.count("seed", 7);
  const std::size_t top = args.count("top", 12);
  // --json: machine-readable mode — the only stdout output is the
  // telemetry snapshot JSON (spans, counters, resource usage).
  const bool json = args.flag("json");

  if (!telemetry::kCompiledIn && !json)
    std::printf("note: built with VN2_TELEMETRY=OFF; macro instrumentation "
                "is compiled out\n");
  telemetry::Registry::global().reset();

  // --sample-ms N: background resource time series over the pipeline
  // (0 disables; the sampler is also a no-op when telemetry is compiled
  // out). The series rides along in every snapshot written below.
  const std::uint64_t sample_ms = args.count("sample-ms", 25);
  telemetry::SamplerOptions sampler_options;
  sampler_options.interval_ms = sample_ms > 0 ? sample_ms : 1;
  telemetry::ResourceSampler sampler(sampler_options);
  if (sample_ms > 0) sampler.start();

  const std::uint64_t started = telemetry::monotonic_ns();

  // The full pipeline, end to end: simulate -> assemble trace -> extract
  // states -> train (rank sweep + NMF) -> batch diagnosis.
  scenario::ScenarioBundle bundle = make_scenario_bundle(kind, args, seed);
  if (!json)
    std::printf("profiling '%s': %zu nodes, %.2f h, %zu threads\n",
                kind.c_str(), bundle.config.positions.size(),
                bundle.config.duration / 3600.0, core::num_threads());
  wsn::Simulator sim = bundle.make_simulator();
  const wsn::SimulationResult result = sim.run();
  const trace::Trace log = trace::build_trace(result);
  const auto states = trace::extract_states(log);
  if (states.empty()) {
    std::fprintf(stderr, "profile: scenario produced no states\n");
    return 1;
  }
  core::TrainingOptions options;
  options.rank = args.count("rank", 0);
  options.exception_threshold = args.number("threshold", 0.30);
  const linalg::Matrix state_matrix = trace::states_matrix(states);
  const core::TrainingReport report = core::train(state_matrix, options);
  core::Vn2Tool tool = core::Vn2Tool::from_model(report.model);
  const auto diagnoses = tool.diagnose_states(state_matrix);
  const double elapsed =
      static_cast<double>(telemetry::monotonic_ns() - started) / 1e9;

  std::size_t exceptions = 0;
  for (const core::Diagnosis& d : diagnoses)
    if (d.is_exception) ++exceptions;

  sampler.stop();
  const std::vector<telemetry::ResourceSample> series = sampler.series();
  telemetry::Snapshot snapshot = telemetry::Registry::global().snapshot();
  snapshot.resource_series = series;
  if (json) {
    telemetry::StringSink sink;
    telemetry::write_json(sink, snapshot);
    std::fputs(sink.str().c_str(), stdout);
  } else {
    std::printf("pipeline: %zu states, rank %zu, %zu exceptions, %.3f s\n",
                states.size(), report.chosen_rank, exceptions, elapsed);
    std::sort(
        snapshot.span_stats.begin(), snapshot.span_stats.end(),
        [](const telemetry::SpanStats& a, const telemetry::SpanStats& b) {
          return a.total_ns > b.total_ns;
        });
    // wall = steady-clock elapsed summed over entries; cpu = per-thread
    // CPU time inside the span. cpu >> wall means parallel sections,
    // wall >> cpu means blocking/waiting.
    std::printf("\nspans (top %zu by total time):\n", top);
    std::printf("  %-28s %10s %12s %12s %12s\n", "name", "count", "total ms",
                "mean ms", "cpu ms");
    for (std::size_t i = 0; i < snapshot.span_stats.size() && i < top; ++i) {
      const telemetry::SpanStats& s = snapshot.span_stats[i];
      std::printf("  %-28s %10llu %12.3f %12.3f %12.3f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<double>(s.total_ns) / 1e6 /
                      static_cast<double>(s.count),
                  static_cast<double>(s.total_cpu_ns) / 1e6);
    }
    // The same spans with ancestry: inclusive vs exclusive time per
    // call path (exclusive = inclusive minus children, the self cost).
    std::printf("\ncall tree:\n%s",
                telemetry::render_call_tree(
                    telemetry::build_call_tree(snapshot.path_stats))
                    .c_str());
    std::printf("\ncounters:\n");
    for (const auto& [name, value] : snapshot.counters)
      std::printf("  %-28s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    for (const auto& [name, h] : snapshot.histograms)
      std::printf("  %-28s n=%llu mean=%.0fns min=%lluns max=%lluns\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean(), static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max));
    if (snapshot.resource.sampled)
      std::printf("\nresources: peak rss %.1f MiB, current %.1f MiB, "
                  "cpu %.3fs user + %.3fs system\n",
                  static_cast<double>(snapshot.resource.peak_rss_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(snapshot.resource.current_rss_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(snapshot.resource.cpu_user_ns) / 1e9,
                  static_cast<double>(snapshot.resource.cpu_system_ns) / 1e9);
    if (!series.empty()) {
      const telemetry::ResourceSample& first = series.front();
      const telemetry::ResourceSample& last = series.back();
      std::printf("resource series: %zu samples @ %llu ms (rss %.1f -> "
                  "%.1f MiB, peak %.1f MiB)\n",
                  series.size(),
                  static_cast<unsigned long long>(sample_ms),
                  static_cast<double>(first.current_rss_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(last.current_rss_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(sampler.peak_rss_bytes()) /
                      (1024.0 * 1024.0));
    }
    std::printf("\nspans dropped: %llu\n",
                static_cast<unsigned long long>(snapshot.spans_dropped));
    if (snapshot.spans_dropped > 0)
      std::printf("warning: %llu raw spans were dropped at the retention "
                  "cap; aggregate stats and the call tree still count "
                  "them, but the chrome trace is incomplete\n",
                  static_cast<unsigned long long>(snapshot.spans_dropped));
  }

  const std::string out = args.get("out");
  if (!out.empty()) write_telemetry_file(out, /*chrome_trace=*/false, &series);
  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty())
    write_telemetry_file(trace_out, /*chrome_trace=*/true);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    // Only `profile --diff` consumes positionals; anywhere else a bare
    // token is a typo worth stopping on.
    if (!args.positional.empty() && command != "profile") {
      std::fprintf(stderr, "vn2 %s: unexpected argument '%s'\n",
                   command.c_str(), args.positional.front().c_str());
      return 2;
    }
    // Global thread budget: applies to every subcommand's hot paths
    // (matmul, rank sweep, batch NNLS, batch simulation). The cap keeps a
    // typo from asking the system for thousands of threads.
    if (!args.get("threads").empty()) {
      constexpr std::uint64_t kMaxThreads = 1024;
      const std::uint64_t threads = args.count("threads", 0);
      if (threads > kMaxThreads)
        throw std::invalid_argument("--threads: '" + args.get("threads") +
                                    "' is out of range 0-" +
                                    std::to_string(kMaxThreads));
      vn2::core::set_num_threads(threads);
    }
    // Global kernel backend: which dense-kernel implementation the linalg
    // hot paths dispatch to (results are backend-independent by contract).
    if (const std::string backend = args.get("linalg-backend");
        !backend.empty()) {
      const auto parsed = vn2::linalg::parse_backend(backend);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "vn2: unknown --linalg-backend '%s' "
                     "(expected auto, reference, or simd)\n",
                     backend.c_str());
        return 2;
      }
      // Forcing simd must fail loudly when this build/host cannot run it;
      // "auto" (resolved inside parse_backend) never selects it in that
      // case, and set_backend() would silently fall back.
      if (*parsed == vn2::linalg::Backend::kSimd &&
          !vn2::linalg::simd_available()) {
        const char* reason = vn2::linalg::simd_kernels_compiled()
                                 ? "host CPU lacks the required features"
                                 : "no simd kernels for this architecture";
        std::fprintf(stderr, "vn2: --linalg-backend simd: %s (detected: %s)\n",
                     reason, vn2::linalg::cpu_features_summary().c_str());
        return 2;
      }
      vn2::linalg::set_backend(*parsed);
    }
    // Global telemetry outputs: written after any successful subcommand.
    auto dispatch = [&]() -> std::optional<int> {
      if (command == "simulate") return cmd_simulate(args);
      if (command == "train") return cmd_train(args);
      if (command == "inspect") return cmd_inspect(args);
      if (command == "diagnose") return cmd_diagnose(args);
      if (command == "incidents") return cmd_incidents(args);
      if (command == "silent") return cmd_silent(args);
      if (command == "stats") return cmd_stats(args);
      if (command == "profile") return cmd_profile(args);
      return std::nullopt;
    };
    const std::optional<int> status = dispatch();
    if (status.has_value()) {
      const std::string snapshot_path = args.get("telemetry");
      if (!snapshot_path.empty() && *status == 0)
        write_telemetry_file(snapshot_path, /*chrome_trace=*/false);
      const std::string trace_path = args.get("telemetry-trace");
      if (!trace_path.empty() && *status == 0)
        write_telemetry_file(trace_path, /*chrome_trace=*/true);
      return *status;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vn2 %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  return usage();
}
