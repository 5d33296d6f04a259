#include "benchstat/gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vn2::benchstat {

namespace {

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kImproved:
      return "improved";
    case Verdict::kRegressed:
      return "REGRESSED";
    case Verdict::kStale:
      return "STALE";
    case Verdict::kMissing:
      return "missing";
    case Verdict::kNew:
      return "new";
    case Verdict::kCheckFailed:
      return "CHECK FAILED";
  }
  return "?";
}

/// Relative movement of the run median in the metric's bad direction:
/// positive = worse, negative = better.
double worse_delta_of(const Metric& base, const Metric& run) {
  const double denom = std::max(std::abs(base.stats.median), 1e-300);
  const double delta = (run.stats.median - base.stats.median) / denom;
  return base.lower_is_better ? delta : -delta;
}

/// True when the IQRs are disjoint with the run on the bad side.
bool iqr_disjoint_worse(const Metric& base, const Metric& run) {
  return base.lower_is_better ? run.stats.q1 > base.stats.q3
                              : run.stats.q3 < base.stats.q1;
}

/// True when the IQRs are disjoint with the run on the good side.
bool iqr_disjoint_better(const Metric& base, const Metric& run) {
  return base.lower_is_better ? run.stats.q3 < base.stats.q1
                              : run.stats.q1 > base.stats.q3;
}

std::string percent(double fraction) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%+.1f%%", fraction * 100.0);
  return buffer;
}

/// "+12.3% worse" for a positive worse-delta, "91.0% better" for a
/// negative one.
std::string movement(double worse_delta) {
  if (worse_delta >= 0.0) return percent(worse_delta) + " worse";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f%% better", -worse_delta * 100.0);
  return buffer;
}

std::string short_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

const Record* find_record(const std::vector<Record>& records,
                          std::string_view bench) {
  for (const Record& record : records)
    if (record.bench == bench) return &record;
  return nullptr;
}

}  // namespace

GateReport compare(const Baseline& baseline, const std::vector<Record>& run,
                   const GateOptions& options) {
  GateReport report;
  for (const Record& base_record : baseline.records) {
    const Record* run_record = find_record(run, base_record.bench);
    if (run_record == nullptr) {
      Finding finding;
      finding.bench = base_record.bench;
      finding.verdict = options.strict ? Verdict::kStale : Verdict::kMissing;
      if (options.strict) ++report.stale;
      report.findings.push_back(std::move(finding));
      continue;
    }
    for (const Case& base_case : base_record.cases) {
      const Case* run_case = run_record->find_case(base_case.name);
      for (const Metric& base_metric : base_case.metrics) {
        const Metric* run_metric =
            run_case == nullptr ? nullptr
                                : run_case->find_metric(base_metric.name);
        Finding finding;
        finding.bench = base_record.bench;
        finding.case_name = base_case.name;
        finding.metric = base_metric.name;
        finding.gated = base_metric.gated;
        finding.base_median = base_metric.stats.median;
        if (run_metric == nullptr) {
          finding.verdict = Verdict::kStale;
          ++report.stale;
          report.findings.push_back(std::move(finding));
          continue;
        }
        ++report.compared;
        finding.run_median = run_metric->stats.median;
        finding.worse_delta = worse_delta_of(base_metric, *run_metric);
        finding.verdict = Verdict::kOk;
        if (finding.worse_delta > options.relative_floor &&
            iqr_disjoint_worse(base_metric, *run_metric)) {
          finding.verdict = Verdict::kRegressed;
          if (base_metric.gated) ++report.regressions;
        } else if (finding.worse_delta < -options.relative_floor &&
                   iqr_disjoint_better(base_metric, *run_metric)) {
          finding.verdict = Verdict::kImproved;
          if (base_metric.gated) ++report.improvements;
        }
        report.findings.push_back(std::move(finding));
      }
    }
  }
  for (const Record& run_record : run) {
    for (const Check& check : run_record.checks) {
      if (check.pass) continue;
      Finding finding;
      finding.bench = run_record.bench;
      finding.metric = check.name;
      finding.verdict = Verdict::kCheckFailed;
      ++report.failed_checks;
      report.findings.push_back(std::move(finding));
    }
    if (find_record(baseline.records, run_record.bench) == nullptr ||
        baseline.records.empty()) {
      Finding finding;
      finding.bench = run_record.bench;
      finding.verdict = Verdict::kNew;
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

std::string render_text(const GateReport& report) {
  std::string out;
  for (const Finding& f : report.findings) {
    // Ungated in-noise comparisons are omitted: the interesting lines are
    // gate decisions, significant moves, and bookkeeping problems.
    if (f.verdict == Verdict::kOk && !f.gated) continue;
    out += verdict_name(f.verdict);
    out += "  ";
    out += f.bench;
    if (!f.case_name.empty()) out += "/" + f.case_name;
    if (!f.metric.empty()) out += "/" + f.metric;
    switch (f.verdict) {
      case Verdict::kOk:
      case Verdict::kImproved:
      case Verdict::kRegressed:
        out += ": median " + short_number(f.base_median) + " -> " +
               short_number(f.run_median) + " (" + movement(f.worse_delta);
        out += f.gated ? ", gated)" : ")";
        break;
      case Verdict::kStale:
        out += ": baseline entry has no counterpart in the run";
        break;
      case Verdict::kMissing:
        out += ": bench not present in this run (not gated; use --strict)";
        break;
      case Verdict::kNew:
        out += ": not in baseline yet (run with --update to adopt)";
        break;
      case Verdict::kCheckFailed:
        out += ": bench invariant check failed";
        break;
    }
    out += "\n";
  }
  out += "benchstat: " + std::to_string(report.compared) + " compared, " +
         std::to_string(report.regressions) + " regressed, " +
         std::to_string(report.improvements) + " improved, " +
         std::to_string(report.stale) + " stale, " +
         std::to_string(report.failed_checks) + " failed checks -> " +
         (report.failed() ? "FAIL" : "PASS") + "\n";
  return out;
}

std::string render_markdown(const GateReport& report) {
  std::string out =
      "| Bench | Case | Metric | Baseline | Run | Delta | Verdict |\n"
      "|---|---|---|---|---|---|---|\n";
  for (const Finding& f : report.findings) {
    if (f.verdict == Verdict::kOk && !f.gated) continue;
    const bool numeric = f.verdict == Verdict::kOk ||
                         f.verdict == Verdict::kImproved ||
                         f.verdict == Verdict::kRegressed;
    out += "| " + f.bench + " | " + f.case_name + " | " + f.metric + " | ";
    out += numeric ? short_number(f.base_median) : std::string("-");
    out += " | ";
    out += numeric ? short_number(f.run_median) : std::string("-");
    out += " | ";
    out += numeric ? percent(f.worse_delta) : std::string("-");
    out += " | ";
    out += verdict_name(f.verdict);
    out += f.gated && numeric ? " (gated) |\n" : " |\n";
  }
  out += "\n**" + std::to_string(report.compared) + " compared, " +
         std::to_string(report.regressions) + " regressed, " +
         std::to_string(report.stale) + " stale, " +
         std::to_string(report.failed_checks) + " failed checks — " +
         (report.failed() ? "FAIL" : "PASS") + "**\n";
  return out;
}

UpdateResult ratchet_update(const Baseline& old_baseline,
                            const std::vector<Record>& run,
                            const GateOptions& options) {
  UpdateResult result;
  // A refresh must never launder a regression or a broken bench in.
  const GateReport report = compare(old_baseline, run, options);
  if (report.regressions != 0 || report.failed_checks != 0) {
    result.refused = true;
    for (const Finding& f : report.findings) {
      if (f.verdict == Verdict::kRegressed && f.gated) {
        result.reason = "gated regression in " + f.bench + "/" + f.case_name +
                        "/" + f.metric + " (" + percent(f.worse_delta) +
                        " worse); fix the regression before refreshing";
        return result;
      }
      if (f.verdict == Verdict::kCheckFailed) {
        result.reason = "failed invariant check '" + f.metric + "' in " +
                        f.bench + "; a broken bench cannot set the baseline";
        return result;
      }
    }
  }
  result.baseline.schema_version = kSchemaVersion;
  // Matched benches: adopt the run record, but a gated metric that got
  // worse (within the floor — beyond it we refused above) keeps the old,
  // better baseline entry. The baseline only ratchets downward.
  for (const Record& run_record : run) {
    Record merged = run_record;
    if (const Record* old_record = old_baseline.find(run_record.bench);
        old_record != nullptr) {
      for (Case& merged_case : merged.cases) {
        const Case* old_case = old_record->find_case(merged_case.name);
        if (old_case == nullptr) continue;
        for (Metric& metric : merged_case.metrics) {
          const Metric* old_metric = old_case->find_metric(metric.name);
          if (old_metric == nullptr) continue;
          metric.gated = metric.gated || old_metric->gated;
          if (metric.gated && worse_delta_of(*old_metric, metric) > 0.0) {
            const bool keep_gated = metric.gated;
            metric = *old_metric;
            metric.gated = keep_gated;
          }
        }
      }
    }
    result.baseline.records.push_back(std::move(merged));
  }
  // Benches the run did not exercise keep their old entries: a partial
  // local refresh must not drop the rest of the baseline.
  for (const Record& old_record : old_baseline.records)
    if (find_record(run, old_record.bench) == nullptr)
      result.baseline.records.push_back(old_record);
  std::sort(result.baseline.records.begin(), result.baseline.records.end(),
            [](const Record& a, const Record& b) { return a.bench < b.bench; });
  return result;
}

}  // namespace vn2::benchstat
