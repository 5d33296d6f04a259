// Fig. 6(a): system PRR over a two-week field window with an obvious
// degradation in the middle (the paper's Sep 20–22). Our scripted episode
// injects routing loops, jammers, and node failures into days 6–8 of a
// 13-day CitySee-scale run.
#include <cstdio>

#include "bench_common.hpp"

using namespace vn2;

int main() {
  bench::section("Fig 6(a) — system PRR with a degradation episode");

  scenario::CityseeEpisodeParams params;
  params.base.days = bench::bench_days(13.0);
  if (params.base.days < 3.0) params.base.days = 3.0;
  // Scale the episode window to the configured duration (middle ~15%).
  const double total = params.base.days * 86400.0;
  params.episode_start = total * 6.0 / 13.0;
  params.episode_end = total * 8.0 / 13.0;

  std::printf("[setup] %.1f-day run, episode window [%.1f, %.1f] days\n",
              params.base.days, params.episode_start / 86400.0,
              params.episode_end / 86400.0);
  bench::RunData data =
      bench::run_scenario(scenario::citysee_with_episode(params));

  const wsn::Time window = 6.0 * 3600.0;  // 6-hour buckets.
  const auto series = trace::prr_series(data.result, window);

  bench::subsection("PRR per 6-hour window");
  std::vector<double> values;
  for (const trace::PrrPoint& p : series) values.push_back(p.prr());
  bench::ascii_plot("PRR", values, 10);
  for (std::size_t i = 0; i < series.size(); ++i) {
    std::printf("  day %5.2f  PRR %.3f  (%u/%u)\n",
                series[i].window_start / 86400.0, series[i].prr(),
                series[i].received, series[i].originated);
  }

  // Mean PRR inside vs outside the episode (skip the first warm-up day).
  // A window counts as outside only if it does not overlap the episode;
  // windows that straddle an episode boundary count in neither mean.
  double inside = 0.0, outside = 0.0;
  std::size_t inside_count = 0, outside_count = 0;
  for (const trace::PrrPoint& p : series) {
    if (p.window_start < 86400.0) continue;
    if (p.window_start >= params.episode_start &&
        p.window_end <= params.episode_end) {
      inside += p.prr();
      ++inside_count;
    } else if (p.window_end <= params.episode_start ||
               p.window_start >= params.episode_end) {
      outside += p.prr();
      ++outside_count;
    }
  }
  inside /= std::max<std::size_t>(inside_count, 1);
  outside /= std::max<std::size_t>(outside_count, 1);
  std::printf("\nmean PRR: outside episode %.3f, inside episode %.3f\n",
              outside, inside);

  bench::shape_check(outside > 0.7, "baseline PRR is healthy (paper: ~0.8+)");
  bench::shape_check(inside < outside - 0.05,
                     "PRR visibly degrades during the fault episode");
  // Recovery: the last day looks like the baseline again.
  const double last = values.back();
  bench::shape_check(last > inside,
                     "PRR recovers after the episode ends");
  return bench::shape_summary();
}
