#include "nmf/rank_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::nmf {

std::vector<RankPoint> rank_sweep(const linalg::Matrix& e,
                                  const std::vector<std::size_t>& ranks,
                                  const RankSweepOptions& options) {
  const std::size_t max_rank = std::min(e.rows(), e.cols());
  std::vector<std::size_t> valid;
  valid.reserve(ranks.size());
  for (std::size_t r : ranks)
    if (r >= 1 && r <= max_rank) valid.push_back(r);
  VN2_ASSERT(valid.size() <= ranks.size(),
             "rank_sweep: candidate filter must not invent ranks");

  // Each rank's factorization is seeded independently (the golden-ratio
  // stride decorrelates initializations while staying deterministic), so
  // the sweep is embarrassingly parallel: every slot is written by exactly
  // one rank and the output order matches the serial loop. Tasks walk the
  // candidates from the back, so with the usual ascending list the costliest
  // fits start first and the cheap ones fill the tail.
  std::vector<RankPoint> sweep(valid.size());
  VN2_SPAN("nmf.rank_sweep");
  VN2_COUNT_N("nmf.rank_sweep.candidates", valid.size());
  core::parallel_for(0, valid.size(), 1, [&](std::size_t task) {
    const std::size_t index = valid.size() - 1 - task;
    const std::size_t r = valid[index];
    NmfOptions nmf_options = options.nmf;
    nmf_options.seed = options.nmf.seed + r * 0x9e3779b9ULL;
    NmfResult model = factorize(e, r, nmf_options);
    RankPoint point;
    point.rank = r;
    point.accuracy_original = model.approximation_accuracy(e);
    SparsifyResult sparse = sparsify(model.w, options.sparsify);
    point.accuracy_sparse =
        approximation_accuracy(e, sparse.w_sparse, model.psi);
    sweep[index] = point;
  });
#if VN2_CONTRACTS_ACTIVE
  for (const RankPoint& point : sweep)
    VN2_ASSERT(point.rank >= 1 && point.rank <= max_rank,
               "rank_sweep: every swept rank must be in [1, min(n, m)]");
#endif
  return sweep;
}

RankChoice choose_rank(const std::vector<RankPoint>& sweep,
                       double knee_fraction, double divergence_fraction) {
  VN2_CHECK(!sweep.empty(), "choose_rank: empty sweep");

  std::vector<RankPoint> sorted = sweep;
  std::sort(sorted.begin(), sorted.end(),
            [](const RankPoint& a, const RankPoint& b) { return a.rank < b.rank; });
  const std::size_t n = sorted.size();
  if (n == 1) return {sorted.front().rank, 0};

  // Floor (paper criterion 1): avoid the small-r regime where α blows up.
  // The steep regime ends at the first point whose marginal α improvement
  // per added rank drops below knee_fraction of the largest improvement.
  std::vector<double> improvement(n, 0.0);
  double best_improvement = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double dr = static_cast<double>(sorted[i].rank - sorted[i - 1].rank);
    improvement[i] =
        (sorted[i - 1].accuracy_original - sorted[i].accuracy_original) /
        std::max(dr, 1.0);
    best_improvement = std::max(best_improvement, improvement[i]);
  }
  std::size_t floor_index = n - 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (improvement[i] < knee_fraction * best_improvement) {
      floor_index = i;
      break;
    }
  }

  // Ceiling (paper criterion 2): stop before the sparsified W̄ diverges
  // from the dense W. The gap is measured relative to the dense accuracy,
  // and "diverged" is scale-free: the relative gap has grown past 4× its
  // small-r minimum (with divergence_fraction as an absolute cap). This is
  // the paper's reading of Fig. 3(b) — the sparse curve departs visibly
  // around r ≈ 30, so it settles one notch lower, at 25.
  std::vector<double> rel_gap(n, 0.0);
  double min_gap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::max(sorted[i].accuracy_original, 1e-30);
    rel_gap[i] =
        (sorted[i].accuracy_sparse - sorted[i].accuracy_original) / scale;
    if (rel_gap[i] > 0.0) min_gap = std::min(min_gap, rel_gap[i]);
  }
  if (!std::isfinite(min_gap)) min_gap = 0.0;
  const double gap_threshold =
      std::min(divergence_fraction, 4.0 * std::max(min_gap, 1e-6));
  std::size_t ceiling_index = 0;
  bool any_admissible = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (rel_gap[i] <= gap_threshold) {
      ceiling_index = i;
      any_admissible = true;
    }
  }
  if (!any_admissible) ceiling_index = floor_index;  // Sparsity never behaves.

  // Reconcile the two criteria exactly as the paper does. When α is still
  // improving at the divergence boundary (floor past ceiling), sparsity
  // decides — that is how the paper lands on 25 with its α still falling at
  // 40. When α flattens before sparsity degrades (floor below ceiling),
  // Occam's razor decides: extra rank buys nothing, stop at the knee.
  const std::size_t choice = std::min(floor_index, ceiling_index);
  VN2_ASSERT(choice < n, "choose_rank: chosen index must be inside the sweep");
  return {sorted[choice].rank, choice};
}

}  // namespace vn2::nmf
