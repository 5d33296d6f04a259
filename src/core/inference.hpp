// Online inference (paper, Problem 3): given a fresh node state S_v and the
// representative matrix Ψ, solve
//
//     argmin_w ‖S_v − w·Ψ‖²   s.t.  w ≥ 0
//
// (non-negative least squares) to obtain the correlation strength of every
// root-cause vector; non-zero entries identify the root causes active at
// this moment and their magnitudes quantize each cause's influence.
//
// Every entry point below runs one kernel per state: encode the state
// once, take ε and the verdict from that vector, and solve the NNLS
// against the model's prepared system (Ψᵀ and G = ΨΨᵀ, formed when the
// model was built or loaded; see Vn2Model::nnls_system). The batch entry
// points run it in chunks, one NnlsWorkspace per chunk slot, so a state's
// result is bit-identical whichever entry point, thread count, batch size
// or chunk size produced it.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/model.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"

namespace vn2::core {

struct DiagnoseOptions {
  /// Weights below this fraction of the top weight are reported as inactive.
  double strength_floor_fraction = 0.05;
  linalg::NnlsOptions nnls;
};

struct RankedCause {
  std::size_t row = 0;      ///< Row of Ψ (root-cause vector index).
  double strength = 0.0;    ///< Correlation strength w_row.
};

struct Diagnosis {
  linalg::Vector weights;   ///< Full w (size r), non-negative.
  double residual = 0.0;    ///< ‖s − wΨ‖₂ in encoded space.
  double exception_score = 0.0;  ///< ε of the raw state vs training stats.
  bool is_exception = false;     ///< ε rule verdict.
  std::vector<RankedCause> ranked;  ///< Active causes, strongest first.
};

/// Diagnoses one raw state vector (43 metric diffs).
Diagnosis diagnose(const Vn2Model& model, const linalg::Vector& raw_state,
                   const DiagnoseOptions& options = {});

/// Diagnoses a batch of raw states (n × 43), solving the independent
/// per-state NNLS problems across the global worker pool (see
/// core/parallel.hpp) in chunks of StreamOptions{}.chunk states. Result i
/// equals diagnose(model, row i, options) bit-for-bit at any thread count.
std::vector<Diagnosis> diagnose_batch(const Vn2Model& model,
                                      const linalg::Matrix& raw_states,
                                      const DiagnoseOptions& options = {});

/// Tuning for diagnose_stream's bounded-queue batch loop.
struct StreamOptions {
  /// States resident in the queue at once — the memory bound. The stream
  /// path never materializes more than this many Diagnosis objects.
  std::size_t batch_size = 1024;
  /// States per parallel_for task, and one NnlsWorkspace per chunk slot,
  /// sized once and reused across batches.
  std::size_t chunk = 64;
  DiagnoseOptions diagnose;
};

/// What a completed stream processed.
struct StreamReport {
  std::size_t states = 0;     ///< Rows diagnosed.
  std::size_t batches = 0;    ///< Sink invocations.
  std::size_t exceptions = 0; ///< States flagged by the ε rule.
};

/// Receives each completed batch, serially and in state order: `first` is
/// the global row index of `batch.front()`. The batch buffer is reused for
/// the next batch — copy anything that must outlive the call.
using DiagnosisSink =
    std::function<void(std::size_t first, const std::vector<Diagnosis>& batch)>;

/// Streaming sink-side inference for millions-of-states workloads: pulls
/// raw_states through a bounded queue of batch_size states, diagnoses each
/// batch across the worker pool in chunks, and hands finished batches to
/// the sink in order. Per state the result equals
/// diagnose(model, row, options.diagnose) bit-for-bit at any thread count,
/// batch size, or chunk size: chunk slot c owns workspace c (index-owned,
/// race-free) and a warm NnlsWorkspace is result-identical to a cold one.
StreamReport diagnose_stream(const Vn2Model& model,
                             const linalg::Matrix& raw_states,
                             const StreamOptions& options,
                             const DiagnosisSink& sink);

/// Computes the full correlation-strength matrix W (n × r) for a batch of
/// raw states — the data behind the paper's Fig. 3(c), 5(b), 6(b) scatters.
/// Row i equals diagnose_batch's weights of state i bit-for-bit; states
/// flow through in StreamOptions{} batches and only the weights are kept.
linalg::Matrix correlation_strengths(const Vn2Model& model,
                                     const linalg::Matrix& raw_states,
                                     const DiagnoseOptions& options = {});

/// Column means of a strength matrix — the per-root-cause profile the paper
/// plots in Fig. 5(g)–(i) and 6(b).
linalg::Vector mean_strength_profile(const linalg::Matrix& w);

/// Pearson correlation between two strength profiles (used to compare
/// training vs testing distributions in Fig. 5(h)/(i)).
double profile_correlation(const linalg::Vector& a, const linalg::Vector& b);

}  // namespace vn2::core
