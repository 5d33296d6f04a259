#include "core/inference.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

// The model's G was formed on the backend active when the model was built
// or loaded. After a set_backend() switch the call forms G again on the
// current backend, so no diagnosis mixes two backends' rounding.
const linalg::NnlsSystem& current_system(
    const Vn2Model& model, std::optional<linalg::NnlsSystem>& rebuilt) {
  const linalg::NnlsSystem& system = model.nnls_system();
  if (system.backend() == linalg::backend()) return system;
  return rebuilt.emplace(system.a());
}

// The per-state body of the one inference kernel. The state is encoded
// once; ε, the verdict and the NNLS right-hand side all come from that
// vector. The workspace is the caller's (one per chunk slot); a warm one
// solves bit-identically to a cold one.
Diagnosis diagnose_one(const linalg::NnlsSystem& system,
                       const Vn2Model& model, const Vector& raw_state,
                       const DiagnoseOptions& options,
                       linalg::NnlsWorkspace& workspace) {
  const Vector encoded = model.encoder().encode(raw_state);
  Diagnosis diagnosis;
  diagnosis.exception_score = linalg::norm2(encoded);
  diagnosis.is_exception = model.is_exception_score(diagnosis.exception_score);

  // NNLS against A = Ψᵀ (86 × r), b = encoded state.
  linalg::NnlsResult solution =
      linalg::nnls(system, encoded, options.nnls, workspace);
  diagnosis.weights = std::move(solution.x);
  diagnosis.residual = solution.residual_norm;

  double top = 0.0;
  for (std::size_t r = 0; r < diagnosis.weights.size(); ++r)
    top = std::max(top, diagnosis.weights[r]);
  const double floor = top * options.strength_floor_fraction;
  for (std::size_t r = 0; r < diagnosis.weights.size(); ++r)
    if (diagnosis.weights[r] > floor && diagnosis.weights[r] > 0.0)
      diagnosis.ranked.push_back({r, diagnosis.weights[r]});
  std::sort(diagnosis.ranked.begin(), diagnosis.ranked.end(),
            [](const RankedCause& a_, const RankedCause& b_) {
              return a_.strength > b_.strength;
            });
  VN2_ASSERT(diagnosis.weights.size() == model.rank(),
             "diagnose: one correlation strength per root cause");
  VN2_ASSERT(diagnosis.ranked.size() <= diagnosis.weights.size(),
             "diagnose: ranked causes are a subset of the weights");
  return diagnosis;
}

void check_batch_input(const Vn2Model& model, const Matrix& raw_states,
                       const char* who) {
  if (!model.trained())
    throw std::invalid_argument(std::string(who) + ": model is not trained");
  VN2_CHECK(raw_states.cols() == metrics::kMetricCount,
            "batch states must match the 43-metric schema");
}

// Receives each finished batch; it may take the diagnoses out of it.
using BatchSink =
    std::function<void(std::size_t first, std::vector<Diagnosis>& batch)>;

// The one inference kernel behind diagnose_batch, diagnose_stream and
// correlation_strengths. It walks raw_states in batches of batch_size
// states and splits each batch into chunks of `chunk` states, one
// parallel_for task per chunk. Chunk slot c owns workspace c in every
// batch (index-owned, so race-free), and each workspace is sized once.
// Finished batches reach the sink serially and in state order.
StreamReport run_kernel(const Vn2Model& model, const Matrix& raw_states,
                        std::size_t batch_size, std::size_t chunk,
                        const DiagnoseOptions& options, const BatchSink& sink) {
  std::optional<linalg::NnlsSystem> rebuilt;
  const linalg::NnlsSystem& system = current_system(model, rebuilt);
  const std::size_t total = raw_states.rows();
  VN2_COUNT_N("vn2.states.diagnosed", total);
  const std::size_t slots = (std::min(batch_size, total) + chunk - 1) / chunk;
  std::vector<linalg::NnlsWorkspace> workspaces(slots);
  // The batch buffer is recycled, so memory stays O(batch_size) however
  // many states flow through.
  std::vector<Diagnosis> batch;
  StreamReport report;
  for (std::size_t first = 0; first < total; first += batch_size) {
    const std::size_t count = std::min(batch_size, total - first);
    batch.resize(count);
    const bool last = first + count == total;
    parallel_for(0, (count + chunk - 1) / chunk, 1, [&](std::size_t c) {
      const std::size_t end = std::min((c + 1) * chunk, count);
      for (std::size_t i = c * chunk; i < end; ++i)
        batch[i] = diagnose_one(system, model,
                                raw_states.row_vector(first + i), options,
                                workspaces[c]);
      // A slot's last chunk frees its workspace, so a one-batch call holds
      // only the running chunks' workspaces at a time.
      if (last) workspaces[c] = linalg::NnlsWorkspace{};
    });
    for (const Diagnosis& d : batch)
      if (d.is_exception) ++report.exceptions;
    report.states += count;
    ++report.batches;
    sink(first, batch);
  }
  return report;
}

}  // namespace

Diagnosis diagnose(const Vn2Model& model, const Vector& raw_state,
                   const DiagnoseOptions& options) {
  if (!model.trained())
    throw std::invalid_argument("diagnose: model is not trained");
  VN2_CHECK(raw_state.size() == metrics::kMetricCount,
            "diagnose: state vector must match the 43-metric schema");
  std::optional<linalg::NnlsSystem> rebuilt;
  linalg::NnlsWorkspace workspace;
  return diagnose_one(current_system(model, rebuilt), model, raw_state,
                      options, workspace);
}

std::vector<Diagnosis> diagnose_batch(const Vn2Model& model,
                                      const Matrix& raw_states,
                                      const DiagnoseOptions& options) {
  check_batch_input(model, raw_states, "diagnose_batch");
  VN2_SPAN("vn2.diagnose_batch");
  // One batch of every state, collected by moving it out.
  std::vector<Diagnosis> diagnoses;
  run_kernel(model, raw_states, std::max<std::size_t>(raw_states.rows(), 1),
             StreamOptions{}.chunk, options,
             [&](std::size_t, std::vector<Diagnosis>& batch) {
               diagnoses = std::move(batch);
             });
  return diagnoses;
}

StreamReport diagnose_stream(const Vn2Model& model, const Matrix& raw_states,
                             const StreamOptions& options,
                             const DiagnosisSink& sink) {
  check_batch_input(model, raw_states, "diagnose_stream");
  VN2_CHECK(options.batch_size > 0, "diagnose_stream: batch_size must be > 0");
  VN2_CHECK(options.chunk > 0, "diagnose_stream: chunk must be > 0");
  VN2_SPAN("vn2.diagnose_stream");
  return run_kernel(model, raw_states, options.batch_size, options.chunk,
                    options.diagnose,
                    [&](std::size_t first, std::vector<Diagnosis>& batch) {
                      VN2_COUNT("vn2.stream.batches");
                      if (sink) sink(first, batch);
                    });
}

Matrix correlation_strengths(const Vn2Model& model, const Matrix& raw_states,
                             const DiagnoseOptions& options) {
  check_batch_input(model, raw_states, "correlation_strengths");
  VN2_SPAN("vn2.correlation_strengths");
  Matrix w(raw_states.rows(), model.rank());
  const StreamOptions stream;
  run_kernel(model, raw_states, stream.batch_size, stream.chunk, options,
             [&](std::size_t first, std::vector<Diagnosis>& batch) {
               for (std::size_t i = 0; i < batch.size(); ++i)
                 for (std::size_t r = 0; r < model.rank(); ++r)
                   w(first + i, r) = batch[i].weights[r];
             });
  return w;
}

Vector mean_strength_profile(const Matrix& w) {
  Vector profile(w.cols());
  if (w.rows() == 0) return profile;
  for (std::size_t j = 0; j < w.cols(); ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < w.rows(); ++i) acc += w(i, j);
    profile[j] = acc / static_cast<double>(w.rows());
  }
  return profile;
}

double profile_correlation(const Vector& a, const Vector& b) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("profile_correlation: size mismatch");
  const double ma = linalg::mean(a);
  const double mb = linalg::mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  const double denom = std::sqrt(va * vb);
  return denom > 0.0 ? cov / denom : 0.0;
}

}  // namespace vn2::core
