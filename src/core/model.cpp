#include "core/model.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "telemetry/telemetry.hpp"

namespace vn2::core {

using linalg::Matrix;
using linalg::Vector;

Vn2Model::Vn2Model(Matrix psi, StateEncoder encoder, double train_max_score,
                   double exception_threshold)
    : psi_(std::move(psi)),
      encoder_(std::move(encoder)),
      train_max_score_(train_max_score),
      exception_threshold_(exception_threshold) {
  if (psi_.cols() != kEncodedCount)
    throw std::invalid_argument("Vn2Model: psi must have 86 columns");
  nnls_system_ = linalg::NnlsSystem(linalg::transpose(psi_));
}

Vector Vn2Model::root_cause_profile(std::size_t row) const {
  return StateEncoder::decode_signed(psi_.row_vector(row));
}

double Vn2Model::exception_score(const Vector& raw_state) const {
  return encoder_.deviation_score(raw_state);
}

bool Vn2Model::is_exception(const Vector& raw_state) const {
  return is_exception_score(exception_score(raw_state));
}

bool Vn2Model::is_exception_score(double score) const noexcept {
  if (train_max_score_ <= 0.0) return false;
  return score / train_max_score_ >= exception_threshold_;
}

bool Vn2Model::operator==(const Vn2Model& other) const {
  return psi_ == other.psi_ && encoder_ == other.encoder_ &&
         train_max_score_ == other.train_max_score_ &&
         exception_threshold_ == other.exception_threshold_;
}

namespace {

void write_matrix(std::ostream& os, const Matrix& m) {
  os << m.rows() << ' ' << m.cols() << '\n';
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j) os << ' ';
      os << m(i, j);
    }
    os << '\n';
  }
}

// Reads a model file token by token. Every token must parse whole, and
// every failure names the file and the problem.
class ModelReader {
 public:
  ModelReader(std::istream& is, const std::string& path)
      : is_(is), path_(path) {}

  [[noreturn]] void fail(const std::string& problem) const {
    throw std::runtime_error("model load: " + path_ + ": " + problem);
  }

  template <class T>
  T next(const std::string& what) {
    std::string token;
    if (!(is_ >> token)) fail("truncated " + what);
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end)
      fail("bad " + what + " '" + token + "'");
    return value;
  }

  // A matrix whose shape the format fixes: the header is checked before
  // anything is allocated, and every entry must be finite.
  Matrix matrix(const std::string& what, std::size_t min_rows,
                std::size_t max_rows, std::size_t cols) {
    const auto rows = next<std::size_t>(what + " row count");
    const auto width = next<std::size_t>(what + " column count");
    if (rows < min_rows || rows > max_rows || width != cols) {
      std::string want = std::to_string(max_rows);
      if (min_rows != max_rows) want = std::to_string(min_rows) + ".." + want;
      fail(what + " is " + std::to_string(rows) + " x " +
           std::to_string(width) + ", want " + want + " x " +
           std::to_string(cols));
    }
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) {
        m(i, j) = next<double>(what + " entry");
        if (!std::isfinite(m(i, j)))
          fail(what + " entry (" + std::to_string(i) + ", " +
               std::to_string(j) + ") is not finite");
      }
    return m;
  }

 private:
  std::istream& is_;
  const std::string& path_;
};

}  // namespace

void Vn2Model::save(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("model save: cannot open " + path);
  file.precision(17);
  file << "VN2MODEL 2\n";
  file << train_max_score_ << ' ' << exception_threshold_ << '\n';
  write_matrix(file, psi_);
  write_matrix(file, encoder_.to_matrix());
  if (!file) throw std::runtime_error("model save: write failed " + path);
}

Vn2Model Vn2Model::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("model load: cannot open " + path);
  std::string magic;
  int version = 0;
  if (!(file >> magic >> version) || magic != "VN2MODEL" || version != 2)
    throw std::runtime_error("model load: bad header in " + path);
  ModelReader reader(file, path);
  const auto train_max_score = reader.next<double>("stats line");
  const auto exception_threshold = reader.next<double>("stats line");
  if (!std::isfinite(train_max_score) || !std::isfinite(exception_threshold))
    reader.fail("stats line is not finite");
  Matrix psi = reader.matrix("psi", 1, kEncodedCount, kEncodedCount);
  for (std::size_t i = 0; i < psi.rows(); ++i)
    for (std::size_t j = 0; j < psi.cols(); ++j)
      if (psi(i, j) < 0.0)
        reader.fail("psi entry (" + std::to_string(i) + ", " +
                    std::to_string(j) + ") is negative");
  const Matrix encoder = reader.matrix("encoder", 3, 3, metrics::kMetricCount);
  try {
    return Vn2Model(std::move(psi), StateEncoder::from_matrix(encoder),
                    train_max_score, exception_threshold);
  } catch (const std::invalid_argument& e) {
    reader.fail(e.what());
  }
}

TrainingReport train(const Matrix& raw_states, const TrainingOptions& options) {
  VN2_CHECK(raw_states.rows() > 0 &&
                raw_states.cols() == metrics::kMetricCount,
            "train: need a non-empty n x 43 state matrix");

  VN2_SPAN("vn2.train");
  TrainingReport report;
  report.training_states = raw_states.rows();

  const StateEncoder encoder =
      StateEncoder::fit(raw_states, options.clip_sigma);
  const Matrix encoded = encoder.encode(raw_states);

  // ε rule: standardized deviation from the training mean, clipped at
  // ±clip_sigma per metric like the encoding (see
  // StateEncoder::deviation_score).
  report.detection.scores = Vector(encoded.rows());
  for (std::size_t i = 0; i < raw_states.rows(); ++i) {
    report.detection.scores[i] =
        encoder.deviation_score(raw_states.row_vector(i));
    report.detection.max_score =
        std::max(report.detection.max_score, report.detection.scores[i]);
  }
  if (report.detection.max_score > 0.0) {
    for (std::size_t i = 0; i < encoded.rows(); ++i)
      if (report.detection.scores[i] / report.detection.max_score >=
          options.exception_threshold)
        report.detection.exception_rows.push_back(i);
  }

  Matrix train_input;
  if (options.skip_exception_extraction) {
    train_input = encoded;
    report.exception_states = encoded.rows();
  } else {
    for (std::size_t row : report.detection.exception_rows)
      train_input.append_row(encoded.row(row));
    report.exception_states = train_input.rows();
    if (train_input.rows() == 0)
      throw std::invalid_argument(
          "train: exception extraction found no exception states");
  }

  // Rank: given or swept (Fig. 3(b) procedure).
  std::size_t rank = options.rank;
  if (rank == 0) {
    std::vector<std::size_t> candidates = options.candidate_ranks;
    if (candidates.empty())
      for (std::size_t r = 5; r <= 40; r += 5) candidates.push_back(r);
    nmf::RankSweepOptions sweep_options;
    sweep_options.nmf = options.nmf;
    sweep_options.sparsify = options.sparsify;
    report.rank_sweep = nmf::rank_sweep(train_input, candidates, sweep_options);
    if (report.rank_sweep.empty())
      throw std::invalid_argument("train: no feasible candidate rank");
    rank = nmf::choose_rank(report.rank_sweep).rank;
  }
  if (rank > std::min(train_input.rows(), train_input.cols()))
    throw std::invalid_argument(
        "train: rank exceeds exception-state matrix dimensions");
  report.chosen_rank = rank;

  report.nmf = nmf::factorize(train_input, rank, options.nmf);
  report.model = Vn2Model(report.nmf.psi, encoder,
                          report.detection.max_score,
                          options.exception_threshold);
  return report;
}

}  // namespace vn2::core
