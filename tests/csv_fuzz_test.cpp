// Fuzz-style robustness tests for the CSV trace reader: a checked-in
// corpus of malformed inputs (truncated rows, NaN/negative counters,
// embedded NULs, oversized lines, overflowing numbers, trailing garbage,
// hex, out-of-range node and epoch fields) plus seeded random mutations of
// a valid trace and of one that spans several read blocks. The contract
// under test: malformed input is reported with a std::exception, never a
// crash or UB — CI runs this suite under ASan+UBSan. Inputs that do parse
// are pushed through extract_states/states_matrix so downstream layers see
// the hostile data too.
#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "support/csv_traces.hpp"
#include "trace/trace.hpp"

namespace vn2::trace {
namespace {

/// Iteration count for the seeded-mutation tests. The default keeps the
/// suite fast for every tier-1 run; CI's fuzz smoke step raises it via
/// VN2_CSV_FUZZ_ROUNDS to buy a deeper (still fixed-iteration,
/// deterministic) sweep on a ~30 s budget.
int fuzz_rounds(int fallback) {
  const char* value = std::getenv("VN2_CSV_FUZZ_ROUNDS");
  if (value == nullptr) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

/// Parses `text` as a trace CSV and, when it parses, runs the state
/// extraction pipeline on the result. Any std::exception is the expected
/// way to reject garbage.
void exercise(const std::string& text) {
  std::istringstream in(text);
  try {
    const Trace trace = read_trace_csv(in);
    const auto states = extract_states(trace);
    (void)states_matrix(states);
  } catch (const std::exception&) {
    // Rejection via exception is the contract; silence is success.
  }
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CsvFuzz, CorpusFilesNeverCrash) {
  const std::filesystem::path dir(VN2_CSV_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    exercise(read_bytes(entry.path()));
    ++seen;
  }
  EXPECT_GE(seen, 8u) << "corpus unexpectedly small";
}

TEST(CsvFuzz, CorpusValidFileStillParses) {
  const std::filesystem::path file =
      std::filesystem::path(VN2_CSV_CORPUS_DIR) / "valid_small.csv";
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << file;
  const Trace trace = read_trace_csv(in);
  EXPECT_EQ(trace.nodes.size(), 2u);
  EXPECT_EQ(trace.total_snapshots(), 4u);
  // One diff per node: 2 snapshots each.
  EXPECT_EQ(extract_states(trace).size(), 2u);
}

/// A small deterministic trace to mutate: 3 nodes, 4 epochs, distinct
/// values so field boundaries land everywhere in the text.
std::string valid_trace_csv() {
  Trace trace;
  trace.node_count = 3;
  for (wsn::NodeId node = 0; node < 3; ++node) {
    NodeSeries series;
    series.node = node;
    for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
      Snapshot snap;
      snap.epoch = epoch;
      snap.time = 60.0 * static_cast<double>(epoch) + node;
      for (std::size_t m = 0; m < metrics::kMetricCount; ++m)
        snap.values[m] = static_cast<double>(node * 1000 + epoch * 50 + m) /
                         static_cast<double>(m + 1);
      series.snapshots.push_back(snap);
    }
    trace.duration = series.snapshots.back().time;
    trace.nodes.push_back(series);
  }
  std::ostringstream out;
  write_trace_csv(out, trace);
  return out.str();
}

TEST(CsvFuzz, MutatedValidTracesNeverCrash) {
  const std::string base = valid_trace_csv();
  ASSERT_FALSE(base.empty());
  std::mt19937_64 rng(0xC5Fu);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> op(0, 3);

  const int rounds = fuzz_rounds(300);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng() % 8);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = pos(rng) % mutated.size();
      switch (op(rng)) {
        case 0:  // overwrite with an arbitrary byte (NUL included)
          mutated[at] = static_cast<char>(byte(rng));
          break;
        case 1:  // delete one byte
          mutated.erase(at, 1);
          break;
        case 2:  // insert an arbitrary byte
          mutated.insert(at, 1, static_cast<char>(byte(rng)));
          break;
        default:  // truncate mid-structure
          mutated.resize(at);
          break;
      }
      if (mutated.empty()) break;
    }
    SCOPED_TRACE("round " + std::to_string(round));
    exercise(mutated);
  }
}

TEST(CsvFuzz, MutatedMultiBlockTraceNeverCrashes) {
  // The reader takes the file in blocks of kCsvBlockBytes and carries a
  // line cut by a block boundary over to the next block. Each round edits
  // the text within a few bytes of every boundary, so cut lines, separators,
  // CRs and newlines land on both sides of it.
  std::string base;
  {
    std::ostringstream out;
    write_trace_csv(out, testing::synthetic_trace(12, 400, 0xB10C));
    base = out.str();
  }
  ASSERT_GE(base.size(), kCsvBlockBytes * 5 / 2);
  const std::size_t boundaries = base.size() / kCsvBlockBytes;
  std::mt19937_64 rng(0xB10Cu);
  std::uniform_int_distribution<int> offset(-4, 4);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> op(0, 5);
  const char special[] = {',', '\n', '\r', '\0', '-', 'e'};

  // Each round parses megabytes, so it runs a 25th of the small-trace
  // rounds.
  const int rounds = std::max(1, fuzz_rounds(300) / 25);
  for (int round = 0; round < rounds; ++round) {
    std::string mutated = base;
    // Last boundary first, so an edit does not move the earlier ones.
    for (std::size_t k = boundaries; k >= 1; --k) {
      const std::size_t at = static_cast<std::size_t>(
          static_cast<long>(k * kCsvBlockBytes) + offset(rng));
      if (at >= mutated.size()) continue;
      switch (op(rng)) {
        case 0:  // overwrite with an arbitrary byte
          mutated[at] = static_cast<char>(byte(rng));
          break;
        case 1:  // overwrite with a byte the reader treats specially
          mutated[at] = special[rng() % sizeof special];
          break;
        case 2:  // delete one byte
          mutated.erase(at, 1);
          break;
        case 3:  // insert a byte the reader treats specially
          mutated.insert(at, 1, special[rng() % sizeof special]);
          break;
        case 4:  // truncate at the boundary
          mutated.resize(at);
          break;
        default:  // leave this boundary alone
          break;
      }
    }
    SCOPED_TRACE("round " + std::to_string(round));
    exercise(mutated);
  }
}

}  // namespace
}  // namespace vn2::trace
