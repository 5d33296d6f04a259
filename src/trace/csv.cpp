#include "trace/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vn2::trace {

namespace {

constexpr std::size_t kColumns = 3 + metrics::kMetricCount;

/// An upper bound on one written field: "%.17g" of a double is at most 24
/// characters, an unsigned 64-bit integer at most 20.
constexpr std::size_t kFieldBytes = 32;
constexpr std::size_t kRowBytes = kColumns * kFieldBytes;

/// Throws "csv: line L, column C" followed by `what`.
[[noreturn]] void reject(std::size_t line, std::size_t column,
                         const std::string& what) {
  VN2_COUNT("trace.csv.rejects");
  throw std::runtime_error("csv: line " + std::to_string(line) + ", column " +
                           std::to_string(column) + ": " + what);
}

std::size_t count_fields(std::string_view text) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.end(), ','));
}

/// Rejects a line that does not have kColumns fields, at its first missing
/// or first extra column.
[[noreturn]] void reject_column_count(std::string_view text,
                                      std::size_t line) {
  const std::size_t found = count_fields(text);
  reject(line, std::min(found, kColumns) + 1,
         "expected " + std::to_string(kColumns) + " columns, found " +
             std::to_string(found));
}

/// Reads the fields of one row left to right. Each must parse whole with
/// std::from_chars, and a double must be finite. The parse runs to the end
/// of the row, but no number holds a ',', so a parse that stops at the
/// next separator (or the row's end) has taken exactly that field.
class RowParser {
 public:
  RowParser(std::string_view row, std::size_t line)
      : next_(row.data()), end_(row.data() + row.size()), row_(row),
        line_(line) {}

  template <typename T>
  T field() {
    if (next_ == nullptr) reject_column_count(row_, line_);
    ++column_;
    T value{};
    const auto [stop, ec] = std::from_chars(next_, end_, value);
    const char* kind = nullptr;
    if (ec == std::errc::result_out_of_range) {
      kind = "out-of-range";
    } else if (ec != std::errc{} || (stop != end_ && *stop != ',')) {
      kind = "malformed";
    } else if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) kind = "non-finite";
    }
    if (kind != nullptr) reject_field(kind);
    next_ = stop == end_ ? nullptr : stop + 1;
    return value;
  }

  /// Rejects a row with fields left over.
  void finish() const {
    if (next_ != nullptr) reject_column_count(row_, line_);
  }

 private:
  [[noreturn]] void reject_field(const char* kind) const {
    constexpr std::size_t kShown = 40;
    const std::string_view field(next_, std::find(next_, end_, ',') - next_);
    reject(line_, column_,
           std::string(kind) + " field '" +
               std::string(field.substr(0, kShown)) +
               (field.size() > kShown ? "...'" : "'"));
  }

  const char* next_;  ///< Start of the next field; null after the last.
  const char* end_;
  std::string_view row_;
  std::size_t line_;
  std::size_t column_ = 0;
};

/// Writes "%.17g" of `value`, which is what an ostream at precision 17
/// prints and reads back to the same bits.
char* put(char* out, double value) {
  return std::to_chars(out, out + kFieldBytes, value,
                       std::chars_format::general, 17)
      .ptr;
}

template <typename Int>
char* put(char* out, Int value) {
  return std::to_chars(out, out + kFieldBytes, value).ptr;
}

}  // namespace

void write_trace_csv(std::ostream& os, const Trace& trace) {
  std::string header = "node,epoch,time";
  for (metrics::MetricId id : metrics::all_metrics())
    (header += ',') += name(id);
  header += '\n';
  os.write(header.data(), static_cast<std::streamsize>(header.size()));

  // Rows are formatted into one block, flushed once it holds
  // kCsvBlockBytes; a row always starts with kRowBytes of room.
  std::vector<char> block(kCsvBlockBytes + kRowBytes);
  char* out = block.data();
  const auto flush = [&] {
    os.write(block.data(), out - block.data());
    out = block.data();
  };
  for (const NodeSeries& series : trace.nodes) {
    for (const Snapshot& snap : series.snapshots) {
      out = put(out, series.node);
      *out++ = ',';
      out = put(out, snap.epoch);
      *out++ = ',';
      out = put(out, snap.time);
      for (double v : snap.values) {
        *out++ = ',';
        out = put(out, v);
      }
      *out++ = '\n';
      if (out >= block.data() + kCsvBlockBytes) flush();
    }
  }
  flush();
}

void write_trace_csv_file(const std::string& path, const Trace& trace) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open for write: " + path);
  write_trace_csv(file, trace);
  file.close();
  if (!file) throw std::runtime_error("cannot write: " + path);
}

Trace read_trace_csv(std::istream& is) {
  std::map<wsn::NodeId, NodeSeries> by_node;
  std::size_t line = 0;
  std::size_t rows = 0;
  const auto take_line = [&](std::string_view text) {
    ++line;
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    if (line == 1) {  // The header: only its column count is checked.
      if (count_fields(text) != kColumns) reject_column_count(text, line);
      return;
    }
    if (text.empty()) return;
    RowParser row(text, line);
    const auto node = row.field<wsn::NodeId>();
    Snapshot snap;
    snap.epoch = row.field<std::uint64_t>();
    snap.time = row.field<double>();
    for (double& value : snap.values) value = row.field<double>();
    row.finish();
    NodeSeries& series = by_node[node];
    series.node = node;
    series.snapshots.push_back(snap);
    ++rows;
  };

  // Lines are taken from each block in place; only a line cut by a block
  // boundary is copied, into `carry`, until its end arrives.
  std::vector<char> block(kCsvBlockBytes);
  std::string carry;
  while (is) {
    is.read(block.data(), static_cast<std::streamsize>(block.size()));
    const char* next = block.data();
    const char* end = next + is.gcount();
    while (next != end) {
      const auto* newline =
          static_cast<const char*>(std::memchr(next, '\n', end - next));
      if (newline == nullptr) {
        carry.append(next, end);
        break;
      }
      if (carry.empty()) {
        take_line({next, static_cast<std::size_t>(newline - next)});
      } else {
        carry.append(next, newline);
        take_line(carry);
        carry.clear();
      }
      next = newline + 1;
    }
  }
  if (is.bad()) throw std::runtime_error("csv: read error");
  if (!carry.empty()) take_line(carry);
  if (line == 0) throw std::runtime_error("csv: empty trace file");
  VN2_COUNT_N("trace.csv.rows", rows);

  Trace trace;
  for (auto& [id, series] : by_node) {
    std::sort(series.snapshots.begin(), series.snapshots.end(),
              [](const Snapshot& a, const Snapshot& b) {
                return a.epoch < b.epoch;
              });
    trace.node_count = std::max<std::size_t>(trace.node_count, id + 1u);
    for (const Snapshot& s : series.snapshots)
      trace.duration = std::max(trace.duration, s.time);
    trace.nodes.push_back(std::move(series));
  }
  return trace;
}

Trace read_trace_csv_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open for read: " + path);
  return read_trace_csv(file);
}

}  // namespace vn2::trace
