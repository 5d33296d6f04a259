// The one JSON codec for every document VN2 writes and reads back: profile
// snapshots and trace events (sink.hpp), their call trees (calltree.hpp)
// and bench records and baselines (benchstat/record.hpp).
//
// Writers build their documents by hand with `quoted` and `number`, so
// the layout stays readable and stable; readers `parse` the whole document
// into a Value tree and pick fields from it. The parser is strict: a
// number token must parse whole and be finite, a \u escape needs four hex
// digits, and trailing garbage or a truncated document throws
// std::runtime_error("json: parse error at offset N: ...").
//
// Like the rest of telemetry, this never opens files.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vn2::telemetry::json {

/// One parsed JSON value. Objects keep their members in document order.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject

  /// The first member named `key`, or nullptr (also for non-objects).
  [[nodiscard]] const Value* get(std::string_view key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parses one whole document. Throws std::runtime_error with the byte
/// offset of the first malformed token.
[[nodiscard]] Value parse(std::string_view text);

/// Compact re-serialization (no whitespace); parses back to an equal tree.
[[nodiscard]] std::string write_compact(const Value& value);

/// `text` as a JSON string literal, quotes included; control characters
/// are escaped, every other byte is copied as is.
[[nodiscard]] std::string quoted(std::string_view text);

/// `value` as a JSON number that parses back bit for bit (%.17g). JSON has
/// no NaN or infinity, so a non-finite value is written as `null`.
[[nodiscard]] std::string number(double value);

}  // namespace vn2::telemetry::json
