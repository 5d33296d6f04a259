#include "telemetry/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace vn2::telemetry::json {

namespace {

/// A recursive-descent parser over one whole document.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        return parse_null();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key.str), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value parse_string() {
    Value v;
    v.kind = Value::Kind::kString;
    expect('"');
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c != '\\') {
        v.str += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          v.str += esc;
          break;
        case 'n':
          v.str += '\n';
          break;
        case 't':
          v.str += '\t';
          break;
        case 'r':
          v.str += '\r';
          break;
        case 'b':
          v.str += '\b';
          break;
        case 'f':
          v.str += '\f';
          break;
        case 'u':
          append_utf8(v.str, parse_code_point());
          break;
        default:
          fail(std::string("bad escape '\\") + esc + "'");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("short \\u escape");
    const char* first = text_.data() + pos_;
    unsigned code = 0;
    const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
    if (ec != std::errc{} || end != first + 4) fail("bad \\u escape");
    pos_ += 4;
    return code;
  }

  /// The code point of a \u escape whose "\u" is already consumed. A high
  /// surrogate must be followed by an escaped low one, and the pair names
  /// one code point above U+FFFF; a lone surrogate is an error.
  unsigned parse_code_point() {
    const unsigned code = parse_hex4();
    if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate");
    if (code < 0xD800 || code > 0xDBFF) return code;
    if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
    pos_ += 2;
    const unsigned low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
    return 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_bool() {
    Value v;
    v.kind = Value::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Value parse_null() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    return Value{};
  }

  /// The token runs over every character a number may hold and must parse
  /// whole: "1.0.5", "1e" and "1-0" are errors, not 1.
  Value parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, v.num);
    if (ec != std::errc{} || end != last || !std::isfinite(v.num)) {
      pos_ = start;
      fail("bad number '" + std::string(first, last) + "'");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void write_value(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      out += number(v.num);
      break;
    case Value::Kind::kString:
      out += quoted(v.str);
      break;
    case Value::Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i != 0) out += ',';
        write_value(v.items[i], out);
      }
      out += ']';
      break;
    case Value::Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i != 0) out += ',';
        out += quoted(v.members[i].first);
        out += ':';
        write_value(v.members[i].second, out);
      }
      out += '}';
      break;
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string write_compact(const Value& value) {
  std::string out;
  write_value(value, out);
  return out;
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN or infinity.
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace vn2::telemetry::json
