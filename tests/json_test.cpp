// Tests for the JSON codec (telemetry/json.hpp) that every snapshot, call
// tree and bench record is read with: the parser rejects malformed numbers,
// escapes and documents, decodes \u escapes to UTF-8, and every token
// quoted() and number() emit parses back bit for bit.
#include "telemetry/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace vn2::telemetry::json {
namespace {

TEST(Json, MalformedDocumentsThrow) {
  for (const char* bad :
       {"1.0.5", "1e", "1-0", "12abc", "1e999", "-", "+1", "\"\\u12zz\"",
        "\"\\q\"", "{\"a\": 1} x", "[1, 2", "{\"a\": ", "{\"a\": 1.0.5}",
        ""}) {
    try {
      (void)parse(bad);
      ADD_FAILURE() << "parsed: " << bad;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("at offset"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Json, EmittedTokensParseBack) {
  std::string text;
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  text += "\"\\/ plain";
  const Value parsed_text = parse(json::quoted(text));
  ASSERT_EQ(parsed_text.kind, Value::Kind::kString);
  EXPECT_EQ(parsed_text.str, text);

  for (const double x : {0.1, -2.5e-300, 1.0 / 3.0, -0.0, 1e300, 5.9e9}) {
    const Value parsed = parse(number(x));
    ASSERT_EQ(parsed.kind, Value::Kind::kNumber) << number(x);
    EXPECT_EQ(std::memcmp(&parsed.num, &x, sizeof x), 0) << number(x);
  }
  // JSON has no token for NaN or infinity; they are written as null.
  EXPECT_EQ(parse(number(std::nan(""))).kind, Value::Kind::kNull);
  EXPECT_EQ(parse(number(-std::numeric_limits<double>::infinity())).kind,
            Value::Kind::kNull);

  EXPECT_EQ(write_compact(parse("{\"a\": [1, 0.5, true, null, \"x\\ty\"],"
                                " \"b\": {}}")),
            "{\"a\":[1,0.5,true,null,\"x\\ty\"],\"b\":{}}");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse("\"\\u00e9\"").str, "\xC3\xA9");      // U+00E9
  EXPECT_EQ(parse("\"\\u20ac\"").str, "\xE2\x82\xAC");  // U+20AC
  // A surrogate pair joins into one code point above U+FFFF.
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").str, "\xF0\x9F\x98\x80");  // U+1F600
  EXPECT_EQ(parse("\"a\\u0041\\u007f\"").str, "aA\x7F");
  // A lone surrogate names no code point.
  for (const char* bad :
       {"\"\\ud800\"", "\"\\ud800x\"", "\"\\ud800\\u0041\"", "\"\\ude00\""}) {
    try {
      (void)parse(bad);
      ADD_FAILURE() << "parsed: " << bad;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("surrogate"), std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace vn2::telemetry::json
