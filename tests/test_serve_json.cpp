// The serve JSON codec (serve/json.h): strictness of the parser and the
// determinism contract — for documents this codec produced,
// serialize -> parse -> re-serialize is byte-stable.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "serve/json.h"
#include "util/rng.h"

namespace h2h {
namespace {

using json::Array;
using json::Object;
using json::Value;

[[nodiscard]] Value parse_ok(const std::string& text) {
  json::ParseResult r = json::parse(text);
  EXPECT_TRUE(r.value.has_value()) << text << " -> " << r.error;
  return r.value ? std::move(*r.value) : Value();
}

void expect_parse_fails(const std::string& text, const char* why) {
  const json::ParseResult r = json::parse(text);
  EXPECT_FALSE(r.value.has_value()) << why << ": " << text;
  EXPECT_FALSE(r.error.empty());
}

TEST(ServeJson, DumpsScalarsCanonically) {
  EXPECT_EQ(json::dump(Value(nullptr)), "null");
  EXPECT_EQ(json::dump(Value(true)), "true");
  EXPECT_EQ(json::dump(Value(false)), "false");
  EXPECT_EQ(json::dump(Value(1.0)), "1");
  EXPECT_EQ(json::dump(Value(0.5)), "0.5");
  EXPECT_EQ(json::dump(Value(-3.25)), "-3.25");
  EXPECT_EQ(json::dump(Value("hi")), "\"hi\"");
  EXPECT_EQ(json::dump(Value("a\"b\\c\n")), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json::dump(Value(std::string("\x01", 1))), "\"\\u0001\"");
}

TEST(ServeJson, ObjectsPreserveInsertionOrder) {
  Object obj;
  obj.set("zebra", Value(1.0));
  obj.set("alpha", Value(2.0));
  obj.set("mid", Value(3.0));
  EXPECT_EQ(json::dump(Value(std::move(obj))),
            "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(ServeJson, SetOverwritesInPlace) {
  Object obj;
  obj.set("a", Value(1.0));
  obj.set("b", Value(2.0));
  obj.set("a", Value(9.0));
  EXPECT_EQ(json::dump(Value(std::move(obj))), "{\"a\":9,\"b\":2}");
}

TEST(ServeJson, ParsesNestedDocuments) {
  const Value v = parse_ok(
      R"({"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x\u0041y"})");
  const Object& obj = v.as_object();
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(obj.find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(obj.find("b")->as_object().find("c")->as_bool());
  EXPECT_TRUE(obj.find("b")->as_object().find("d")->is_null());
  EXPECT_EQ(obj.find("e")->as_string(), "xAy");
}

TEST(ServeJson, ParserIsStrict) {
  expect_parse_fails("", "empty input");
  expect_parse_fails("{\"a\":1,}", "trailing comma");
  expect_parse_fails("[1 2]", "missing comma");
  expect_parse_fails("{\"a\":1} extra", "trailing garbage");
  expect_parse_fails("{'a':1}", "single quotes");
  expect_parse_fails("{\"a\":01}", "leading zero");
  expect_parse_fails("{\"a\":1.}", "bare trailing dot");
  expect_parse_fails("{\"a\":.5}", "bare leading dot");
  expect_parse_fails("{\"a\":+1}", "leading plus");
  expect_parse_fails("NaN", "non-finite literal");
  expect_parse_fails("Infinity", "non-finite literal");
  expect_parse_fails("{\"a\":1e999}", "overflow to infinity");
  expect_parse_fails("{\"a\":1,\"a\":2}", "duplicate key");
  expect_parse_fails("\"\x01\"", "unescaped control char");
  expect_parse_fails("\"\\ud800\"", "unpaired surrogate");
  expect_parse_fails("// no comments\n1", "comments");
}

TEST(ServeJson, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  expect_parse_fails(deep, "100 levels vs default max_depth 64");
  // A generous explicit limit accepts the same document.
  EXPECT_TRUE(json::parse(deep, 128).value.has_value());
}

TEST(ServeJson, SurrogatePairsDecodeToUtf8) {
  const Value v = parse_ok("\"\\ud83d\\ude00\"");  // U+1F600
  EXPECT_EQ(v.as_string(), "\xf0\x9f\x98\x80");
}

/// Deterministic random document generator for the round-trip property.
[[nodiscard]] Value random_value(Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth >= 3 ? 3 : 5));
  switch (kind) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng.chance(0.5));
    case 2: {
      // Mix of magnitudes, including values whose shortest form uses
      // exponent notation.
      const double mag = rng.uniform_real(-12, 12);
      const double v = rng.uniform_real(-1, 1) * std::pow(10.0, mag);
      return Value(v);
    }
    case 3: {
      std::string s;
      const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 8));
      for (std::size_t i = 0; i < len; ++i) {
        // Printable ASCII plus the escaped specials.
        const char* alphabet = "abz019 \"\\\n\t{}[]:,";
        s += alphabet[rng.index(16)];
      }
      return Value(std::move(s));
    }
    case 4: {
      Array arr;
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4));
      for (std::size_t i = 0; i < n; ++i) {
        arr.push_back(random_value(rng, depth + 1));
      }
      return Value(std::move(arr));
    }
    default: {
      Object obj;
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4));
      for (std::size_t i = 0; i < n; ++i) {
        // Appending (not "k" + ...) sidesteps a GCC 12 -Wrestrict false
        // positive.
        std::string key(1, 'k');
        key += std::to_string(i);
        obj.set(key, random_value(rng, depth + 1));
      }
      return Value(std::move(obj));
    }
  }
}

class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, SerializeParseReserializeIsByteStable) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Value doc = random_value(rng, 0);
    const std::string once = json::dump(doc);
    json::ParseResult parsed = json::parse(once);
    ASSERT_TRUE(parsed.value.has_value()) << once << " -> " << parsed.error;
    const std::string twice = json::dump(*parsed.value);
    EXPECT_EQ(once, twice);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234567u));

}  // namespace
}  // namespace h2h
