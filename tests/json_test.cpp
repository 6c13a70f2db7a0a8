// Tests for the JSON writer, the parser and the report exporters. The
// parser goldens (exact error messages and offsets, depth limit, escape
// decoding, member order, numbers bit-identical to strtod) were recorded
// from the strtod-based, grow-as-you-go parser and pin its replacement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "sim/runtime.h"
#include "support/json.h"
#include "support/rng.h"

namespace lrt {
namespace {

TEST(JsonWriter, Primitives) {
  JsonWriter json;
  json.begin_object();
  json.key("s");
  json.value("text");
  json.key("d");
  json.value(0.5);
  json.key("i");
  json.value(std::int64_t{-7});
  json.key("b");
  json.value(true);
  json.key("n");
  json.null();
  json.end_object();
  EXPECT_EQ(std::move(json).str(),
            R"({"s":"text","d":0.5,"i":-7,"b":true,"n":null})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter json;
  json.begin_object();
  json.key("list");
  json.begin_array();
  json.value(1);
  json.begin_object();
  json.key("x");
  json.value(2);
  json.end_object();
  json.begin_array();
  json.end_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(std::move(json).str(), R"({"list":[1,{"x":2},[]]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.begin_array();
  json.value("a\"b\\c\nd\te");
  json.value(std::string_view("\x01", 1));
  json.end_array();
  EXPECT_EQ(std::move(json).str(), "[\"a\\\"b\\\\c\\nd\\te\",\"\\u0001\"]");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(std::move(json).str(), "[null,null]");
}

TEST(JsonWriter, StreamsChunksThatConcatenateToTheDocument) {
  struct Collect final : JsonSink {
    void write(std::string_view chunk) override {
      ++chunks;
      text += chunk;
    }
    int chunks = 0;
    std::string text;
  } sink;
  const auto write = [](JsonWriter& json) {
    json.begin_array();
    for (int i = 0; i < 2000; ++i) {
      json.begin_object();
      json.key("name");
      json.value("task_" + std::to_string(i));
      json.key("srg");
      json.value(0.5 + i);
      json.end_object();
    }
    json.end_array();
  };
  JsonWriter whole;
  write(whole);
  JsonWriter streamed(sink);
  write(streamed);
  streamed.flush();
  EXPECT_EQ(sink.text, std::move(whole).str());
  EXPECT_GT(sink.chunks, 2);
}

TEST(JsonVerbatimRun, MatchesAByteByByteScan) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::string text(rng.next_below(40), 'a');
    for (char& c : text) {
      // Mostly plain ASCII and UTF-8 bytes, some stop bytes.
      c = static_cast<char>(rng.bernoulli(0.05) ? rng.next_below(0x20)
                            : rng.bernoulli(0.03) ? '"'
                            : rng.bernoulli(0.03) ? '\\'
                                                  : 0x20 + rng.next_below(224));
    }
    std::size_t expected = 0;
    while (expected < text.size()) {
      const auto c = static_cast<unsigned char>(text[expected]);
      if (c < 0x20 || c == '"' || c == '\\') break;
      ++expected;
    }
    ASSERT_EQ(json_verbatim_run(text), expected) << i;
  }
}

// --- parser goldens -------------------------------------------------------

std::string parse_error(std::string_view text) {
  const auto parsed = parse_json(text);
  if (parsed.ok()) return "ok";
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  return parsed.status().message();
}

TEST(JsonParser, MalformedInputReportsMessageAndOffset) {
  const struct {
    std::string_view text;
    std::string_view error;
  } kCases[] = {
      {"", "json: unexpected end of input at offset 0"},
      {"  ", "json: unexpected end of input at offset 2"},
      {"[", "json: unexpected end of input at offset 1"},
      {"tru", "json: invalid literal at offset 0"},
      {"[true,nul]", "json: invalid literal at offset 6"},
      {"[falsy]", "json: invalid literal at offset 1"},
      {"{\"a\" 1}", "json: expected ':' at offset 5"},
      {"{\"a\":1 \"b\":2}", "json: expected ',' or '}' at offset 7"},
      {"[1 2]", "json: expected ',' or ']' at offset 3"},
      {"{1:2}", "json: expected object key at offset 1"},
      {"{\"a\":1,}", "json: expected object key at offset 7"},
      {"[1,]", "json: invalid number at offset 3"},
      {"\"abc", "json: unterminated string at offset 4"},
      {"\"ab\\", "json: unterminated escape at offset 4"},
      {"\"a\x01" "b\"",
       "json: unescaped control character in string at offset 2"},
      {"\"tab\there\"",
       "json: unescaped control character in string at offset 4"},
      {"\"\\q\"", "json: invalid escape at offset 3"},
      {"\"\\u12\"", "json: truncated \\u escape at offset 3"},
      {"\"\\u12G4\"", "json: invalid \\u escape at offset 6"},
      {"x", "json: invalid number at offset 0"},
      {"-", "json: invalid number at offset 1"},
      {"-a", "json: invalid number at offset 1"},
      {"+1", "json: invalid number at offset 0"},
      {"1.", "json: invalid fraction at offset 2"},
      {"1.e5", "json: invalid fraction at offset 2"},
      {"1e", "json: invalid exponent at offset 2"},
      {"1e+", "json: invalid exponent at offset 3"},
      {"[1E-x]", "json: invalid exponent at offset 4"},
      {"01", "json: trailing characters after document at offset 1"},
      {"[1] x", "json: trailing characters after document at offset 4"},
      {"{} {}", "json: trailing characters after document at offset 3"},
      {"1 2", "json: trailing characters after document at offset 2"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(parse_error(c.text), c.error) << "input: " << c.text;
  }
}

std::string nested(int depth, std::string_view inner) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(inner) +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonParser, DepthLimitIsExactly128) {
  // The root is depth 0; a value at depth 129 is rejected before it is
  // read, at the offset where it starts.
  EXPECT_EQ(parse_error(nested(128, "0")), "ok");
  EXPECT_EQ(parse_error(nested(129, "")), "ok");
  EXPECT_EQ(parse_error(nested(129, "0")),
            "json: nesting too deep at offset 129");
  EXPECT_EQ(parse_error(nested(129, " 0")),
            "json: nesting too deep at offset 130");
  EXPECT_EQ(parse_error(nested(130, "")),
            "json: nesting too deep at offset 129");
  std::string objects;
  for (int i = 0; i < 129; ++i) objects += "{\"k\":";
  objects += "1";
  objects += std::string(129, '}');
  EXPECT_EQ(parse_error(objects), "json: nesting too deep at offset 645");

  // A deep valid document keeps its shape.
  const auto deep = parse_json(nested(128, "7"));
  ASSERT_TRUE(deep.ok());
  const JsonValue* node = &*deep;
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(node->is_array());
    ASSERT_EQ(node->array.size(), 1u);
    node = &node->array.front();
  }
  EXPECT_EQ(node->number, 7.0);
}

TEST(JsonParser, UnicodeEscapesDecodeToUtf8) {
  const auto parsed = parse_json(R"(["\u0041", "\u00e9", "\u20AC", "\u0000x",)"
                                 R"("\uD83D", "a\/b\b\f\n\r\t\"\\"])");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto& a = parsed->array;
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0].string, "A");
  EXPECT_EQ(a[1].string, "\xC3\xA9");
  EXPECT_EQ(a[2].string, "\xE2\x82\xAC");
  EXPECT_EQ(a[3].string, std::string("\0x", 2));
  // Lone surrogates are encoded as their 3-byte form, not rejected.
  EXPECT_EQ(a[4].string, "\xED\xA0\xBD");
  EXPECT_EQ(a[5].string, "a/b\b\f\n\r\t\"\\");
  // Raw UTF-8 passes through unchanged.
  const auto raw = parse_json("\"\xE2\x82\xAC\xC3\xA9\"");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->string, "\xE2\x82\xAC\xC3\xA9");
}

TEST(JsonParser, DuplicateKeysKeepSourceOrderAndFindReturnsTheFirst) {
  const auto parsed =
      parse_json(R"({"b":1,"a":2,"b":3,"c":{"x":[],"x":{}},"a":4})");
  ASSERT_TRUE(parsed.ok());
  const auto& members = parsed->object;
  ASSERT_EQ(members.size(), 5u);
  const char* kKeys[] = {"b", "a", "b", "c", "a"};
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(members[i].first, kKeys[i]);
  }
  EXPECT_EQ(parsed->find("b")->number, 1.0);
  EXPECT_EQ(parsed->find("a")->number, 2.0);
  EXPECT_TRUE(parsed->find("c")->find("x")->is_array());
  EXPECT_EQ(parsed->find("missing"), nullptr);
  EXPECT_EQ(parsed->find("b")->find("b"), nullptr);  // not an object
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// Parses `tokens` as one JSON array and checks every element against
/// strtod of its own spelling, bit for bit.
void expect_numbers_match_strtod(const std::vector<std::string>& tokens) {
  std::string document = "[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i != 0) document += ',';
    document += tokens[i];
  }
  document += ']';
  const auto parsed = parse_json(document);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->array.size(), tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const JsonValue& value = parsed->array[i];
    ASSERT_TRUE(value.is_number()) << tokens[i];
    ASSERT_EQ(bits(value.number),
              bits(std::strtod(tokens[i].c_str(), nullptr)))
        << tokens[i];
  }
}

TEST(JsonParser, EdgeCaseNumbersAreBitIdenticalToStrtod) {
  expect_numbers_match_strtod({
      "0", "-0", "-0.0", "0e0", "-0E-5", "1", "-1", "1E5", "1e+5", "1e-5",
      "-2.5E-3", "1e400", "-1e400", "1e-400", "-1e-400", "1e308", "1e309",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "2.2250738585072009e-308",
      "4.9406564584124654e-324", "5e-324", "2.4703282292062328e-324",
      "2.4703282292062327e-324", "3e-324", "1e-323",
      "123456789012345678901234567890", "-123456789012345678901234567890",
      "0.123456789012345678901234567890",
      "1.00000000000000011102230246251565404236316680908203125",
      "1.00000000000000011102230246251565404236316680908203124",
      "9007199254740993", "9007199254740995", "18446744073709551616",
      "9223372036854775807", "-9223372036854775808", "0.1", "0.2", "0.3",
      "100000000000000000000000000000e-30", "0.000000000000000000001e21"});
  EXPECT_EQ(bits(parse_json("-0")->number), bits(-0.0));
  EXPECT_EQ(parse_json("1e400")->number,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_json("5e-324")->number,
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonParser, RandomDoublesAreBitIdenticalToStrtod) {
  Xoshiro256 rng(0x5eed);
  std::vector<std::string> tokens;
  tokens.reserve(200000);
  char buffer[40];
  for (int i = 0; i < 100000; ++i) {
    double value = 0.0;
    // Alternate raw bit patterns (every exponent, subnormals included)
    // with values of the magnitudes the wire codecs carry.
    if (i % 2 == 0) {
      const std::uint64_t pattern = rng.next();
      std::memcpy(&value, &pattern, sizeof value);
      if (!std::isfinite(value)) continue;
    } else {
      value = (rng.next_double() - 0.5) * std::pow(10.0, i % 13 - 6);
    }
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    tokens.emplace_back(buffer);
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
    tokens.emplace_back(buffer);
  }
  expect_numbers_match_strtod(tokens);
}

TEST(JsonExport, ReliabilityReport) {
  auto system = plant::make_three_tank_system({});
  const auto report = reliability::analyze(*system->implementation);
  const std::string json = reliability::to_json(*report);
  EXPECT_NE(json.find(R"("reliable":true)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("name":"u1")"), std::string::npos);
  EXPECT_NE(json.find(R"("srg":0.970299)"), std::string::npos);
  EXPECT_NE(json.find(R"("memory_free":true)"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(JsonExport, SchedulabilityReport) {
  auto system = plant::make_three_tank_system({});
  const auto report = sched::analyze_schedulability(*system->implementation);
  const std::string json = sched::to_json(*report, *system->implementation);
  EXPECT_NE(json.find(R"("schedulable":true)"), std::string::npos);
  EXPECT_NE(json.find(R"("host":"h3")"), std::string::npos);
  EXPECT_NE(json.find(R"("task":"read1")"), std::string::npos);
  EXPECT_NE(json.find(R"("start":)"), std::string::npos);
}

TEST(JsonExport, SimulationResult) {
  auto system = plant::make_three_tank_system({});
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 1000;
  options.actuator_comms = {"u1", "u2"};
  const auto result = sim::simulate(*system->implementation, env, options);
  const std::string json = sim::to_json(*result);
  EXPECT_NE(json.find(R"("periods":1000)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"u1")"), std::string::npos);
  EXPECT_NE(json.find(R"("ci_low":)"), std::string::npos);
  EXPECT_NE(json.find(R"("deadline_misses":0)"), std::string::npos);
}

}  // namespace
}  // namespace lrt
