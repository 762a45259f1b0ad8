// The JSON layer (json/json.hpp): the value type, its number formatter
// against the snprintf oracle, the one string escaper, the parser's
// refusals with their byte offsets, and the typed readers.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "json/json.hpp"

namespace json = rumor::json;

namespace {

/// The number formatter as it was written with snprintf and strtod, kept as
/// the oracle that Json's to_chars/from_chars formatter must match byte for
/// byte: integers below 1e15 as "%.0f", everything else as "%.15g" widened
/// to 16 and then 17 digits until it parses back to the same double.
std::string snprintf_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Expects Json to render `v` exactly as the oracle does, and the text to
/// parse back to the same bits.
void expect_number_matches_oracle(double v) {
  const std::string got = json::Json(v).dump();
  ASSERT_EQ(got, snprintf_number(v)) << std::hexfloat << v;
  if (!std::isfinite(v)) return;
  const auto back = json::Json::parse(got);
  ASSERT_TRUE(back.has_value()) << got;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(back->as_number()), std::bit_cast<std::uint64_t>(v))
      << got;
}

}  // namespace

TEST(Json, DumpParseRoundTrip) {
  json::Json obj = json::Json::object();
  obj.set("name", "e3_star");
  obj.set("count", 42);
  obj.set("ratio", 1.5);
  obj.set("ok", true);
  json::Json arr = json::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(json::Json());
  obj.set("items", std::move(arr));

  for (int indent : {-1, 2}) {
    const auto parsed = json::Json::parse(obj.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(parsed->find("name")->as_string(), "e3_star");
    EXPECT_EQ(parsed->find("count")->as_number(), 42.0);
    EXPECT_EQ(parsed->find("ratio")->as_number(), 1.5);
    EXPECT_TRUE(parsed->find("ok")->as_bool());
    ASSERT_EQ(parsed->find("items")->size(), 3u);
    EXPECT_TRUE(parsed->find("items")->elements()[2].is_null());
  }
}

TEST(Json, NumberFormatterGoldenStrings) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, const char*> cases[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {42.0, "42"},
      {-7.0, "-7"},
      {0.1, "0.1"},
      {1.0 / 3.0, "0.3333333333333333"},   // 16 digits
      {0.1 + 0.2, "0.30000000000000004"},  // 17 digits
      {1e-05, "1e-05"},
      {0.0001234, "0.0001234"},
      {9007199254740992.0, "9007199254740992"},  // 2^53
      {1e15 - 0.5, "999999999999999.5"},
      {999999999999999.0, "999999999999999"},
      {1e15, "1e+15"},
      {1e15 + 2, "1000000000000002"},
      {5e-324, "4.94065645841247e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},  // 15 and 16 digits overflow
      {std::numeric_limits<double>::quiet_NaN(), "null"},
      {inf, "null"},
      {-inf, "null"},
  };
  for (const auto& [v, want] : cases) {
    EXPECT_EQ(json::Json(v).dump(), want);
    expect_number_matches_oracle(v);
  }
}

TEST(Json, NumberFormatterMatchesSnprintfOracle) {
  std::mt19937_64 gen(20160725);
  // Random bit patterns cover every exponent, subnormals, NaNs and infinities.
  for (int i = 0; i < (1 << 20); ++i) {
    expect_number_matches_oracle(std::bit_cast<double>(gen()));
    if (testing::Test::HasFatalFailure()) return;
  }
  // Integers and short decimals, which random bits almost never produce:
  // the "%.0f" branch, its 1e15 edge, and values that stop at 15 digits.
  std::uniform_int_distribution<std::int64_t> mantissa(-(std::int64_t{1} << 53),
                                                       std::int64_t{1} << 53);
  std::uniform_int_distribution<int> scale(0, 20);
  for (int i = 0; i < (1 << 17); ++i) {
    const auto m = static_cast<double>(mantissa(gen));
    expect_number_matches_oracle(m);
    expect_number_matches_oracle(m / std::pow(10.0, scale(gen)));
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  json::Json obj = json::Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("zebra", 3);  // overwrite keeps the original slot
  ASSERT_EQ(obj.entries().size(), 2u);
  EXPECT_EQ(obj.entries()[0].first, "zebra");
  EXPECT_EQ(obj.entries()[0].second.as_number(), 3.0);
  EXPECT_EQ(obj.entries()[1].first, "alpha");
}

TEST(Json, EscapesStrings) {
  json::Json s = std::string("a\"b\\c\nd");
  const auto parsed = json::Json::parse(s.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Json::parse("{").has_value());
  EXPECT_FALSE(json::Json::parse("[1,]").has_value());
  EXPECT_FALSE(json::Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(json::Json::parse("42 garbage").has_value());
  EXPECT_FALSE(json::Json::parse("").has_value());
}

TEST(Json, RejectsPathologicallyDeepNesting) {
  // A truncated/hostile "[[[[..." must return nullopt, not blow the stack.
  const std::string deep(100000, '[');
  EXPECT_FALSE(json::Json::parse(deep).has_value());
  // Reasonable nesting still parses.
  std::string ok;
  for (int i = 0; i < 50; ++i) ok += '[';
  ok += '1';
  for (int i = 0; i < 50; ++i) ok += ']';
  EXPECT_TRUE(json::Json::parse(ok).has_value());
}

TEST(Json, EscaperTable) {
  const std::pair<std::string, std::string> cases[] = {
      {"plain", R"("plain")"},
      {"a\"b", R"("a\"b")"},
      {"a\\b", R"("a\\b")"},
      {"\n\t\r", R"("\n\t\r")"},
      {std::string(1, '\0'), R"("\u0000")"},
      {"\x01\x08\x0b\x0c\x1f", R"("\u0001\u0008\u000b\u000c\u001f")"},
      {"\x7f", "\"\x7f\""},
      {"\x80\xff", "\"\x80\xff\""},
      {"caf\xc3\xa9 /", "\"caf\xc3\xa9 /\""},
  };
  for (const auto& [raw, want] : cases) {
    // Appends: what `out` held stays in front.
    std::string out = "<";
    json::append_escaped(out, raw);
    EXPECT_EQ(out.substr(0, 1), "<");
    EXPECT_EQ(out.substr(1), want);
    EXPECT_EQ(json::Json(raw).dump(), want);
    const auto back = json::Json::parse(want);
    ASSERT_TRUE(back.has_value()) << want;
    EXPECT_EQ(back->as_string(), raw) << want;
  }
  // Every C0 byte but the three named escapes takes the \u00XX form.
  for (int b = 0; b < 0x20; ++b) {
    if (b == '\n' || b == '\t' || b == '\r') continue;
    char want[16];
    std::snprintf(want, sizeof want, "\"\\u%04x\"", b);
    EXPECT_EQ(json::Json(std::string(1, static_cast<char>(b))).dump(), want);
  }
}

TEST(Json, ParseErrorsNameTheOffsetAndTheExpectation) {
  const struct {
    std::string text;
    std::size_t offset;
    std::string expected;
  } cases[] = {
      {"", 0, "a value"},
      {"[1,]", 3, "a value"},
      {"{\"a\": }", 6, "a value"},
      {"{\"a\" 1}", 5, "':'"},
      {"[1 2]", 3, "',' or ']'"},
      {"{\"a\": 1 \"b\": 2}", 8, "',' or '}'"},
      {"{\"a\": 1,}", 8, "a string key"},
      {"\"a\\qb\"", 3, "a string escape"},
      {"\"\\u12g4\"", 3, "four hex digits"},
      {"\"\\u12", 3, "four hex digits"},
      {"\"abc", 4, "a closing '\"'"},
      {"42 garbage", 3, "end of input"},
      {std::string(300, '['), 256, "nesting at most 256 deep"},
  };
  for (const auto& c : cases) {
    json::ParseError error;
    EXPECT_FALSE(json::Json::parse(c.text, &error).has_value()) << c.text;
    EXPECT_EQ(error.offset, c.offset) << c.text;
    EXPECT_EQ(std::string(error.expected), c.expected) << c.text;
  }
}

TEST(Json, RejectsNumbersThatAreNotFiniteDoubles) {
  // Overflow used to parse as inf and dump back as null; underflow past the
  // smallest subnormal used to read as 0. Neither is a double.
  const std::pair<std::string, std::size_t> refused[] = {
      {"1e999", 0}, {"-1e999", 0}, {"[1, 1e999]", 4}, {"{\"mean\": 1.8e308}", 9},
      {"1e-400", 0}, {"+1", 0}, {"1e", 0}, {"1-2", 0},
  };
  for (const auto& [text, offset] : refused) {
    json::ParseError error;
    EXPECT_FALSE(json::Json::parse(text, &error).has_value()) << text;
    EXPECT_EQ(error.offset, offset) << text;
    EXPECT_EQ(std::string(error.expected), "a finite double") << text;
  }
  // The extremes a double holds still parse, bit for bit.
  const std::pair<std::string, double> kept[] = {
      {"1.7976931348623157e308", DBL_MAX},
      {"-1.7976931348623157e308", -DBL_MAX},
      {"4.94065645841247e-324", 5e-324},
      {"2.2250738585072014e-308", DBL_MIN},
      {"-0", -0.0},
      {"9007199254740993", 9007199254740992.0},
  };
  for (const auto& [text, want] : kept) {
    const auto v = json::Json::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v->as_number()), std::bit_cast<std::uint64_t>(want))
        << text;
  }
}

TEST(Json, ReadJsonFileNamesPathOffsetAndExpectation) {
  const std::string path = testing::TempDir() + "json_read_file_bad.json";
  std::ofstream(path, std::ios::trunc) << "{\"a\": 1,\n \"b\" 2}\n";
  std::ostringstream err;
  EXPECT_FALSE(json::read_json_file(path, "prog", err).has_value());
  EXPECT_EQ(err.str(), "prog: " + path + ": invalid JSON at byte 14: expected ':'\n");

  std::ofstream(path, std::ios::trunc) << "{\"a\": [1, 2.5]}\n";
  err.str("");
  const auto doc = json::read_json_file(path, "prog", err);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->dump(), "{\"a\":[1,2.5]}");
  EXPECT_EQ(err.str(), "");
  std::remove(path.c_str());
  EXPECT_FALSE(json::read_json_file(path, "prog", err).has_value());
  EXPECT_EQ(err.str(), "prog: cannot read " + path + "\n");
}

TEST(Json, TypedReadersCheckTypeAndRangeNamingKeyAndValue) {
  double d = 0.0;
  std::string s;
  bool b = false;
  EXPECT_EQ(json::read("x", json::Json(2.5), d), "");
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(json::read("x", json::Json("s"), d), "key 'x' must be a number");
  EXPECT_EQ(json::read("x", json::Json(1), s), "key 'x' must be a string");
  EXPECT_EQ(json::read("x", json::Json(1), b), "key 'x' must be a boolean");

  std::uint32_t u32 = 7;
  EXPECT_EQ(json::read("n", json::Json(4294967295.0), u32), "");
  EXPECT_EQ(u32, 4294967295u);
  for (const auto& [value, text] : {std::pair{-1.0, "-1"}, {2.5, "2.5"}, {4294967296.0, "4294967296"},
                                    {1e30, "1e+30"}}) {
    u32 = 7;
    EXPECT_EQ(json::read("n", json::Json(value), u32),
              std::string("key 'n' must be a non-negative integer below 2^32, got ") + text);
    EXPECT_EQ(u32, 7u);
  }
  EXPECT_EQ(json::read("n", json::Json("4"), u32),
            "key 'n' must be a non-negative integer below 2^32");
  std::uint64_t u64 = 0;
  EXPECT_EQ(json::read("n", json::Json(1.8e19), u64), "");
  EXPECT_EQ(json::read("n", json::Json(1.9e19), u64),
            "key 'n' must be a non-negative integer below 2^64, got 1.9e+19");

  // The checked form: context first, 2^53 the largest count it accepts.
  json::Json obj = json::Json::object();
  obj.set("count", 9007199254740992.0);
  obj.set("big", 9007199254740994.0);
  EXPECT_EQ(json::get<std::uint64_t>(obj, "count", "ctx"), json::kMaxExactInteger);
  auto what = [&](auto read) {
    try {
      read();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(what([&] { (void)json::get<std::uint64_t>(obj, "big", "ctx"); }),
            "ctx: key 'big' must be a non-negative integer at most 9007199254740992, got "
            "9007199254740994");
  EXPECT_EQ(what([&] { (void)json::get<double>(obj, "none", "ctx"); }), "ctx: missing key 'none'");
  EXPECT_EQ(what([&] { (void)json::get<bool>(json::Json(1), "k", "ctx"); }),
            "ctx: expected a JSON object");
  EXPECT_EQ(what([&] { (void)json::array_member(obj, "count", "ctx"); }),
            "ctx: key 'count' must be an array");
}
