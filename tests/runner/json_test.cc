#include "runner/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

namespace pert::runner {
namespace {

TEST(Json, ScalarsDumpAndParse) {
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");

  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, Uint64RoundTripsExactly) {
  // Doubles cannot hold every 64-bit seed; the integer arm must.
  const std::uint64_t big = 11899626214285463373ULL;
  const JsonValue v = JsonValue::parse(JsonValue(big).dump());
  ASSERT_TRUE(v.is_uint());
  EXPECT_EQ(v.as_uint(), big);
}

TEST(Json, DoubleRoundTripsExactly) {
  for (double d : {0.0, 1.5, -2.25, 3.0e-7, 0.9999871, 1e300}) {
    const JsonValue v = JsonValue::parse(JsonValue(d).dump());
    ASSERT_TRUE(v.is_number());
    EXPECT_EQ(v.as_double(), d);
  }
  // Negative integral numbers come back as doubles (no signed-int arm).
  EXPECT_EQ(JsonValue::parse("-5").as_double(), -5.0);
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\n\t\x01z";
  const JsonValue v = JsonValue::parse(JsonValue(raw).dump());
  EXPECT_EQ(v.as_string(), raw);
  EXPECT_EQ(JsonValue("\n").dump(), "\"\\n\"");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  JsonValue obj{JsonValue::Object{}};
  obj.set("zeta", JsonValue(std::uint64_t{1}));
  obj.set("alpha", JsonValue(std::uint64_t{2}));
  EXPECT_EQ(obj.dump(), "{\"zeta\":1,\"alpha\":2}");
  EXPECT_EQ(obj.at("alpha").as_uint(), 2u);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), std::out_of_range);
}

TEST(Json, NestedRoundTrip) {
  const std::string doc =
      R"({"name":"t","list":[1,2.5,"x",null,true],"nested":{"k":[{"a":1}]}})";
  const JsonValue v = JsonValue::parse(doc);
  EXPECT_EQ(v.dump(), doc);
  // Pretty-printed form parses back to the same value.
  EXPECT_EQ(JsonValue::parse(v.dump(2)), v);
}

TEST(Json, ParseRejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "[1] trailing", "nan"}) {
    EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, ParseRejectsNonFiniteWithTypedError) {
  // A report hand-edited (or corrupted) to contain NaN/Infinity must fail
  // loudly with the JSON-specific error type, not parse into a poisoned
  // double that spreads through downstream aggregation.
  for (const char* bad :
       {"NaN", "nan", "-NaN", "Infinity", "-Infinity", "inf", "-inf", "Inf",
        "infinity", "{\"x\":NaN}", "[1,Infinity]", "1e999", "-1e999"}) {
    EXPECT_THROW(JsonValue::parse(bad), JsonParseError) << bad;
  }
}

TEST(Json, ParseBoundsNestingDepth) {
  const auto arrays = [](std::size_t n) {
    return std::string(n, '[') + std::string(n, ']');
  };
  const auto objects = [](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) s += "{\"a\":";
    return s + "0" + std::string(n, '}');
  };
  constexpr std::size_t kMax = JsonValue::kMaxDepth;
  EXPECT_NO_THROW(JsonValue::parse(arrays(kMax)));
  EXPECT_NO_THROW(JsonValue::parse(objects(kMax)));
  for (const std::size_t n : {kMax + 1, std::size_t{300000}}) {
    EXPECT_THROW(JsonValue::parse(arrays(n)), JsonParseError) << n;
    EXPECT_THROW(JsonValue::parse(objects(n)), JsonParseError) << n;
  }
}

TEST(Json, JsonParseErrorIsInvalidArgument) {
  // Pre-existing catch sites use std::invalid_argument; the typed error
  // must keep satisfying them.
  try {
    JsonValue::parse("{\"x\":NaN}");
    FAIL() << "expected JsonParseError";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
}

TEST(Json, WriterEmitsNullForNonFiniteDoubles) {
  EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(JsonValue(-std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, NonFiniteRoundTripsAsNull) {
  // writer(null) -> parser(null): a metric that went non-finite comes back
  // as an explicit null, which readers treat as "absent", never as a number.
  JsonValue obj{JsonValue::Object{}};
  obj.set("good", JsonValue(1.5));
  obj.set("bad", JsonValue(std::nan("")));
  const JsonValue back = JsonValue::parse(obj.dump());
  EXPECT_EQ(back.at("good").as_double(), 1.5);
  EXPECT_TRUE(back.at("bad").is_null());
  EXPECT_FALSE(back.at("bad").is_number());
}

TEST(Json, WhitespaceTolerated) {
  const JsonValue v = JsonValue::parse("  {\n \"a\" :\t[ 1 , 2 ] }  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

}  // namespace
}  // namespace pert::runner
