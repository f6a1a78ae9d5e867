#include "common/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace saffire {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null").is_null());
  EXPECT_EQ(JsonValue::Parse("true").AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("false").AsBool(), false);
  EXPECT_EQ(JsonValue::Parse("42").AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("-7").AsInt(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5").AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3").AsDouble(), 1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"").AsString(), "hi");
}

TEST(JsonParseTest, Int64RoundTripsExactly) {
  // 2^63 - 1 is not representable in a double; the raw-token design keeps
  // it exact.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(JsonValue::Parse(std::to_string(max)).AsInt(), max);
  const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(JsonValue::Parse(std::to_string(umax)).AsUint(), umax);
}

TEST(JsonParseTest, AsUintRejectsOverflow) {
  // 2^64 and beyond used to saturate silently to UINT64_MAX.
  EXPECT_THROW(JsonValue::Parse("18446744073709551616").AsUint(),
               std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("99999999999999999999").AsUint(),
               std::invalid_argument);
  const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(JsonValue::Parse(std::to_string(umax)).AsUint(), umax);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(JsonValue::Parse(R"("a\"b\\c\nd\te")").AsString(),
            "a\"b\\c\nd\te");
  EXPECT_EQ(JsonValue::Parse(R"("Aé")").AsString(), "A\xc3\xa9");
}

TEST(JsonParseTest, ArraysAndObjects) {
  const JsonValue value = JsonValue::Parse(
      R"({"name":"sweep","bits":[4,8,31],"nested":{"ok":true}})");
  EXPECT_EQ(value.At("name").AsString(), "sweep");
  const auto& bits = value.At("bits").AsArray();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[1].AsInt(), 8);
  EXPECT_TRUE(value.At("nested").At("ok").AsBool());
  EXPECT_TRUE(value.Has("name"));
  EXPECT_FALSE(value.Has("missing"));
  EXPECT_EQ(value.Find("missing"), nullptr);
  EXPECT_THROW(value.At("missing"), std::invalid_argument);
  EXPECT_EQ(value.AsObject().size(), 3u);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::Parse(""), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1,}"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("truth"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("1 2"), std::invalid_argument);
  // Hostile nesting is rejected before it can exhaust the stack.
  constexpr std::size_t kDeep = 100000;
  EXPECT_THROW(
      JsonValue::Parse(std::string(kDeep, '[') + std::string(kDeep, ']')),
      std::invalid_argument);
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kDeep, '}');
  EXPECT_THROW(JsonValue::Parse(objects), std::invalid_argument);
}

// Alternating object/array nesting `depth` levels deep around a 7.
std::string NestedDocument(int depth) {
  std::string open;
  std::string close;
  for (int level = 0; level < depth; ++level) {
    open += level % 2 == 0 ? "{\"k\":" : "[";
    close.push_back(level % 2 == 0 ? '}' : ']');
  }
  std::reverse(close.begin(), close.end());
  return open + "7" + close;
}

TEST(JsonParseTest, NestingUpToTheLimitParses) {
  const JsonValue document = JsonValue::Parse(NestedDocument(kJsonMaxDepth));
  const JsonValue* value = &document;
  for (int level = 0; level < kJsonMaxDepth; ++level) {
    value = level % 2 == 0 ? &value->At("k") : &value->AsArray().at(0);
  }
  EXPECT_EQ(value->AsInt(), 7);
  EXPECT_THROW(JsonValue::Parse(NestedDocument(kJsonMaxDepth + 1)),
               std::invalid_argument);
}

TEST(JsonParseTest, KindMismatchThrows) {
  const JsonValue value = JsonValue::Parse("42");
  EXPECT_THROW(value.AsString(), std::invalid_argument);
  EXPECT_THROW(value.AsBool(), std::invalid_argument);
  EXPECT_THROW(value.AsArray(), std::invalid_argument);
  EXPECT_THROW(value.At("x"), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("2.5").AsInt(), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("-1").AsUint(), std::invalid_argument);
}

TEST(JsonWriterTest, WritesNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject()
      .Key("name").String("x")
      .Key("count").Int(-3)
      .Key("big").Uint(18446744073709551615ull)
      .Key("ok").Bool(true)
      .Key("none").Null()
      .Key("list").BeginArray().Int(1).Int(2).EndArray()
      .EndObject();
  EXPECT_EQ(os.str(),
            R"({"name":"x","count":-3,"big":18446744073709551615,)"
            R"("ok":true,"none":null,"list":[1,2]})");
}

TEST(JsonWriterTest, OutputReparses) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject()
      .Key("text").String("line\nbreak \"quoted\" \\slash")
      .Key("value").Double(0.5)
      .EndObject();
  const JsonValue value = JsonValue::Parse(os.str());
  EXPECT_EQ(value.At("text").AsString(), "line\nbreak \"quoted\" \\slash");
  EXPECT_DOUBLE_EQ(value.At("value").AsDouble(), 0.5);
}

TEST(JsonEscapeTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace saffire
