// Minimal JSON support for the campaign service: sweep specifications are
// serialized as JSON documents and streamed results as JSONL checkpoint
// lines (service/checkpoint.h), so the parser/writer pair lives in common/
// with no third-party dependency.
//
// The parser accepts standard JSON (objects, arrays, strings with escapes,
// numbers, booleans, null). Numbers keep their raw text so 64-bit integers
// round-trip exactly — AsInt()/AsUint() re-parse the original token instead
// of going through a double.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace saffire {

// Deepest array/object nesting JsonValue::Parse accepts. The parser
// recurses once per level, so the limit is what keeps a hostile document
// (a spec or checkpoint line of nested brackets) from overflowing the
// stack; saffire's own documents nest a handful of levels.
inline constexpr int kJsonMaxDepth = 256;

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull = 0,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  // Parses one complete JSON document; throws std::invalid_argument on
  // malformed input, trailing garbage, or nesting deeper than
  // kJsonMaxDepth.
  static JsonValue Parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Scalar accessors; throw std::invalid_argument on a kind mismatch (or,
  // for the integer accessors, a non-integral number token).
  bool AsBool() const;
  std::int64_t AsInt() const;
  std::uint64_t AsUint() const;
  double AsDouble() const;
  const std::string& AsString() const;

  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  // Object accessors.
  bool Has(const std::string& key) const;
  // Returns the member or throws std::invalid_argument naming the key.
  const JsonValue& At(const std::string& key) const;
  // Returns nullptr when absent.
  const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  // kNumber: the raw token; kString: the decoded text.
  std::string scalar_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

// Escapes `text` for embedding between JSON double quotes (adds no quotes
// itself): ", \, and control characters become escape sequences.
std::string JsonEscape(std::string_view text);

// Streaming JSON writer with automatic comma placement. Usage:
//   JsonWriter w(out);
//   w.BeginObject().Key("bit").Int(8).Key("tags").BeginArray()
//    .String("a").EndArray().EndObject();
// Misuse (a value where a key is required, unbalanced End*) throws
// saffire::InternalError via SAFFIRE_ASSERT.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::int64_t value);
  JsonWriter& Uint(std::uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

 private:
  enum class Frame : std::uint8_t { kObjectKey, kObjectValue, kArray };

  void BeforeValue();
  void AfterValue();

  std::ostream& out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;
};

}  // namespace saffire
