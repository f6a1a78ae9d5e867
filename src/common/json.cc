#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/strings.h"

namespace saffire {

namespace {

[[noreturn]] void ThrowParse(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("json: " + what + " at offset " +
                              std::to_string(pos));
}

}  // namespace

// Recursive-descent parser over a string_view with an explicit cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) ThrowParse(pos_, "trailing characters");
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) ThrowParse(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      ThrowParse(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        JsonValue value;
        value.kind_ = JsonValue::Kind::kString;
        value.scalar_ = ParseString();
        return value;
      }
      case 't': {
        if (!Consume("true")) ThrowParse(pos_, "invalid literal");
        JsonValue value;
        value.kind_ = JsonValue::Kind::kBool;
        value.bool_ = true;
        return value;
      }
      case 'f': {
        if (!Consume("false")) ThrowParse(pos_, "invalid literal");
        JsonValue value;
        value.kind_ = JsonValue::Kind::kBool;
        value.bool_ = false;
        return value;
      }
      case 'n': {
        if (!Consume("null")) ThrowParse(pos_, "invalid literal");
        return JsonValue{};
      }
      default:
        return ParseNumber();
    }
  }

  // Counts one open array/object for as long as its parse runs.
  class DepthGuard {
   public:
    explicit DepthGuard(JsonParser& parser) : parser_(parser) {
      if (++parser_.depth_ > kJsonMaxDepth) {
        ThrowParse(parser_.pos_, "nesting deeper than " +
                                     std::to_string(kJsonMaxDepth) + " levels");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    JsonParser& parser_;
  };

  JsonValue ParseObject() {
    const DepthGuard guard(*this);
    Expect('{');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      value.object_[std::move(key)] = ParseValue();
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return value;
    }
  }

  JsonValue ParseArray() {
    const DepthGuard guard(*this);
    Expect('[');
    JsonValue value;
    value.kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array_.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return value;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      const char c = Peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = Peek();
      ++pos_;
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out.push_back(escape);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          out += ParseUnicodeEscape();
          break;
        }
        default:
          ThrowParse(pos_ - 1, "invalid escape");
      }
    }
  }

  // Decodes the 4 hex digits after \u to UTF-8 (surrogate pairs are not
  // combined — each half is encoded independently, which is lossless for
  // the BMP text the framework ever emits).
  std::string ParseUnicodeEscape() {
    if (pos_ + 4 > text_.size()) ThrowParse(pos_, "truncated \\u escape");
    std::uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        ThrowParse(pos_ - 1, "invalid \\u escape");
      }
    }
    std::string out;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return out;
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      ThrowParse(start, "invalid number");
    }
    JsonValue value;
    value.kind_ = JsonValue::Kind::kNumber;
    value.scalar_ = std::string(text_.substr(start, pos_ - start));
    // Validate eagerly so malformed tokens fail at parse time, not at the
    // first accessor.
    char* end = nullptr;
    std::strtod(value.scalar_.c_str(), &end);
    if (end != value.scalar_.c_str() + value.scalar_.size()) {
      ThrowParse(start, "invalid number");
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

JsonValue JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

bool JsonValue::AsBool() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kBool, "json value is not a bool");
  return bool_;
}

std::int64_t JsonValue::AsInt() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kNumber, "json value is not a number");
  return ParseInt(scalar_);
}

std::uint64_t JsonValue::AsUint() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kNumber, "json value is not a number");
  SAFFIRE_CHECK_MSG(!scalar_.empty() && scalar_[0] != '-',
                    "negative value '" << scalar_ << "'");
  // Fails, rather than saturates, past UINT64_MAX.
  std::uint64_t value = 0;
  const char* end = scalar_.data() + scalar_.size();
  const auto [ptr, ec] = std::from_chars(scalar_.data(), end, value);
  SAFFIRE_CHECK_MSG(ec == std::errc() && ptr == end,
                    "not an unsigned 64-bit integer: '" << scalar_ << "'");
  return value;
}

double JsonValue::AsDouble() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kNumber, "json value is not a number");
  return std::strtod(scalar_.c_str(), nullptr);
}

const std::string& JsonValue::AsString() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kString, "json value is not a string");
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kArray, "json value is not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::AsObject() const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kObject, "json value is not an object");
  return object_;
}

bool JsonValue::Has(const std::string& key) const {
  return Find(key) != nullptr;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const JsonValue* value = Find(key);
  SAFFIRE_CHECK_MSG(value != nullptr, "missing json key '" << key << "'");
  return *value;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  SAFFIRE_CHECK_MSG(kind_ == Kind::kObject, "json value is not an object");
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;
  SAFFIRE_ASSERT_MSG(stack_.back() != Frame::kObjectKey,
                     "json value emitted where an object key is required");
  if (stack_.back() == Frame::kArray) {
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }
}

void JsonWriter::AfterValue() {
  if (!stack_.empty() && stack_.back() == Frame::kObjectValue) {
    stack_.back() = Frame::kObjectKey;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  stack_.push_back(Frame::kObjectKey);
  first_.push_back(true);
  out_ << '{';
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  SAFFIRE_ASSERT_MSG(!stack_.empty() && stack_.back() == Frame::kObjectKey,
                     "unbalanced EndObject");
  stack_.pop_back();
  first_.pop_back();
  out_ << '}';
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
  out_ << '[';
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  SAFFIRE_ASSERT_MSG(!stack_.empty() && stack_.back() == Frame::kArray,
                     "unbalanced EndArray");
  stack_.pop_back();
  first_.pop_back();
  out_ << ']';
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  SAFFIRE_ASSERT_MSG(!stack_.empty() && stack_.back() == Frame::kObjectKey,
                     "json key emitted outside an object");
  if (!first_.back()) out_ << ',';
  first_.back() = false;
  out_ << '"' << JsonEscape(key) << "\":";
  stack_.back() = Frame::kObjectValue;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ << '"' << JsonEscape(value) << '"';
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ << value;
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::Uint(std::uint64_t value) {
  BeforeValue();
  out_ << value;
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  out_ << FormatDouble(value, 6);
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
  AfterValue();
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ << "null";
  AfterValue();
  return *this;
}

}  // namespace saffire
