#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <sstream>

#include "common/check.h"

namespace saffire {

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char separator) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string FormatDouble(double value, int decimals) {
  SAFFIRE_CHECK_MSG(decimals >= 0 && decimals <= 17, "decimals=" << decimals);
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << value;
  return os.str();
}

std::string PadLeft(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.insert(0, width - out.size(), ' ');
  return out;
}

std::string PadRight(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::int64_t ParseInt(std::string_view text) {
  const std::string trimmed = Trim(text);
  std::int64_t value = 0;
  const auto* begin = trimmed.data();
  const auto* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  SAFFIRE_CHECK_MSG(ec == std::errc() && ptr == end,
                    "not an integer: '" << trimmed << "'");
  return value;
}

double ParseDouble(std::string_view text) {
  const std::string trimmed = Trim(text);
  double value = 0.0;
  const auto* begin = trimmed.data();
  const auto* end = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  SAFFIRE_CHECK_MSG(ec == std::errc() && ptr == end,
                    "not a number: '" << trimmed << "'");
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string Fnv1aHex(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  std::string hex(16, '0');
  static const char* kDigits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[hash & 0xF];
    hash >>= 4;
  }
  return hex;
}

}  // namespace saffire
