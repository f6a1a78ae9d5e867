// Small string utilities shared by reports, CSV emission, and CLI parsing.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace saffire {

// Joins `parts` with `separator` ("a,b,c").
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char separator);

// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

// "%.3f"-style fixed formatting without <format> (gcc 12's is incomplete).
std::string FormatDouble(double value, int decimals);

// Left-pads with spaces to at least `width` characters.
std::string PadLeft(std::string_view text, std::size_t width);

// Right-pads with spaces to at least `width` characters.
std::string PadRight(std::string_view text, std::size_t width);

// Parses a signed integer; throws std::invalid_argument on trailing junk.
std::int64_t ParseInt(std::string_view text);

// Narrows an integer parsed as 64 bits (ParseInt, JsonValue::AsInt) to the
// type the caller stores; throws std::invalid_argument naming the value
// when T cannot hold it, so an out-of-range input fails instead of wrapping
// around (a negative value for an unsigned T included).
template <typename T>
T NarrowInt(std::int64_t value) {
  SAFFIRE_CHECK_MSG(std::in_range<T>(value),
                    "integer " << value << " is out of range ["
                               << std::numeric_limits<T>::min() << ", "
                               << std::numeric_limits<T>::max() << "]");
  return static_cast<T>(value);
}

// Parses a decimal floating-point value ("0.25"); throws
// std::invalid_argument on trailing junk.
double ParseDouble(std::string_view text);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// FNV-1a 64-bit hash of `text` as 16 lowercase hex digits — the content
// address of persisted identities (CampaignContentHash, NetworkSweepHash).
std::string Fnv1aHex(std::string_view text);

}  // namespace saffire
