// Small string utilities shared by reports, CSV emission, and CLI parsing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

// Parses a decimal floating-point value ("0.25"); throws
// std::invalid_argument on trailing junk.
double ParseDouble(std::string_view text);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// FNV-1a 64-bit hash of `text` as 16 lowercase hex digits — the content
// address of persisted identities (CampaignContentHash, NetworkSweepHash).
std::string Fnv1aHex(std::string_view text);

}  // namespace saffire
