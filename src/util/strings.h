#pragma once

// Small string utilities shared across modules. Nothing here allocates
// unless the return type is a std::string/vector.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace meshnet::util {

/// Case-insensitive ASCII comparison (HTTP header names, header values such
/// as "Keep-Alive"). Non-ASCII bytes are compared verbatim.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// Lowercase of an ASCII letter; any other byte unchanged.
constexpr char to_lower_ascii(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lowercases ASCII letters in place and returns the result.
std::string to_lower(std::string_view s);

/// Removes leading/trailing ASCII whitespace (SP, HTAB, CR, LF).
std::string_view trim(std::string_view s) noexcept;

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// True if `s` begins with `prefix` (case-sensitive).
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Parses a non-negative decimal integer; rejects empty input, signs,
/// non-digits, and overflow.
std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

/// Formats a byte count with binary-ish human units ("512 B", "1.5 KB").
std::string format_bytes(std::uint64_t bytes);

/// Joins pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

}  // namespace meshnet::util
