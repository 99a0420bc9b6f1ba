#include "util/strings.h"

#include <cctype>
#include <cstdio>

namespace meshnet::util {

namespace {
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}
}  // namespace

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (to_lower_ascii(a[i]) != to_lower_ascii(b[i])) return false;
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = to_lower_ascii(c);
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  out.push_back(s.substr(start));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  return value;
}

std::string format_bytes(std::uint64_t bytes) {
  constexpr std::uint64_t kKb = 1024;
  constexpr std::uint64_t kMb = kKb * 1024;
  constexpr std::uint64_t kGb = kMb * 1024;
  char buf[64];
  if (bytes >= kGb) {
    std::snprintf(buf, sizeof buf, "%.2f GB",
                  static_cast<double>(bytes) / static_cast<double>(kGb));
  } else if (bytes >= kMb) {
    std::snprintf(buf, sizeof buf, "%.2f MB",
                  static_cast<double>(bytes) / static_cast<double>(kMb));
  } else if (bytes >= kKb) {
    std::snprintf(buf, sizeof buf, "%.2f KB",
                  static_cast<double>(bytes) / static_cast<double>(kKb));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

}  // namespace meshnet::util
