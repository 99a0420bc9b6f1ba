#pragma once

// Tiny command-line flag parser used by the examples and bench binaries.
//
// Supports "--name=value", "--name value", and boolean "--name". Parsing
// never fails, but problems are *recorded* instead of silently ignored:
// duplicate occurrences land in duplicates(), and validate()/parse_or_die()
// reject flags outside a binary's declared set — a typo like
// `--thread=8` must abort the run, not silently sweep with defaults.
// Binaries that embed other flag-parsing libraries (google-benchmark)
// whitelist those by prefix.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace meshnet::util {

class Flags {
 public:
  /// Parses argv (excluding argv[0]). Later duplicates override earlier
  /// ones; every duplicated name is also recorded in duplicates().
  static Flags parse(int argc, const char* const* argv);

  /// parse() + validate(); on any error prints the message and the known
  /// flag list to stderr and exits with status 2.
  static Flags parse_or_die(int argc, const char* const* argv,
                            const std::vector<std::string_view>& known,
                            const std::vector<std::string_view>&
                                known_prefixes = {});

  bool has(std::string_view name) const;

  /// Returns the raw string value, or nullopt when absent.
  std::optional<std::string> get(std::string_view name) const;

  std::string get_or(std::string_view name, std::string_view fallback) const;
  std::int64_t get_int_or(std::string_view name, std::int64_t fallback) const;
  double get_double_or(std::string_view name, double fallback) const;
  bool get_bool_or(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flag names that appeared more than once, in first-repeat order.
  const std::vector<std::string>& duplicates() const { return duplicates_; }

  /// Parsed flags not in `known` and not matching any of `known_prefixes`.
  std::vector<std::string> unknown(
      const std::vector<std::string_view>& known,
      const std::vector<std::string_view>& known_prefixes = {}) const;

  /// Human-readable description of every problem (unknown flags given the
  /// declared set, plus duplicates). Empty string when the command line is
  /// clean.
  std::string validate(const std::vector<std::string_view>& known,
                       const std::vector<std::string_view>& known_prefixes =
                           {}) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> duplicates_;
};

/// Strict flag readers: `fallback` when the flag is absent; when its
/// value does not parse in full, or an int is below `min`, print the
/// flag's name and exit 2 (Flags::get_*_or would silently fall back).
std::int64_t int_flag_or_exit(
    const Flags& flags, std::string_view name, std::int64_t fallback,
    std::int64_t min = std::numeric_limits<std::int64_t>::min());
double double_flag_or_exit(const Flags& flags, std::string_view name,
                           double fallback);
/// Comma-separated ints of at least `min` ("10,50,100"), parsed from
/// `fallback` when the flag is absent. An empty entry (so also an empty
/// list) or any entry that is not a whole int exits 2 naming the flag.
std::vector<int> int_list_flag_or_exit(const Flags& flags,
                                       std::string_view name,
                                       std::string_view fallback,
                                       int min = 0);

}  // namespace meshnet::util
