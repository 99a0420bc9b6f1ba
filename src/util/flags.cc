#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "util/strings.h"

namespace meshnet::util {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      // "--name value" when the next token is not itself a flag.
      name = std::string(arg);
      value = argv[i + 1];
      ++i;
    } else {
      // Bare boolean "--name".
      name = std::string(arg);
      value = "true";
    }
    auto [it, inserted] = flags.values_.emplace(name, value);
    if (!inserted) {
      it->second = value;  // later duplicate wins, but is recorded
      if (std::find(flags.duplicates_.begin(), flags.duplicates_.end(),
                    name) == flags.duplicates_.end()) {
        flags.duplicates_.push_back(name);
      }
    }
  }
  return flags;
}

Flags Flags::parse_or_die(int argc, const char* const* argv,
                          const std::vector<std::string_view>& known,
                          const std::vector<std::string_view>& known_prefixes) {
  Flags flags = parse(argc, argv);
  const std::string error = flags.validate(known, known_prefixes);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "flags",
                 error.c_str());
    std::string list;
    for (const std::string_view name : known) {
      list += list.empty() ? "--" : ", --";
      list += name;
    }
    std::fprintf(stderr, "known flags: %s\n", list.c_str());
    std::exit(2);
  }
  return flags;
}

bool Flags::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::optional<std::string> Flags::get(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(std::string_view name,
                          std::string_view fallback) const {
  const auto v = get(name);
  return v ? *v : std::string(fallback);
}

std::int64_t Flags::get_int_or(std::string_view name,
                               std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') return fallback;
  return parsed;
}

double Flags::get_double_or(std::string_view name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') return fallback;
  return parsed;
}

bool Flags::get_bool_or(std::string_view name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::string> Flags::unknown(
    const std::vector<std::string_view>& known,
    const std::vector<std::string_view>& known_prefixes) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    const bool prefixed = std::any_of(
        known_prefixes.begin(), known_prefixes.end(),
        [&name = name](std::string_view prefix) {
          return starts_with(name, prefix);
        });
    if (!prefixed) out.push_back(name);
  }
  return out;
}

std::string Flags::validate(
    const std::vector<std::string_view>& known,
    const std::vector<std::string_view>& known_prefixes) const {
  std::string error;
  for (const std::string& name : unknown(known, known_prefixes)) {
    if (!error.empty()) error += "; ";
    error += "unknown flag --" + name;
  }
  for (const std::string& name : duplicates_) {
    if (!error.empty()) error += "; ";
    error += "duplicate flag --" + name;
  }
  return error;
}

namespace {

[[noreturn]] void exit_malformed(std::string_view name,
                                 std::string_view value) {
  std::fprintf(stderr, "malformed value for --%.*s: '%.*s'\n",
               static_cast<int>(name.size()), name.data(),
               static_cast<int>(value.size()), value.data());
  std::exit(2);
}

[[noreturn]] void exit_below_min(std::string_view name, std::string_view value,
                                 std::int64_t min) {
  std::fprintf(stderr, "value for --%.*s below %lld: '%.*s'\n",
               static_cast<int>(name.size()), name.data(),
               static_cast<long long>(min), static_cast<int>(value.size()),
               value.data());
  std::exit(2);
}

/// strtoll/strtod over the whole value; exits 2 naming the flag when any
/// of it does not parse.
template <typename T>
T numeric_flag_or_exit(const Flags& flags, std::string_view name,
                       T fallback) {
  const std::optional<std::string> value = flags.get(name);
  if (!value) return fallback;
  char* end = nullptr;
  errno = 0;
  T parsed;
  if constexpr (std::is_integral_v<T>) {
    parsed = std::strtoll(value->c_str(), &end, 10);
  } else {
    parsed = std::strtod(value->c_str(), &end);
  }
  if (end == value->c_str() || *end != '\0' || errno == ERANGE) {
    exit_malformed(name, *value);
  }
  return parsed;
}

}  // namespace

std::int64_t int_flag_or_exit(const Flags& flags, std::string_view name,
                              std::int64_t fallback, std::int64_t min) {
  const std::int64_t value = numeric_flag_or_exit(flags, name, fallback);
  if (value < min) {
    exit_below_min(name, flags.get_or(name, std::to_string(fallback)), min);
  }
  return value;
}

double double_flag_or_exit(const Flags& flags, std::string_view name,
                           double fallback) {
  return numeric_flag_or_exit(flags, name, fallback);
}

std::vector<int> int_list_flag_or_exit(const Flags& flags,
                                       std::string_view name,
                                       std::string_view fallback,
                                       int min) {
  const std::string text = flags.get_or(name, fallback);
  std::vector<int> values;
  for (const std::string_view entry : split(text, ',')) {
    const std::optional<std::uint64_t> value = parse_u64(trim(entry));
    if (!value || *value > static_cast<std::uint64_t>(INT_MAX)) {
      exit_malformed(name, text);
    }
    if (static_cast<int>(*value) < min) exit_below_min(name, text, min);
    values.push_back(static_cast<int>(*value));
  }
  return values;
}

}  // namespace meshnet::util
